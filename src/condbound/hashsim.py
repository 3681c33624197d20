"""Genuine q-wise independent hash families and load experiments.

The family is polynomial evaluation over GF(2^w): a seed is the
coefficient vector of a degree-(q-1) polynomial, the hash of x is the top
``output_bits`` bits of the polynomial evaluated at x.  Values at any q
distinct points are exactly independent and uniform, so these families
validate the moment identities both empirically (Monte Carlo over seeds)
and exactly (exhaustive seed enumeration at small widths).

Evaluation kernel: the Monte Carlo and exhaustive modes evaluate batches of
seed polynomials at every point of a fixed grid (the balls, or the whole
field).  Multiplying a coefficient by a fixed x^i is GF(2)-linear, so
uint16 tables of (v << 4j) * x^i over the grid, one row per coefficient
position i, nibble j and nibble value v, turn each batch into contiguous
row gathers XORed into one accumulator (the split-table method of Plank,
Greenan and Miller, FAST 2013); x^(i+1) is read from the rows of x^i at
the nibbles of x.  The uint16 rows bound w by TABLE_FIELD_BITS.  The
constant coefficient c_0 is never gathered, so only positions 1..q-1
have rows, (q-1) * ceil(w/4) * 16 * M * 2 bytes over M points, capped at
TABLE_BYTES (16 MiB): positions past the first ``span`` fold in by
Horner in x^span, through exp/log tables built for that case alone.
c_0 XORs every value of a seed with one constant, which permutes the
seed's bins.  The load
histogram, the tails and every moment summed in integers are functions
of the multiset of loads and do not change; a moment that
``_trial_moment`` sums in float64 (M^order >= 2^53) rounds in bin order,
so its last bits can.

Block budget: ``_load_experiment`` is the only block loop, for the Monte
Carlo trials and the exhaustive seed oracle alike, and each caller
writes the bin of every ball straight into the loop's reused block
buffer.  What is budgeted is the loop's own arrays of a batch, not one
of them: its int64 bins and loads, the two uint16 gather buffers of
``_SplitTables.evaluate`` and, for orders >= 2, one int64 ``loads **
order`` temporary are live at once, and BLOCK_ELEMS elements of each
come to 1.75 MiB, under one core's 2 MiB L2 cache.  The split tables
(up to TABLE_BYTES) and the chunk's seed draw (up to CHUNK_ELEMS int64)
are read beside them and lie outside that budget.  A batch of one seed,
as every batch is once M reaches BLOCK_ELEMS, XORs its table rows into
the accumulator in place, one numpy call per gather and no copy.
Chunks, the rows of one vectorised seed draw and the unit of thread
scheduling, are sized apart from the batches: up to 8 batches of
CHUNK_ELEMS elements and at most CHUNK_ELEMS drawn elements, so the
Philox pass runs once per chunk, not once per batch.  ``_plan`` sizes
the loop's batches and chunks and checks every cap, for every caller,
before any work: a batch holds at least one trial, so ROW_ELEMS_CAP
bounds the balls M and bins N of one row; DEFAULT_THROW_CAP bounds M and
N times the trials; and _TRIAL_STATS_CAP bounds the trials times their
statistics.  The exhaustive seed oracle meets its tighter seed cap
first.  A Monte Carlo batch gathers (q-1) * ceil(w/4) rows whatever M,
so KERNEL_PASS_CAP bounds those gathers, each x^span fold at the cost of
32 gathers and the span * w passes of the table build, counted over
batches of CHUNK_ELEMS elements whatever BLOCK_ELEMS is.
``run_trials`` checks its arguments, the instance, ``_plan``,
KERNEL_PASS_CAP and the orders (in ``_moment_values``), in that order,
before its tables or any trial.  The fully
independent reference, ``independent.independent_oracle``, runs its
Monte Carlo branch through ``independent_trials`` and needs this module
for nothing else: at shapes it enumerates it reads the closed-form
``ExactLoadDistribution`` and never imports numpy.

Numpy use: gathers, XOR, ``add.at``, ``bincount``, uint64 arithmetic and
reductions, and no BLAS routine, so the CLI loads numpy with OpenBLAS at
one thread (see ``cli._run_simulate``).  Only the independent sampler
uses ``numpy.random``; the GF family's Monte Carlo and exhaustive modes
never import it.

Determinism contract: every trial draws its seed from a counter-based
Philox generator keyed by master_seed, with the trial index t as its
starting counter (t << 128): trial t draws exactly what a fresh
``Generator(Philox(key=master_seed, counter=t << 128))`` would.  The GF
family's q coefficients per trial are computed for a whole chunk of
trials in one vectorised Philox4x64-10 pass (``_seed_coefficients``);
the independent sampler re-keys one numpy generator per batch before
each trial (``_trial_rngs``).  All reductions run in trial-index order,
so reports are bit-identical regardless of how trials are scheduled
across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .errors import CapacityError, PreconditionError
from .frozen import Frozen
from .gf2 import default_modulus, gf_mul, primitive_element
from .independent import (MomentStat, SimulationReport, TailStat,
                          _check_master_seed, _finite)
from .moments import BallsBinsInstance, ExactLoadDistribution, _moment_values

# widest field the simulator runs: its split-table rows are uint16
TABLE_FIELD_BITS = 16
DEFAULT_SEED_ENUM_CAP = 1 << 24
DEFAULT_THROW_CAP = 1 << 30
# elements of one trial's row (a 128 MiB int64 row): a batch holds at
# least one trial's M bins and N loads, whatever the block
ROW_ELEMS_CAP = 1 << 24
# trials times (1 + statistics): at most 32 MiB of per-trial float64
# arrays, and about a minute of the ~15 us fixed cost of a trial
_TRIAL_STATS_CAP = 1 << 22
# bytes of split tables per evaluation grid; at w = 16 (8 MiB per
# coefficient position) the q - 1 positions would need (q-1) * 8 MiB
TABLE_BYTES = 16 << 20
# passes of run_trials' kernel, span * w to build its tables and, per
# batch of CHUNK_ELEMS elements, (q - 1) * ceil(w/4) gathers and 32 per
# x^span fold (a fold costs 22-26 gathers over as many rows): at w = 16
# on a 2-vCPU host, q = 13000 takes 7.7 s for 4 trials (259996 passes),
# and q = 4 12.2 s for 16384 trials (180256), the slowest admitted run
# timed
KERNEL_PASS_CAP = 1 << 18
# elements per block of every simulator loop.  A batch keeps its int64
# bins and loads (0.5 MiB each), two uint16 gather buffers (128 KiB each)
# and, for orders >= 2, an int64 loads ** order temporary (0.5 MiB) live
# at once: 1.75 MiB, under one core's 2 MiB L2 cache.  The split tables
# and the chunk's seed draw it reads are not counted here
BLOCK_ELEMS = 1 << 16
# elements of the batches that size a chunk, the unit of one seed draw
# and of thread scheduling (up to 8 such batches and CHUNK_ELEMS draws),
# and that KERNEL_PASS_CAP counts its passes over
CHUNK_ELEMS = 1 << 18


class HashFamilySpec(Frozen):
    """Degree-(q-1) polynomial evaluation over GF(2^w), truncated to the
    top output_bits bits."""

    __slots__ = _fields = ("field_bits", "degree", "output_bits")

    def __init__(self, field_bits: int, degree: int, output_bits: int):
        default_modulus(field_bits)  # first: an unsupported width is named
        if degree < 0:
            raise PreconditionError("degree must be >= 0")
        if degree + 1 > (1 << field_bits):
            raise PreconditionError(
                "q-wise independence requires q <= field size 2^w")
        if not 1 <= output_bits <= field_bits:
            raise PreconditionError("output_bits must be in [1, field_bits]")
        object.__setattr__(self, "field_bits", field_bits)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "output_bits", output_bits)

    @classmethod
    def create(cls, field_bits: int, independence: int,
               output_bits: int | None = None) -> "HashFamilySpec":
        if output_bits is None:
            output_bits = field_bits
        return cls(field_bits, independence - 1, output_bits)

    @property
    def modulus(self) -> int:
        """The field's modulus, ``gf2.default_modulus(field_bits)``."""
        return default_modulus(self.field_bits)

    @property
    def independence(self) -> int:
        return self.degree + 1

    @property
    def seed_count(self) -> int:
        return 1 << (self.field_bits * (self.degree + 1))

    @property
    def bins(self) -> int:
        return 1 << self.output_bits


def evaluate_hash(spec: HashFamilySpec, seed, x: int) -> int:
    """Horner evaluation of the seed polynomial at x, truncated to bins.

    seed[i] is the coefficient of x^i.
    """
    seed = list(seed)
    if len(seed) != spec.degree + 1:
        raise PreconditionError(
            f"seed length {len(seed)} != degree+1 = {spec.degree + 1}")
    if not 0 <= x < (1 << spec.field_bits):
        raise PreconditionError("point outside the field")
    acc = 0
    for c in reversed(seed):
        acc = gf_mul(acc, x, spec.modulus) ^ c
    return acc >> (spec.field_bits - spec.output_bits)


# Philox4x64-10 (Salmon et al., SC 2011): the round multipliers and the
# Weyl increments of the key
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_U64 = (1 << 64) - 1
_LO32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def _mulhilo(m: int, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) 64-bit halves of the 128-bit products m * a, through
    32-bit halves; every operand is uint64, which wraps the low half."""
    m0, m1 = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a0, a1 = a & _LO32, a >> _32
    p00, p01, p10 = a0 * m0, a1 * m0, a0 * m1
    mid = (p00 >> _32) + (p01 & _LO32) + (p10 & _LO32)
    hi = a1 * m1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32)
    return hi, a * np.uint64(m)


def _seed_coefficients(master_seed: int, t0: int, t1: int, w: int,
                       q: int) -> np.ndarray:
    """(q, t1 - t0) int64 coefficients: column t - t0 holds what
    ``Generator(Philox(key=master_seed, counter=t << 128)).integers(0,
    2^w, size=q, dtype=int64)`` draws, for trials 0 <= t0 <= t < t1 <
    2^64 and 1 <= w <= 16.

    numpy's Philox increments the 256-bit counter before each block, so
    block b of trial t is Philox4x64-10 of the counter words (b + 1, 0,
    t, 0) under the key words (master_seed mod 2^64, master_seed >> 64);
    every trial's blocks run in one vectorised pass.  Each 64-bit word
    yields two uint32 draws, its low half first, and Lemire's method on a
    bound of 2^w keeps the top w bits of a draw and never rejects.
    Halves are split by shifts, independent of the host's byte order.
    """
    blocks = -(-q // 8)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[:, None]
    c2 = np.arange(t0, t1, dtype=np.uint64)[None, :]
    c1 = c3 = np.uint64(0)
    k0, k1 = master_seed & _U64, master_seed >> 64
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_MUL[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_MUL[1], c2)
        c0, c1 = hi1 ^ c1 ^ np.uint64(k0), lo1
        c2, c3 = hi0 ^ c3 ^ np.uint64(k1), lo0
        k0 = (k0 + _PHILOX_BUMP[0]) & _U64
        k1 = (k1 + _PHILOX_BUMP[1]) & _U64
    # (blocks, t1 - t0) arrays from the third round on: word 4b + i of
    # trial t is ci[b, t - t0]
    words = np.stack((c0, c1, c2, c3), axis=1).reshape(4 * blocks, -1)
    coeffs = np.empty((q, t1 - t0), dtype=np.int64)
    coeffs[0::2] = (words[:(q + 1) // 2] & _LO32) >> np.uint64(32 - w)
    coeffs[1::2] = words[:q // 2] >> np.uint64(64 - w)
    return coeffs


def _trial_rngs(master_seed: int, b0: int, b1: int):
    """Yield, for each trial t in b0..b1-1, a Generator in the state of
    ``Generator(Philox(key=master_seed, counter=t << 128))``.

    One bit generator serves the whole range, re-keyed before each trial:
    constructing a Philox seeds a SeedSequence from the OS entropy pool
    even when a key is given, which costs more than the draws of a trial.
    Each call builds its own generator, so concurrent calls share nothing.
    """
    bitgen = np.random.Philox(key=master_seed)
    rng = np.random.Generator(bitgen)
    # the state of a fresh generator: empty buffer, no buffered uint32
    state = bitgen.state
    counter = state["state"]["counter"]
    for t in range(b0, b1):
        counter[:] = (0, 0, t & ((1 << 64) - 1), t >> 64)
        bitgen.state = state
        yield rng


def _trial_moment(loads: np.ndarray, M: int, order: int):
    """Mean over bins of S^order for every trial (row) of ``loads``, each
    row holding the N bin loads of M balls.

    Bit-identical to ``np.mean(loads.astype(np.float64) ** order, axis=1)``
    without its float pass where the result is known exactly: every row
    sums to M, and when M^order < 2^53 every partial sum of S^order is an
    integer that float64 holds exactly, whatever the summation order.
    """
    N = loads.shape[1]
    if order == 1:
        return M / N
    if M ** order < 1 << 53:
        return np.sum(loads ** order, axis=1) / N
    # a power past the float range reads inf, which _reduce_report rejects
    with np.errstate(over="ignore"):
        return np.mean(loads.astype(np.float64) ** order, axis=1)


def _trial_tail(loads: np.ndarray, threshold: int) -> np.ndarray:
    """Fraction of bins with load >= threshold for every trial (row),
    bit-identical to ``np.mean(loads >= threshold, axis=1)``."""
    return np.count_nonzero(loads >= threshold, axis=1) / loads.shape[1]


def _reduce_report(config_echo: dict, trials: int, orders, thresholds,
                   per_trial_moments: np.ndarray, per_trial_tails: np.ndarray,
                   hist_counts: np.ndarray,
                   exact_refs: dict[int, Fraction]) -> SimulationReport:
    se_defined = trials >= 2

    def mean_se(col, what):
        mean = _finite(np.mean(col), f"the mean of {what}")
        if not se_defined:
            return mean, None
        return mean, _finite(np.std(col, ddof=1) / math.sqrt(trials),
                             f"the standard error of {what}")

    with np.errstate(over="ignore", invalid="ignore"):
        moments = tuple(
            MomentStat(order, *mean_se(per_trial_moments[:, idx],
                                       f"moment order {order}"),
                       exact_refs.get(order))
            for idx, order in enumerate(orders))
        tails = tuple(
            TailStat(thr, *mean_se(per_trial_tails[:, idx],
                                   f"the tail at {thr}"))
            for idx, thr in enumerate(thresholds))
    nz = np.nonzero(hist_counts)[0]
    histogram = tuple((int(s), int(hist_counts[s])) for s in nz)
    return SimulationReport(config_echo, trials, moments, tails, histogram,
                            se_defined)


@lru_cache(maxsize=4)
def _fold_tables(w: int, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """(exp, log) of GF(2^w) for the fold: exp[log[a] + log[b]] = a * b.
    log[0] is the sentinel 2 * order, so a product with a zero factor
    indexes the zero-filled top of exp and the fold needs no masking.
    exp is uint16 and log int32, the narrowest types that hold them: at
    w = 16 the pair is 0.75 MiB and stays in L2 beside a batch."""
    order = (1 << w) - 1
    gen = primitive_element(modulus)
    exp = np.zeros(4 * order + 1, dtype=np.uint16)
    log = np.full(1 << w, 2 * order, dtype=np.int32)
    v = 1
    for i in range(order):
        exp[i] = exp[i + order] = v
        log[v] = i
        v = gf_mul(v, gen, modulus)
    return exp, log


def _table_span(w: int, q: int, points: int) -> int:
    """Positions 1..span of split tables: q - 1, or what TABLE_BYTES holds."""
    if w > TABLE_FIELD_BITS:
        raise CapacityError(
            f"the simulator supports field_bits <= {TABLE_FIELD_BITS}")
    return min(q - 1, TABLE_BYTES // (-(-w // 4) * 16 * points * 2))


class _SplitTables:
    """Split tables of the seed polynomials of a family over the grid of
    points 0..points-1.

    rows[r, j, v] holds (v << 4j) * x^(r+1) at every point x of the grid,
    so a seed polynomial's values, less its constant c_0, are the XOR over
    coefficient positions r + 1 and nibbles j of rows[r, j, nibble j of
    c_(r+1)].  The rows cover positions 1..span, as many as TABLE_BYTES
    holds; higher positions fold in by Horner in x^span.
    """

    def __init__(self, spec: HashFamilySpec, points: int):
        w, q = spec.field_bits, spec.independence
        self.span = _table_span(w, q, points)
        self.nibbles = -(-w // 4)
        self.shifts = 4 * np.arange(self.nibbles)[:, None]
        self.rows = np.zeros((self.span, self.nibbles, 16, points),
                             dtype=np.uint16)
        xs = basis = np.arange(points, dtype=np.int64)
        js = np.arange(self.nibbles)[:, None]
        for r in range(self.span):
            if r:   # x^(r+1) = x^r * x: row r - 1 at the nibbles of x
                basis = np.bitwise_xor.reduce(self.rows[
                    r - 1, js, xs >> 4 * js & 15, xs]).astype(np.int64)
            for b in range(w):                           # 2^b * x^(r+1)
                j, k = divmod(b, 4)
                self.rows[r, j, (np.arange(16) >> k) & 1 == 1] ^= \
                    basis.astype(np.uint16)
                basis = basis << 1                       # times 2, reduced
                basis ^= (basis >> w) * spec.modulus
        if self.span < q - 1:
            self.exp, self.log = _fold_tables(w, spec.modulus)
            self.log_fold = self.log[self.rows[self.span - 1, 0, 1]]

    def evaluate(self, coeffs, seeds: int) -> np.ndarray:
        """(seeds, points) uint16 values of the seed polynomials with their
        constant coefficient taken as 0.

        coeffs[i] holds the coefficient of x^(i+1) for each of the seeds.
        The constant c_0 would be the last term XORed in, after every fold;
        it XORs all of a seed's values with one constant, which permutes
        the seed's bins (see the module docstring).
        """
        acc = np.zeros((seeds, self.rows.shape[-1]), dtype=np.uint16)
        buf = np.empty_like(acc)
        if self.span < len(coeffs):
            logs = np.empty(acc.shape, dtype=np.int32)
        # blocks of span positions, top first, Horner in x^span
        for base in reversed(range(0, len(coeffs), self.span or 1)):
            if base + self.span < len(coeffs):
                # acc * x^span through the exp/log tables, in place
                np.take(self.log, acc, out=logs, mode="clip")
                logs += self.log_fold
                np.take(self.exp, logs, out=acc, mode="clip")
            for r, c in enumerate(coeffs[base:base + self.span]):
                if seeds == 1:  # one seed XORs its table rows, views
                    c = int(c[0])
                    for j in range(self.nibbles):
                        acc ^= self.rows[r, j, c >> 4 * j & 15]
                    continue
                # every nibble of the seeds' coefficient in two calls
                for j, nib in enumerate(c >> self.shifts & 15):
                    np.take(self.rows[r, j], nib, axis=0, out=buf,
                            mode="clip")
                    acc ^= buf
        return acc


def _add_counts(total: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Two load histograms summed; each runs to its largest load, not M."""
    if len(counts) > len(total):
        total, counts = counts, total
    total[:len(counts)] += counts
    return total


def _rows(elems: int, M: int, N: int, draw: int) -> int:
    """Rows of M balls, N bins and ``draw`` draws in ``elems`` elements of
    each, and at least one."""
    return max(1, elems // max(M, N, draw))


def _plan(M: int, N: int, trials: int, stats: int,
          draw: int = 0) -> tuple[int, int]:
    """(batch, chunk) for ``trials`` rows of M balls, N bins, ``stats``
    floats and ``draw`` draws, once every cap holds; a batch has at most
    BLOCK_ELEMS of each, a chunk 8 batches of CHUNK_ELEMS and at most
    CHUNK_ELEMS draws."""
    for name, size in (("balls", M), ("bins", N)):
        if size > ROW_ELEMS_CAP:
            raise CapacityError(
                f"{name} = {size} exceeds the row cap {ROW_ELEMS_CAP}")
        if size * trials > DEFAULT_THROW_CAP:
            raise CapacityError(
                f"{name}*trials = {size * trials} exceeds the throw cap "
                f"{DEFAULT_THROW_CAP}")
    if trials * stats > _TRIAL_STATS_CAP:
        raise CapacityError(
            f"trials*(1 + orders + thresholds) = {trials * stats} exceeds "
            f"the trial cap {_TRIAL_STATS_CAP}")
    return (_rows(BLOCK_ELEMS, M, N, draw),
            max(1, min(8 * _rows(CHUNK_ELEMS, M, N, draw),
                       CHUNK_ELEMS // max(draw, 1))))


def _load_experiment(M: int, N: int, trials: int, orders, thresholds,
                     threads: int, assign, plan: tuple[int, int]):
    """Bin loads of M balls in N bins over ``trials`` rows.

    Returns (per_trial_moments, per_trial_tails, hist_counts): the mean
    over bins of S^order and of S >= threshold for every row, one column
    per order or threshold, and the number of (row, bin) pairs at each
    load from 0 to the largest load seen.

    ``assign(start, end)`` runs once per chunk of rows start..end-1, on
    the thread that runs the chunk, and returns ``fill(b0, b1, out)``,
    which writes the bin in [0, N) of every ball in rows b0..b1-1 of the
    chunk into ``out``, the (b1 - b0, M) int64 view of the chunk's reused
    block buffer, row i for row b0 + i; the driver then offsets the bins
    in place and counts the loads into a second reused buffer.  ``plan``
    is the (batch, chunk) from ``_plan``; chunks run on the thread pool.
    Every per-trial row is written at its row index and the chunk
    histograms are summed in chunk order, so the result depends neither
    on the thread count nor on where a block boundary falls.
    """
    int_thrs = [max(0, math.ceil(t)) for t in thresholds]
    per_trial_moments = np.empty((trials, len(orders)), dtype=np.float64)
    per_trial_tails = np.empty((trials, len(thresholds)), dtype=np.float64)
    batch, chunk = plan
    # row i of a batch counts its balls in bins i*N .. i*N + N-1
    offsets = np.arange(0, batch * N, N)[:, None]

    def work(start):
        end = min(start + chunk, trials)
        # sized by the loads seen: M + 1 entries are a row at the row cap
        hist = np.zeros(0, dtype=np.int64)
        rows = min(batch, end - start)
        buf = np.empty((rows, M), dtype=np.int64)
        # loads are counted in place: a fresh bincount array per batch,
        # freed with the moment temporaries, lets the allocator trim and
        # regrow the heap on every batch
        counts = np.empty(rows * N, dtype=np.int64)
        fill = assign(start, end)
        for b0 in range(start, end, batch):
            b1 = min(b0 + batch, end)
            nb = b1 - b0
            bins = buf[:nb]
            fill(b0, b1, bins)
            bins += offsets[:nb]
            loads = counts[:nb * N]
            loads.fill(0)
            np.add.at(loads, bins.ravel(), 1)
            loads = loads.reshape(nb, N)
            hist = _add_counts(hist, np.bincount(loads.ravel()))
            for idx, order in enumerate(orders):
                per_trial_moments[b0:b1, idx] = _trial_moment(loads, M, order)
            for idx, thr in enumerate(int_thrs):
                per_trial_tails[b0:b1, idx] = _trial_tail(loads, thr)
        return hist

    starts = range(0, trials, chunk)
    if threads > 1:
        # imported here, so one thread loads neither it nor logging
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hists = list(pool.map(work, starts))
    else:
        hists = map(work, starts)
    return per_trial_moments, per_trial_tails, reduce(_add_counts, hists)


def run_trials(spec: HashFamilySpec, trials: int, master_seed: int,
               orders=(1, 2), thresholds=(), balls: int | None = None,
               threads: int = 1) -> SimulationReport:
    """Monte Carlo load experiment over random seeds of the family.

    Per trial: draw a seed, hash ``balls`` points (default: all 2^w field
    elements), histogram the bin loads.  The per-trial statistic is the
    mean over bins (of S^order, or of the tail indicator), and the
    reported standard error is taken across trials; bins within one trial
    are correlated and are never treated as independent samples.
    """
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    _check_master_seed(master_seed)
    w, q = spec.field_bits, spec.independence
    M, N = (1 << w if balls is None else balls), spec.bins
    if M > (1 << w):
        raise PreconditionError("more balls than field elements")
    inst = BallsBinsInstance(M, N, q)
    orders = tuple(orders)
    thresholds = tuple(Fraction(t) for t in thresholds)
    stats = 1 + len(orders) + len(thresholds)
    # one trial's draw holds q coefficients and the 4 * ceil(q / 8)
    # <= max(q, 4) words of its Philox blocks
    draw = max(q, 4)
    plan = _, chunk = _plan(M, N, trials, stats, draw)
    # passes are counted over batches of CHUNK_ELEMS elements, however
    # many smaller batches of BLOCK_ELEMS _load_experiment runs them as
    counted = _rows(CHUNK_ELEMS, M, N, draw)
    full, rest = divmod(trials, chunk)
    batches = full * -(-chunk // counted) + -(-rest // counted)
    span = _table_span(w, q, M)
    folds = (q - 2) // span if span else 0      # ceil((q - 1) / span) - 1
    passes = span * w + batches * ((q - 1) * -(-w // 4) + 32 * folds)
    if passes > KERNEL_PASS_CAP:
        raise CapacityError(f"table, gather and fold passes = {passes} "
                            f"exceed the kernel pass cap {KERNEL_PASS_CAP}")
    exact_refs = _moment_values(inst, orders)
    split = _SplitTables(spec, M)
    shift = w - spec.output_bits

    def assign(start, end):
        coeffs = _seed_coefficients(master_seed, start, end, w, q)

        def fill(b0, b1, out):
            parts = coeffs[1:, b0 - start:b1 - start]
            np.right_shift(split.evaluate(parts, b1 - b0), shift, out=out)
        return fill

    echo = {"mode": "monte-carlo", "field_bits": spec.field_bits,
            "degree": spec.degree, "output_bits": spec.output_bits,
            "modulus": spec.modulus, "balls": M, "bins": N,
            "trials": trials, "master_seed": master_seed}
    return _reduce_report(
        echo, trials, orders, thresholds,
        *_load_experiment(M, N, trials, orders, thresholds, threads, assign,
                          plan),
        exact_refs)


def exact_small_oracle(spec: HashFamilySpec) -> ExactLoadDistribution:
    """Exhaustive ground truth: the bin-0 load of every seed, counted.

    Seed s has coefficients c_i = (s >> w*i) & (2^w - 1).  In
    characteristic 2 its polynomial is p(x) = g(x) XOR c_0, with g the
    non-constant part (c_1..c_{q-1}) = s >> w, so the top ``output_bits``
    bits of p(x) are zero exactly when g(x) >> shift == c_0 >> shift
    (shift = w - output_bits).  One evaluation of g at every point
    therefore gives the bin-0 loads of all 2^w seeds (c_0, g): the
    2^shift constants c_0 with c_0 >> shift == b put #{x : g(x) >> shift
    == b} balls in bin 0.  So each non-constant part is one row of the
    load driver, whose histogram counts the (part, b) pairs at each load,
    and every count stands for 2^shift seeds.

    The work is one evaluation per non-constant part at each of the 2^w
    points, seed_count point evaluations in all, so the seed cap
    DEFAULT_SEED_ENUM_CAP bounds the work itself.
    """
    n_seeds = spec.seed_count
    if n_seeds > DEFAULT_SEED_ENUM_CAP:
        raise CapacityError(
            f"{n_seeds} seeds exceed the enumeration cap "
            f"{DEFAULT_SEED_ENUM_CAP}")
    w = spec.field_bits
    M = 1 << w
    plan = _plan(M, spec.bins, n_seeds >> w, 1)
    split = _SplitTables(spec, M)
    shift = w - spec.output_bits

    def fill(b0, b1, out):
        parts = np.arange(b0, b1, dtype=np.int64)
        # g(x), the seed polynomial with c_0 = 0
        coeffs = [(parts >> (w * i)) & (M - 1) for i in range(spec.degree)]
        np.right_shift(split.evaluate(coeffs, b1 - b0), shift, out=out)

    *_, counts = _load_experiment(M, spec.bins, n_seeds >> w, (), (), 1,
                                  lambda start, end: fill, plan)
    counts <<= shift
    support = {int(s): Fraction(int(c), n_seeds)
               for s, c in enumerate(counts) if c}
    return ExactLoadDistribution(support)


def independent_trials(M: int, N: int, orders: tuple, thresholds: tuple,
                       trials: int, master_seed: int, threads: int,
                       inst: BallsBinsInstance) -> SimulationReport:
    """The Monte Carlo branch of ``independent.independent_oracle``, which
    has checked its arguments into ``inst``: ``trials`` seeded trials of M
    balls, each in a uniform bin of N, once the caps and orders hold."""

    def fill(b0, b1, out):
        for row, rng in zip(out, _trial_rngs(master_seed, b0, b1)):
            # by blocks, no row-sized temporary; slices continue one stream
            for s in range(0, M, BLOCK_ELEMS):
                piece = row[s:s + BLOCK_ELEMS]
                piece[:] = rng.integers(0, N, size=len(piece), dtype=np.int64)

    plan = _plan(M, N, trials, 1 + len(orders) + len(thresholds))
    exact_refs = _moment_values(inst, orders)
    echo = {"mode": "independent-monte-carlo", "balls": M, "bins": N,
            "trials": trials, "master_seed": master_seed}
    return _reduce_report(
        echo, trials, orders, thresholds,
        *_load_experiment(M, N, trials, orders, thresholds, threads,
                          lambda start, end: fill, plan),
        exact_refs)
