import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condbound import hashsim, moments
from condbound import (BallsBinsInstance, BellSequence, HashFamilySpec,
                       evaluate_hash, exact_small_oracle, independent_oracle,
                       lemma2_certificate, raw_moment, run_trials)
from condbound.errors import CapacityError, PreconditionError

from oracles import (assignment_bin0_histogram, assignment_moment,
                     polynomial_trial_loads, seed_bin0_histogram)


def test_constant_polynomial_family():
    spec = HashFamilySpec.create(2, independence=1)  # degree 0
    for c in range(4):
        for x in range(4):
            assert evaluate_hash(spec, [c], x) == c  # m = w: no truncation


def test_identity_polynomial():
    spec = HashFamilySpec.create(2, independence=2)
    for x in range(4):
        assert evaluate_hash(spec, [0, 1], x) == x


def test_seed_length_checked():
    spec = HashFamilySpec.create(2, independence=2)
    with pytest.raises(PreconditionError):
        evaluate_hash(spec, [1], 0)
    with pytest.raises(PreconditionError):
        evaluate_hash(spec, [1, 0], 7)


def test_truncation_takes_top_bits():
    spec = HashFamilySpec.create(3, independence=1, output_bits=1)
    assert evaluate_hash(spec, [0b100], 0) == 1
    assert evaluate_hash(spec, [0b011], 0) == 0


def test_gf4_pairwise_full_enumeration():
    # all 16 seeds of the degree-1 family over GF(4): 12 give bin-0 load 1,
    # one gives load 4, three give load 0
    spec = HashFamilySpec.create(2, independence=2)
    counts = {0: 0, 1: 0, 4: 0}
    for a in range(4):
        for b in range(4):
            load = sum(1 for x in range(4)
                       if evaluate_hash(spec, [b, a], x) == 0)
            counts[load] += 1
    assert counts == {0: 3, 1: 12, 4: 1}
    dist = exact_small_oracle(spec)
    assert dist.support == {0: Fraction(3, 16), 1: Fraction(12, 16),
                            4: Fraction(1, 16)}
    assert dist.moment(1) == 1
    assert dist.moment(2) == Fraction(7, 4)
    # matches the closed form at M=N=4, order 2
    inst = BallsBinsInstance(4, 4, 2)
    assert raw_moment(inst, 2).value == Fraction(7, 4)


def test_constant_family_distribution():
    spec = HashFamilySpec.create(2, independence=1)
    dist = exact_small_oracle(spec)
    assert dist.support == {0: Fraction(3, 4), 4: Fraction(1, 4)}


def test_exact_oracle_matches_moments_gf8():
    spec = HashFamilySpec.create(3, independence=4)  # 2^12 seeds
    dist = exact_small_oracle(spec)
    assert dist.total() == 1
    inst = BallsBinsInstance(8, 8, 4)
    for order in range(1, 5):
        assert dist.moment(order) == raw_moment(inst, order).value


def test_exact_oracle_matches_moments_varied_specs():
    for w, q in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]:
        spec = HashFamilySpec.create(w, independence=q)
        dist = exact_small_oracle(spec)
        inst = BallsBinsInstance(1 << w, 1 << w, q)
        for order in range(1, q + 1):
            assert dist.moment(order) == raw_moment(inst, order).value, \
                (w, q, order)


def test_exact_oracle_truncated_output():
    # w=3 field truncated to 2 output bits: M=8 balls, N=4 bins
    spec = HashFamilySpec.create(3, independence=2, output_bits=2)
    dist = exact_small_oracle(spec)
    inst = BallsBinsInstance(8, 4, 2)
    for order in (1, 2):
        assert dist.moment(order) == raw_moment(inst, order).value


def test_truncation_preserves_uniformity():
    # marginal of the hash at any fixed x is uniform over the bins
    for output_bits in (1, 2, 3):
        spec = HashFamilySpec.create(3, independence=2,
                                     output_bits=output_bits)
        n_bins = 1 << output_bits
        for x in [0, 3, 7]:
            counts = [0] * n_bins
            for s in range(64):
                seed = [s & 7, (s >> 3) & 7]
                counts[evaluate_hash(spec, seed, x)] += 1
            assert counts == [64 // n_bins] * n_bins


@pytest.mark.parametrize("w, q, output_bits", [
    (2, 1, 2), (2, 3, 1), (3, 2, 3), (3, 3, 2), (3, 4, 1), (4, 3, 4),
    (4, 3, 2)])
def test_exact_oracle_matches_brute_force(w, q, output_bits):
    spec = HashFamilySpec.create(w, independence=q, output_bits=output_bits)
    counts = seed_bin0_histogram(w, q, output_bits, spec.modulus)
    assert exact_small_oracle(spec).support == {
        s: Fraction(c, spec.seed_count) for s, c in counts.items()}


@pytest.mark.parametrize("w, q, output_bits", [
    (2, 1, 2), (5, 1, 3), (3, 4, 3), (4, 3, 2), (4, 5, 4), (5, 4, 1)])
def test_exact_oracle_work_is_seed_count(monkeypatch, w, q, output_bits):
    # one polynomial evaluation per non-constant part serves all 2^w
    # constant terms: seed_count point evaluations in all, the number the
    # seed cap bounds
    evaluated = []
    evaluate = hashsim._SplitTables.evaluate

    def counted(self, coeffs, seeds):
        evaluated.append(seeds * self.rows.shape[-1])
        return evaluate(self, coeffs, seeds)

    monkeypatch.setattr(hashsim._SplitTables, "evaluate", counted)
    spec = HashFamilySpec.create(w, independence=q, output_bits=output_bits)
    exact_small_oracle(spec)
    assert sum(evaluated) == spec.seed_count


def test_exact_oracle_at_seed_cap():
    spec = HashFamilySpec.create(8, independence=3)    # 2^24 seeds
    assert spec.seed_count == hashsim.DEFAULT_SEED_ENUM_CAP
    dist = exact_small_oracle(spec)
    assert dist.total() == 1
    inst = BallsBinsInstance(256, 256, 3)
    for order in (1, 2, 3):
        assert dist.moment(order) == raw_moment(inst, order).value


@pytest.mark.parametrize("order", [0, -1])
def test_exact_distribution_rejects_order_below_one(order):
    dist = exact_small_oracle(HashFamilySpec.create(2, independence=2))
    with pytest.raises(PreconditionError, match="moment order"):
        dist.moment(order)


def test_seed_cap():
    spec = HashFamilySpec.create(8, independence=4)  # 2^32 seeds
    with pytest.raises(CapacityError):
        exact_small_oracle(spec)


def test_independence_requires_small_q():
    with pytest.raises(PreconditionError):
        HashFamilySpec.create(2, independence=5)


def test_run_trials_matches_exact_reference():
    # orders well below q: the sampling distribution is light-tailed and
    # the 4-sigma band is meaningful (near order q the moment mass sits on
    # degenerate low-degree seeds of probability ~2^-(w*degree), which no
    # feasible trial count samples)
    spec = HashFamilySpec.create(8, independence=4)
    report = run_trials(spec, trials=2000, master_seed=42, orders=(1, 2),
                        thresholds=(Fraction(1),))
    assert report.se_defined
    for stat in report.moments:
        assert stat.exact is not None
        assert abs(stat.mean - float(stat.exact)) <= 4 * stat.se, stat


def test_run_trials_top_order_underestimates_by_rare_mass():
    # at order q the unseen degenerate classes bias the finite-sample mean
    # low; the constant-seed class alone carries mass 1.0 here, and the
    # exhaustive oracles (not sampling) own the exact identity
    spec = HashFamilySpec.create(8, independence=4)
    report = run_trials(spec, trials=2000, master_seed=42, orders=(4,))
    stat = report.moments[0]
    assert stat.mean <= float(stat.exact)
    assert stat.mean >= float(stat.exact) - 1.1


def test_run_trials_tail_vs_certificate():
    cert = lemma2_certificate(4, 2 ** 8, BellSequence())
    spec = HashFamilySpec.create(8, independence=4)
    report = run_trials(spec, trials=2000, master_seed=11, orders=(1,),
                        thresholds=(cert.threshold.lo,))
    tail = report.tails[0]
    assert tail.frequency >= float(cert.probability) - 3 * tail.se


def test_run_trials_single_trial_flags_se():
    spec = HashFamilySpec.create(4, independence=2)
    report = run_trials(spec, trials=1, master_seed=0)
    assert not report.se_defined
    assert report.moments[0].se is None


def test_run_trials_determinism_across_threads():
    spec = HashFamilySpec.create(6, independence=4)
    kwargs = dict(trials=4500, master_seed=99, orders=(1, 2),
                  thresholds=(Fraction(1), Fraction(3, 2)))
    a = run_trials(spec, threads=1, **kwargs)
    b = run_trials(spec, threads=4, **kwargs)
    assert a == b


def test_independent_oracle_determinism_across_threads():
    # 2500 trials of 4096 balls: several thread-pool chunks of eight batches
    kwargs = dict(orders=(1, 2), trials=2500, master_seed=31,
                  thresholds=(Fraction(1), Fraction(3)))
    a = independent_oracle(4096, 4096, threads=1, **kwargs)
    b = independent_oracle(4096, 4096, threads=2, **kwargs)
    assert a == b


# (bound, size): q = 8 coefficients of GF(2^13), and 1001 balls in 3 or
# 4097 bins, which draw through the rejection path of bounds that are not
# powers of two and leave a buffered uint32 behind
_DRAW_SHAPES = [(1 << 13, 8), (3, 1001), (4097, 1001)]


@pytest.mark.parametrize("master_seed", [0, 7, (1 << 128) - 1],
                         ids=["0", "7", "2^128-1"])
def test_trial_rngs_match_fresh_generators(master_seed):
    for bound, size in _DRAW_SHAPES:
        for t in [0, 1, 2047, 2048, (1 << 64) + 3]:
            # t alone, and t re-keyed after its predecessor's draws
            for b0 in {t, max(t - 1, 0)}:
                *_, got = [
                    rng.integers(0, bound, size=size, dtype=np.int64)
                    for rng in hashsim._trial_rngs(master_seed, b0, t + 1)]
                fresh = np.random.Generator(
                    np.random.Philox(key=master_seed, counter=t << 128))
                want = fresh.integers(0, bound, size=size, dtype=np.int64)
                assert np.array_equal(got, want), (bound, t, b0)


_DRAW_KEYS = [0, 7, (1 << 64) - 1, 1 << 64, (1 << 128) - 1]
# each t, alone and inside chunks that start before it
_DRAW_CHUNKS = [(t0, t + 1 + extra)
                for t in [0, 1, 2047, 2048, (1 << 22) - 1]
                for t0 in {t, max(t - 1, 0), max(t - 5, 0)}
                for extra in (0, 2)]


@pytest.mark.parametrize("key", _DRAW_KEYS,
                         ids=["0", "7", "2^64-1", "2^64", "2^128-1"])
def test_seed_coefficients_match_fresh_generators(key):
    # q crosses the half-word (odd q) and the 8-draw block boundaries
    for w in range(1, 17):
        qs = [1, 2, 3, 7, 8, 9, 16, 17] + ([1 << w] if w <= 8 else [])
        for q in qs:
            for t0, t1 in _DRAW_CHUNKS:
                got = hashsim._seed_coefficients(key, t0, t1, w, q)
                assert got.dtype == np.int64 and got.shape == (q, t1 - t0)
                for t in range(t0, t1):
                    fresh = np.random.Generator(
                        np.random.Philox(key=key, counter=t << 128))
                    want = fresh.integers(0, 1 << w, size=q, dtype=np.int64)
                    assert np.array_equal(got[:, t - t0], want), (w, q, t0, t)


@pytest.mark.parametrize("budget, w, q, trials", [
    (hashsim.BLOCK_ELEMS, 3, 8, 40_000),  # 8-ball rows: the draw caps chunks
    (1 << 6, 5, 17, 20),                  # one row's draw > budget / 8
], ids=["small-rows", "large-draw"])
def test_chunk_seed_draw_fits_a_block(monkeypatch, budget, w, q, trials):
    # the draw of a chunk, q coefficients and at least four Philox words
    # per trial, holds at most BLOCK_ELEMS elements
    monkeypatch.setattr(hashsim, "BLOCK_ELEMS", budget)
    chunks = []
    draw = hashsim._seed_coefficients

    def recording(master_seed, t0, t1, w, q):
        chunks.append(t1 - t0)
        return draw(master_seed, t0, t1, w, q)

    monkeypatch.setattr(hashsim, "_seed_coefficients", recording)
    run_trials(HashFamilySpec.create(w, independence=q), trials=trials,
               master_seed=1, orders=(1,))
    assert sum(chunks) == trials
    assert max(chunks) * max(q, 4) <= budget


# Runs the GF(2^w) simulator in a fresh interpreter: the library calls and
# the CLI's mc and exact modes, then prints whether numpy alone loads
# numpy.random and whether it is loaded at the end.
_RANDOM_PROBE = """
import contextlib, io, sys
import numpy
alone = "numpy.random" in sys.modules
from condbound import HashFamilySpec, exact_small_oracle, run_trials
from condbound.cli import dispatch
run_trials(HashFamilySpec.create(11, 3), trials=1100, master_seed=3)
exact_small_oracle(HashFamilySpec.create(3, 4, output_bits=2))
with contextlib.redirect_stdout(io.StringIO()):
    for mode in ("mc", "exact"):
        assert dispatch(["simulate", "--mode", mode, "--w", "4", "--q", "3",
                         "--trials", "20", "--threads", "2"]) == 0
print(alone, "numpy.random" in sys.modules)
"""


def test_gf_simulator_leaves_numpy_random_unloaded():
    src = str(Path(hashsim.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", _RANDOM_PROBE],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src},
                          timeout=120, check=True)
    alone, loaded = proc.stdout.split()
    if alone == "True":
        pytest.skip("this numpy loads numpy.random on import")
    assert loaded == "False"


@st.composite
def load_matrices(draw):
    """(loads, M): rows of N bin loads that each sum to M balls."""
    M = draw(st.one_of(st.integers(1, 300), st.sampled_from(
        [1 << 13, (1 << 13) + 1, 94906265, 94906266, 1 << 40])))
    N = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        cuts = sorted(draw(st.lists(st.integers(0, M), min_size=N - 1,
                                    max_size=N - 1)))
        rows.append(np.diff([0, *cuts, M]))
    return np.array(rows, dtype=np.int64), M


# 2^53 lies between M^4 and M^5 at M = 2^13, and between M^2 and M^3 at
# M = 94906265 (at 94906266, M^2 is past it): both branches of
# _trial_moment run at one M
@settings(max_examples=300, deadline=None)
@given(load_matrices(), st.integers(1, 8), st.integers(0, 40))
@example((np.array([[1 << 13, 0, 0]], dtype=np.int64), 1 << 13), 5, 0)
@example((np.array([[94906266, 0], [94906265, 1]], dtype=np.int64),
          94906266), 2, 1)
def test_trial_statistics_match_float_pass(case, order, threshold):
    loads, M = case
    want = np.mean(loads.astype(np.float64) ** order, axis=1)
    got = np.broadcast_to(hashsim._trial_moment(loads, M, order), want.shape)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    want = np.mean(loads >= threshold, axis=1)
    got = hashsim._trial_tail(loads, threshold)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def _block_sensitive_runs():
    """Every simulator loop at shapes whose blocks split differently under
    the default budget, one trial (seed) per block, and an odd budget."""
    stats = dict(orders=(1, 2, 3),
                 thresholds=(Fraction(2), Fraction(9, 2)))
    truncated = HashFamilySpec.create(7, independence=3, output_bits=4)
    return {
        "mc-output-bits": run_trials(truncated, trials=300, master_seed=13,
                                     **stats),
        "mc-balls": run_trials(
            HashFamilySpec.create(8, independence=4), trials=300,
            master_seed=14, balls=100, threads=2, **stats),
        **{f"independent-threads-{threads}": independent_oracle(
            200, 50, (1, 2, 3), 400, 15, thresholds=stats["thresholds"],
            threads=threads) for threads in (1, 2)},
        "exact": exact_small_oracle(HashFamilySpec.create(4, independence=3)),
        "exact-output-bits": exact_small_oracle(
            HashFamilySpec.create(3, independence=4, output_bits=2)),
    }


@pytest.mark.parametrize("budget", [1 << 7, 3000])
def test_reports_do_not_depend_on_block_size(monkeypatch, budget):
    # 1 << 7 puts one trial in each batch (M or N >= 128 at every Monte
    # Carlo shape); 3000 leaves a partial last block in every loop
    want = _block_sensitive_runs()
    monkeypatch.setattr(hashsim, "BLOCK_ELEMS", budget)
    got = _block_sensitive_runs()
    for name, report in want.items():
        for field in report._fields:
            assert (getattr(got[name], field)
                    == getattr(report, field)), (name, field)


# tracemalloc sees numpy's buffers; with BLOCK_ELEMS-element blocks each
# call peaks at 1.5-7.6 MiB (23-32 MiB with 2^20-2^22-element blocks)
@pytest.mark.parametrize("call", [
    lambda: run_trials(HashFamilySpec.create(12, independence=4), trials=512,
                       master_seed=7, threads=1),
    lambda: independent_oracle(4096, 4096, (1, 2), 512, 7, thresholds=(1,)),
    lambda: exact_small_oracle(HashFamilySpec.create(5, independence=4)),
], ids=["run_trials", "independent_oracle", "exact_small_oracle"])
def test_simulator_peak_memory_bounded(call):
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20, peak


@pytest.mark.parametrize("seed", [-1, 1 << 128], ids=["-1", "2^128"])
def test_master_seed_outside_philox_key_range(seed):
    spec = HashFamilySpec.create(4, independence=2)
    with pytest.raises(PreconditionError, match="master seed"):
        run_trials(spec, trials=3, master_seed=seed)
    for M, N in [(40, 4), (3, 3)]:          # Monte Carlo and exhaustive
        with pytest.raises(PreconditionError, match="master seed"):
            independent_oracle(M, N, orders=(1,), trials=3, master_seed=seed)


def test_moment_orders_capped_by_independence():
    spec = HashFamilySpec.create(6, independence=2)
    with pytest.raises(PreconditionError):
        run_trials(spec, trials=10, master_seed=0, orders=(3,))


def test_moment_order_below_one_rejected_by_config():
    # checked before any trial runs, like the order above q
    spec = HashFamilySpec.create(12, independence=4)
    with pytest.raises(PreconditionError, match="moment order"):
        run_trials(spec, trials=10, master_seed=0, orders=(0,))


def test_throw_cap():
    spec = HashFamilySpec.create(12, independence=2)
    with pytest.raises(CapacityError):
        run_trials(spec, trials=10 ** 7, master_seed=0)


# one trial's row holds M bins and N loads whatever the block size, so a
# row above 2^24 elements is refused before anything is allocated
@pytest.mark.parametrize("M, N", [((1 << 24) + 1, 3), (40, (1 << 24) + 1)],
                         ids=["balls", "bins"])
def test_independent_row_cap_rejects_before_allocating(M, N):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="row cap"):
            independent_oracle(M, N, orders=(1, 2), trials=1, master_seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_independent_row_holds_three_row_arrays():
    # a 2^20-ball row: the row buffer of the load loop, the draws of one
    # block and a chunk histogram as long as the largest load; no zeroed
    # total waits beside them
    M = 1 << 20
    tracemalloc.start()
    try:
        independent_oracle(M, 3, (1,), 1, 0, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * M, peak


def test_independent_row_cap_holds_one_row():
    # at the row cap the draws go a block at a time straight into the
    # load loop's row, and the histogram runs to the largest load (about M/3
    # here), not to M: a row-sized draw or an (M + 1)-entry histogram
    # beside the row would take the peak past two rows
    M = hashsim.ROW_ELEMS_CAP
    tracemalloc.start()
    try:
        report = independent_oracle(M, 3, (1,), 1, 0, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(count for _, count in report.histogram) == 3
    assert peak < 1.5 * 8 * M, peak


@pytest.mark.parametrize("N", [2, 3, 4096, (1 << 24) - 3, 1 << 24])
def test_sliced_draws_reproduce_the_one_shot_draw(N):
    # the independent sampler draws a row in slices; each slice continues
    # the stream where the last one stopped, buffered uint32 included
    M = 20_000
    [rng] = hashsim._trial_rngs(9, 5, 6)
    whole = rng.integers(0, N, size=M, dtype=np.int64)
    for size in (1, 7, 333, 12345):
        [rng] = hashsim._trial_rngs(9, 5, 6)
        parts = [rng.integers(0, N, size=min(size, M - s), dtype=np.int64)
                 for s in range(0, M, size)]
        assert np.array_equal(np.concatenate(parts), whole), size


def test_exact_references_run_one_stirling_pass(monkeypatch):
    starts = []
    rows = moments._stirling_rows

    def counting(q_max):
        starts.append(q_max)
        return rows(q_max)

    monkeypatch.setattr(moments, "_stirling_rows", counting)
    refs = moments._moment_values(BallsBinsInstance(5, 5, 4), (3, 1, 4, 2))
    assert starts == [4]
    assert refs == {k: raw_moment(BallsBinsInstance(5, 5, 4), k).value
                    for k in (1, 2, 3, 4)}


def test_independent_oracle_exhaustive():
    report = independent_oracle(3, 3, orders=(1, 2), trials=10, master_seed=0)
    assert report.config_echo["mode"] == "independent-exhaustive"
    m2 = next(m for m in report.moments if m.order == 2)
    assert m2.mean == float(Fraction(5, 3))
    assert m2.exact == Fraction(5, 3)
    assert assignment_moment(3, 3, 2) == Fraction(5, 3)


@pytest.mark.parametrize("M, N", [(1, 1), (4, 1), (1, 7), (3, 3), (5, 6),
                                  (5, 16)])
def test_independent_exhaustive_histogram_matches_enumeration(M, N):
    report = independent_oracle(M, N, orders=(1, 2), trials=3, master_seed=0)
    assert report.config_echo["assignments"] == N ** M
    want = assignment_bin0_histogram(M, N)
    assert report.histogram == tuple((s, c) for s, c in enumerate(want) if c)


@pytest.mark.parametrize("M, N, mode", [
    (5, 16, "independent-exhaustive"),       # N^M = 2^20
    (3, 102, "independent-monte-carlo"),     # N^M = 1061208
])
def test_independent_oracle_mode_boundary(M, N, mode):
    report = independent_oracle(M, N, orders=(1,), trials=3, master_seed=0)
    assert report.config_echo["mode"] == mode


def test_independent_oracle_degenerate():
    report = independent_oracle(1, 1, orders=(1, 2, 3), trials=5,
                                master_seed=0)
    for stat in report.moments:
        assert stat.mean == 1.0


def test_independent_oracle_monte_carlo():
    report = independent_oracle(64, 64, orders=(1, 2, 4), trials=3000,
                                master_seed=5)
    for stat in report.moments:
        assert stat.exact is not None
        assert abs(stat.mean - float(stat.exact)) <= 4 * (stat.se or 1e9)


def _kernel_values_checked(spec, split, rng):
    w, q = spec.field_bits, spec.independence
    coeffs = rng.integers(0, 1 << w, size=(q, 6), dtype=np.int64)
    coeffs[:, 0] = 0                     # zero polynomial
    coeffs[:, 1] = (1 << w) - 1          # every coefficient all ones
    values = split.evaluate(coeffs[1:], 6)
    assert values.dtype == np.uint16 and values.shape == (6, 1 << w)
    if w <= 8:
        points = range(1 << w)
    else:
        points = [0, 1, (1 << w) - 1,
                  *(int(x) for x in rng.integers(0, 1 << w, size=40))]
    for s in range(coeffs.shape[1]):
        # evaluate takes the constant coefficient as 0
        seed = [0, *(int(c) for c in coeffs[1:, s])]
        for x in points:
            assert values[s, x] == evaluate_hash(spec, seed, x), (s, x)
    return values


@pytest.mark.parametrize("w, q", [(2, 4), (3, 5), (5, 7), (8, 6), (13, 8),
                                  (16, 5)])
def test_split_table_kernel_matches_scalar_horner(w, q):
    spec = HashFamilySpec.create(w, independence=q)
    split = hashsim._SplitTables(spec, 1 << w)
    # w = 16 has room for two positions only: the x^span fold runs once
    assert (split.span < q - 1) == (w == 16)
    # exp/log tables are built for the fold only
    assert hasattr(split, "log") == (split.span < q - 1)
    assert split.rows.nbytes <= hashsim.TABLE_BYTES
    _kernel_values_checked(spec, split, np.random.default_rng(1000 + w))


@pytest.mark.parametrize("span", [1, 2, 3])
def test_split_table_fold_matches_full_tables(monkeypatch, span):
    # w = 5 (two nibbles, the top one partial), q = 7: the budget of `span`
    # positions makes the x^span fold run over 6 / span blocks
    spec = HashFamilySpec.create(5, independence=7)
    full = _kernel_values_checked(spec, hashsim._SplitTables(spec, 32),
                                  np.random.default_rng(5))
    monkeypatch.setattr(hashsim, "TABLE_BYTES", span * 2 * 16 * 32 * 2)
    split = hashsim._SplitTables(spec, 32)
    assert split.span == span
    folded = _kernel_values_checked(spec, split, np.random.default_rng(5))
    assert np.array_equal(folded, full)


class _RowReads(np.ndarray):
    """Split-table rows that record the position index of every read."""

    def __getitem__(self, key):
        self.reads.add(key[0] if isinstance(key, tuple) else key)
        return self.view(np.ndarray)[key]


# (w, q) of a Monte Carlo and an exhaustive run, at full tables and at a
# TABLE_BYTES of two positions at w = 5, where the x^span fold runs
@pytest.mark.parametrize("table_bytes, shapes", [
    (None, [(8, 4), (4, 3)]),
    (2 * 2 * 16 * 32 * 2, [(5, 7), (5, 4)]),
], ids=["span>=q-1", "fold"])
def test_every_table_row_is_read(monkeypatch, table_bytes, shapes):
    # the tables hold c_1..c_(q-1) only, so evaluate gathers from every
    # row that they build
    tables = []

    class Recorded(hashsim._SplitTables):
        def __init__(self, *args):
            super().__init__(*args)
            self.rows = self.rows.view(_RowReads)
            self.rows.reads = set()
            tables.append(self)

    monkeypatch.setattr(hashsim, "_SplitTables", Recorded)
    if table_bytes:
        monkeypatch.setattr(hashsim, "TABLE_BYTES", table_bytes)
    run_trials(HashFamilySpec.create(*shapes[0]), trials=50, master_seed=3)
    exact_small_oracle(HashFamilySpec.create(*shapes[1]))
    assert len(tables) == 2
    for table, (_, q) in zip(tables, shapes):
        assert (table.span < q - 1) == bool(table_bytes)
        assert table.rows.reads == set(range(table.span)), table.span


# (w, q, trials) of the largest tier-1 and benchmark runs, and the largest
# run at w = 16, q = 8192 that KERNEL_PASS_CAP admits with each x^span fold
# counted as 32 passes: one full batch, 163836 passes; a second takes 327640
_ADMITTED = [(13, 8, 100_000), (12, 4, 5000), (13, 8, 2000), (16, 8192, 4)]


@pytest.mark.parametrize("w, q, trials, admitted", [
    *((w, q, t, True) for w, q, t in _ADMITTED),
    (16, 8192, 5, False),
], ids=["criterion-4", "bench-w12", "bench-w13", "at-cap", "past-cap"])
def test_kernel_pass_cap_checked_before_any_table(monkeypatch, w, q, trials,
                                                  admitted):
    class Built(Exception):
        pass

    def built(*args):
        raise Built

    monkeypatch.setattr(hashsim, "_SplitTables", built)
    spec = HashFamilySpec.create(w, independence=q)
    with pytest.raises(Built if admitted else CapacityError,
                       match=None if admitted else "kernel pass cap"):
        run_trials(spec, trials, master_seed=0, orders=(1,))


@pytest.mark.parametrize("w, q, output_bits, balls, trials", [
    (6, 1, 6, None, 30),       # q = 1: every ball in the bin of c_0
    (9, 4, 3, None, 200),      # output bits below w
    (10, 3, 10, 300, 200),     # balls below 2^w
    (16, 5, 16, None, 6),      # the x^span fold runs
], ids=["q1", "output-bits", "balls", "fold"])
def test_run_trials_matches_reference_with_constant(w, q, output_bits, balls,
                                                    trials):
    # the simulator drops c_0, which only permutes each trial's bins; the
    # reference hashes with c_0 and every statistic agrees bit for bit
    # (each trial's sums of S^order are exact integers here)
    spec = HashFamilySpec.create(w, independence=q, output_bits=output_bits)
    orders = tuple(range(1, q + 1))
    thresholds = (Fraction(1), Fraction(5, 2))
    report = run_trials(spec, trials, master_seed=21, orders=orders,
                        thresholds=thresholds, balls=balls, threads=2)
    loads = polynomial_trial_loads(w, q, output_bits, spec.modulus, 21,
                                   trials, balls or 1 << w)

    def mean_se(col):
        return np.mean(col), np.std(col, ddof=1) / math.sqrt(trials)

    assert [(m.mean, m.se) for m in report.moments] == [
        mean_se(np.mean(loads.astype(np.float64) ** order, axis=1))
        for order in orders]
    assert [(t.frequency, t.se) for t in report.tails] == [
        mean_se(np.mean(loads >= thr, axis=1)) for thr in (1, 3)]
    hist = np.bincount(loads.ravel())
    assert report.histogram == tuple((s, int(c)) for s, c in enumerate(hist)
                                     if c)


# bin-0 load counts over every seed, recorded with the exp/log Horner
# evaluation that the split tables replaced
PINNED_EXACT = [
    (3, 4, 3, {0: 1379, 1: 1736, 2: 588, 3: 392, 8: 1}),
    (3, 3, 1, {0: 32, 4: 448, 8: 32}),
    (4, 5, 4, {0: 375915, 1: 384960, 2: 226800, 3: 33600, 4: 27300,
               16: 1}),
    (4, 5, 2, {0: 11072, 1: 66560, 2: 92160, 3: 286720, 4: 197120,
               5: 215040, 6: 71680, 7: 81920, 8: 21120, 9: 5120, 16: 64}),
    (4, 3, 3, {0: 854, 2: 2400, 4: 840, 16: 2}),
    (5, 4, 5, {0: 353679, 1: 495008, 2: 46128, 3: 153760, 32: 1}),
    (5, 3, 2, {0: 1512, 8: 29760, 16: 1488, 32: 8}),
]


@pytest.mark.parametrize("w, q, output_bits, counts", PINNED_EXACT,
                         ids=[f"w{w}-q{q}-m{m}" for w, q, m, _ in PINNED_EXACT])
def test_exact_oracle_pinned_distributions(w, q, output_bits, counts):
    spec = HashFamilySpec.create(w, independence=q, output_bits=output_bits)
    dist = exact_small_oracle(spec)
    assert dist.support == {s: Fraction(c, spec.seed_count)
                            for s, c in counts.items()}
