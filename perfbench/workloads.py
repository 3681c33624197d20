"""Command lists of the benchmark workloads and the checks on their output.

Each command is a list of CLI arguments for ``condbound``.  Two
placeholders are filled in per pass: ``{cache}`` is a fresh Bell-table
cache directory and ``{seed}`` is the workload seed (``--master-seed``).
The string form of the template is the key under which the expected exit
code and stdout digest are stored in ``expected.json``.
"""

from __future__ import annotations

import json

# Workload seed for which the digests of seed-dependent commands are
# recorded; for any other seed those commands are checked by invariants.
DEFAULT_SEED = 7

# Worker threads pinned on every simulate command.  One thread keeps the
# spans of the traced pass on one stack and the timings independent of how
# many cores a neighbour is using; THREAD_CHECK is the count whose stdout
# must equal the pinned one.
THREADS = 1
THREAD_CHECK = 2

# tau_lo of `condbound lemma2 --q 8 --log2m 13`, the threshold acceptance
# criterion 4 uses at its largest shape.
TAU_Q8_M2_13 = ("113938817816641641532198775969598237694196524053652890705"
                "346585717868141462315/2^256")

_T = ["--threads", str(THREADS)]

WORKLOADS: dict[str, list[list[str]]] = {
    # Exact arithmetic: the README commands except simulate, plus the
    # baseline sweep at q_max 2048, which writes the Bell cache that the
    # later minq command reads back.
    "certify": [
        ["condense", "sweep", "--log2eps", "64,128,256,512", "--k", "64",
         "--qmax", "2048", "--cache-dir", "{cache}"],
        ["table", "--qmax", "8"],
        ["table", "--qmax", "64", "--what", "bell"],
        ["moment", "--balls", "4", "--bins", "4", "--q", "3"],
        ["lemma2", "--q", "4", "--log2m", "11"],
        ["pz", "--q", "4", "--log2m", "10", "--theta", "1/4"],
        ["asymptotics", "--qmin", "8", "--qmax", "1024"],
        ["condense", "check", "--q", "64", "--k", "43"],
        ["condense", "check", "--q", "64", "--k", "43", "--loss", "2.6",
         "--log2eps", "43"],
        ["condense", "minq", "--log2eps", "128", "--k", "64", "--loss", "1"],
        ["condense", "minq", "--log2eps", "128", "--k", "64", "--loss", "1",
         "--cache-dir", "{cache}"],
        ["condense", "sweep", "--log2eps", "64,128,256,512", "--k", "64"],
    ],
    # Monte Carlo over seeds of the GF(2^w) family at the README shape and
    # at criterion 4's largest shape, plus the fully independent sampler
    # that shares the batch/bincount/reduce loop.
    "montecarlo": [
        ["simulate", "--w", "12", "--q", "4", "--trials", "5000",
         "--orders", "1,2", "--thresholds", "1", "--master-seed", "{seed}",
         *_T],
        ["simulate", "--w", "13", "--q", "8", "--trials", "2000",
         "--orders", "1", "--thresholds", TAU_Q8_M2_13,
         "--master-seed", "{seed}", *_T],
        ["simulate", "--mode", "independent", "--balls", "4096", "--bins",
         "4096", "--trials", "5000", "--orders", "1,2", "--thresholds", "1",
         "--master-seed", "{seed}", *_T],
    ],
    # Exhaustive oracles: every seed of the family (2^20 seeds at the
    # larger shapes) and every assignment of 5 balls to 16 bins.
    "enumerate": [
        ["simulate", "--mode", "exact", "--w", "3", "--q", "4",
         "--orders", "1,2,3,4", *_T],
        ["simulate", "--mode", "independent", "--balls", "3", "--bins", "3",
         "--orders", "2", *_T],
        ["simulate", "--mode", "exact", "--w", "4", "--q", "5", *_T],
        ["simulate", "--mode", "exact", "--w", "5", "--q", "4", *_T],
        ["simulate", "--mode", "exact", "--w", "4", "--q", "5",
         "--output-bits", "2", *_T],
        ["simulate", "--mode", "independent", "--balls", "5", "--bins", "16",
         *_T],
    ],
}


def key(template: list[str]) -> str:
    return " ".join(template)


def instantiate(template: list[str], cache: str, seed: int) -> list[str]:
    return [a.replace("{cache}", cache).replace("{seed}", str(seed))
            for a in template]


def _opt(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def seeded(template: list[str]) -> bool:
    return "{seed}" in template


def check_monte_carlo(argv: list[str], stdout: bytes) -> str | None:
    """Invariants of a simulate report that hold exactly for every seed.

    Returns None when they hold, else the first one that failed.
    """
    try:
        env = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    res, params = env.get("result", {}), env.get("parameters", {})
    cfg = res.get("config", {})
    trials = int(_opt(argv, "--trials"))
    seed = int(_opt(argv, "--master-seed"))
    if _opt(argv, "--mode") == "independent":
        balls = int(_opt(argv, "--balls"))
        bins = int(_opt(argv, "--bins"))
        want = {"mode": "independent-monte-carlo", "balls": balls,
                "bins": bins, "trials": trials, "master_seed": seed}
    else:
        w, q = int(_opt(argv, "--w")), int(_opt(argv, "--q"))
        out_bits = int(_opt(argv, "--output-bits", w))
        balls, bins = 1 << w, 1 << out_bits
        want = {"mode": "monte-carlo", "field_bits": w, "degree": q - 1,
                "output_bits": out_bits, "balls": balls, "bins": bins,
                "trials": trials, "master_seed": seed}
    for name, value in want.items():
        if cfg.get(name) != value:
            return f"config echo {name}={cfg.get(name)!r}, expected {value!r}"
    if params.get("master_seed") != seed or params.get("trials") != trials:
        return "parameter echo does not match the inputs"
    if res.get("trials") != trials:
        return "trial count does not match the inputs"
    if sum(c for _, c in res.get("histogram", [])) != trials * bins:
        return "histogram counts do not sum to trials * bins"
    orders = [int(t) for t in _opt(argv, "--orders").split(",")]
    means = {m["order"]: m["mean"] for m in res.get("moments", [])}
    if sorted(means) != sorted(orders):
        return "moment orders do not match the inputs"
    if 1 in means and means[1] != balls / bins:
        return f"order-1 mean {means[1]!r} != M/N = {balls / bins!r}"
    thresholds = [t["threshold"] for t in res.get("tails", [])]
    if thresholds != _opt(argv, "--thresholds").split(","):
        return "tail thresholds do not match the inputs"
    return None
