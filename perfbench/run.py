"""condbound benchmark: fixed lists of CLI invocations, each a fresh process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {certify,montecarlo,enumerate} \\
        --seed N --seconds S --trace {0,1}

Every command runs as ``python3 -c <console-script stub> ARG...`` with
``src`` on PYTHONPATH, one at a time (closed loop, one client).  Its exit
code and stdout are checked on every run: against the exit code and sha256
recorded in ``expected.json`` and, for seed-dependent Monte Carlo commands
at any seed other than DEFAULT_SEED, against exact invariants.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median of
several fresh interpreters importing ``condbound.cli``), then passes over
the command list until ``--seconds`` would be exceeded, reporting the
wall time of one pass ``wall_s`` and the largest child peak RSS
``peak_rss_mb``.  The first pass
of every run is followed by a re-run of the seed-dependent commands at
``--threads THREAD_CHECK``, whose stdout must not change.

``--trace 1`` alternates an untraced pass with a traced one, in which each
command runs under ``traced_cli.py`` with ``-X importtime``, and reports
per-layer self times and counts per pass.  Self time is span time minus
the time of its child spans; ``trace.unattributed_s`` is the part of the
traced pass's measured wall time that no layer's self time covers
(interpreter start-up, tracer installation and exit).

Lines before the last one are human-readable notes and the environment
record; the last line is the JSON result.  The exit code is 0 whenever a
result was printed, and 2 when the checkout holds no condbound sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

sys.dont_write_bytecode = True  # keep the benchmark directory clean
import workloads as wl  # noqa: E402

EXPECTED = HERE / "expected.json"
WORK = ROOT / ".perfbench_tmp"
CONSOLE_STUB = "import sys; from condbound.cli import main; sys.exit(main())"
SETUP_SAMPLES = 7
_IMPORTTIME = re.compile(r"^import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)\s*$")


class Proc:
    """One finished child: exit code, stdout, stderr, wall, CPU, peak RSS."""

    def __init__(self, cmd: list[str], env: dict, stderr_path: Path):
        with open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                 cwd=ROOT, env=env)
            self.stdout = p.stdout.read()
            p.stdout.close()
            _, status, usage = os.wait4(p.pid, 0)
            self.wall = time.perf_counter() - t0
        p.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stderr = stderr_path.read_bytes()


def command(argv: list[str], traced_spans: Path | None = None) -> list[str]:
    if traced_spans is None:
        return [sys.executable, "-c", CONSOLE_STUB, *argv]
    return [sys.executable, "-X", "importtime",
            str(HERE / "traced_cli.py"), str(traced_spans), *argv]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CONDBOUND_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.templates = wl.WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.env = child_env()
        self.expected = json.loads(EXPECTED.read_text())[workload]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes = 0

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def check(self, template: list[str], argv: list[str], proc: Proc,
              ) -> str | None:
        """None when the output is correct, else what is wrong with it."""
        want = self.expected[wl.key(template)]
        if proc.code != want["exit"]:
            return f"exit {proc.code}, expected {want['exit']}, stderr " \
                f"{proc.stderr[-300:]!r}"
        if wl.seeded(template):
            wrong = wl.check_monte_carlo(argv, proc.stdout)
            if wrong is not None or self.seed != wl.DEFAULT_SEED:
                return wrong
        if digest(proc.stdout) != want["sha256"]:
            return "stdout differs from the recorded digest"
        return None

    def one_pass(self, traced: bool = False):
        """Run the command list once; returns (procs, span files)."""
        self.passes += 1
        cache = self.work / f"cache{self.passes}"
        if cache.exists():
            raise RuntimeError(f"cache directory {cache} already exists")
        bell_file = cache / "bell_tables.bin"
        procs, spans = [], []
        cache_stamp = None
        for i, template in enumerate(self.templates):
            argv = wl.instantiate(template, str(cache), self.seed)
            span_path = self.work / f"spans{self.passes}_{i}.json" if traced \
                else None
            uses_cache = "{cache}" in template
            if uses_cache and cache_stamp is None and bell_file.exists():
                self.problem(f"{wl.key(template)}: saw a Bell cache it did "
                             "not write")
            proc = Proc(command(argv, span_path), self.env,
                        self.work / "stderr.txt")
            self.attempted += 1
            wrong = self.check(template, argv, proc)
            if wrong is not None:
                self.failed += 1
                self.problem(f"{wl.key(template)}: {wrong}")
            if uses_cache:
                stamp = (bell_file.stat().st_mtime_ns, bell_file.stat().st_size) \
                    if bell_file.exists() else None
                if cache_stamp is None:
                    if stamp is None:
                        self.problem("the first cached command wrote no Bell "
                                     "cache")
                    cache_stamp = stamp
                elif stamp != cache_stamp:
                    self.problem(f"{wl.key(template)}: rewrote the Bell cache "
                                 "instead of loading it")
            procs.append(proc)
            spans.append(span_path)
        shutil.rmtree(cache, ignore_errors=True)
        if self.passes == 1:
            self.thread_check(procs)
        return procs, spans

    def thread_check(self, procs: list[Proc]) -> None:
        """Seed-dependent commands give the same stdout at THREAD_CHECK."""
        for template, proc in zip(self.templates, procs):
            if not wl.seeded(template):
                continue
            argv = wl.instantiate(template, "", self.seed)
            i = argv.index("--threads")
            argv[i + 1] = str(wl.THREAD_CHECK)
            other = Proc(command(argv), self.env, self.work / "stderr.txt")
            if other.code != proc.code or other.stdout != proc.stdout:
                self.problem(f"{wl.key(template)}: stdout differs between "
                             f"--threads {wl.THREADS} and {wl.THREAD_CHECK}")

    def setup_times(self) -> list[float]:
        cmd = [sys.executable, "-c", "import condbound.cli"]
        times = []
        for i in range(SETUP_SAMPLES + 1):  # the first one warms the caches
            proc = Proc(cmd, self.env, self.work / "stderr.txt")
            if proc.code != 0:
                raise RuntimeError("import condbound.cli failed: "
                                   + proc.stderr.decode(errors="replace"))
            if i:
                times.append(proc.wall)
        return times


def pass_stats(procs: list[Proc]) -> tuple[float, float, float]:
    return (sum(p.wall for p in procs), sum(p.cpu for p in procs),
            max(p.rss_mb for p in procs))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_end_to_end(run: Runner, seconds: float) -> dict:
    """wall_s is the sum over commands of each command's median wall time
    across the passes, so one stalled command in one pass does not move
    it; peak_rss_mb is the largest peak RSS of any child."""
    setup = run.setup_times()
    start = time.perf_counter()
    walls: list[list[float]] = []
    rss = 0.0
    while True:
        procs, _ = run.one_pass()
        walls.append([p.wall for p in procs])
        rss = max(rss, *(p.rss_mb for p in procs))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > seconds:
            break
    wall = sum(statistics.median(cmd) for cmd in zip(*walls))
    print(f"note: {len(walls)} passes of " + ", ".join(
        f"{sum(w):.3f}" for w in walls) + " s; setup " + ", ".join(
        f"{s:.4f}" for s in setup) + " s")
    return {"wall_s": metric(wall, "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(rss, "MiB")}


def _import_times(stderr: bytes) -> dict[str, float]:
    cum = {}
    for line in stderr.decode(errors="replace").splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(2) not in cum:
            cum[m.group(2)] = int(m.group(1)) / 1e6
    return cum


def aggregate(procs: list[Proc], span_files: list[Path],
              templates: list[list[str]]) -> tuple[dict, float]:
    """Per-pass sums of span self/inclusive times and counters, plus the
    largest relative gap between root span time and summed self time."""
    acc: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        acc[name] = acc.get(name, 0.0) + value

    worst_gap = 0.0
    for proc, path, template in zip(procs, span_files, templates):
        data = json.loads(path.read_text())
        spans = data["spans"]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        root_total = self_total = 0.0
        names = set()
        for (name, t0, t1, parent, counts), child_s in zip(spans, child):
            own = (t1 - t0) - child_s
            layer = name.split(".", 1)[0]
            add(f"layer.{layer}", own)
            add(f"{name}.self", own)
            add(f"{name}.incl", t1 - t0)
            add(f"{name}.calls", 1)
            add(f"{layer}.calls", 1)
            for cname, cval in (counts or {}).items():
                add(f"{name}.{cname}", cval)
            self_total += own
            if parent < 0:
                root_total += t1 - t0
            names.add(name)
        worst_gap = max(worst_gap, abs(root_total - self_total)
                        / max(root_total, 1e-9))
        add("import.inproc", data["import_s"])
        imports = _import_times(proc.stderr)
        numpy_s = imports.get("numpy", 0.0)
        add("import.numpy", numpy_s)
        add("import.condbound", imports.get("condbound.cli", 0.0) - numpy_s)
        if "{cache}" in template and names & {"combinat.bell_cache.load",
                                              "combinat.bell_cache.save"}:
            add("bell_cache.attempts", 1)
            if ("combinat.bell_cache.load" in names
                    and "combinat.bell_stream" not in names):
                add("bell_cache.hits", 1)
        add("stdout_bytes", len(proc.stdout))
        for hook in data["missing"]:
            add(f"missing.{hook}", 1)
    return acc, worst_gap


def layer_metrics(acc: dict, traced_wall: float, untraced: list[Proc]) -> dict:
    g = lambda name: acc.get(name, 0.0)  # noqa: E731
    s = lambda name: metric(g(name), "s")  # noqa: E731
    n = lambda name: metric(int(round(g(name))), "count")  # noqa: E731
    attributed = g("import.inproc") + sum(
        v for k, v in acc.items() if k.startswith("layer."))
    mul_s = g("gf2.mul_vec.incl")
    trials_s = g("hashsim.run_trials.incl")
    untraced_wall, cpu, rss = pass_stats(untraced)
    return {
        "cli.import_s": s("import.inproc"),
        "cli.import.numpy_s": s("import.numpy"),
        "cli.import.condbound_s": s("import.condbound"),
        "cli.dispatch.self_s": s("layer.cli"),
        "serialize.s": s("layer.serialize"),
        "serialize.stdout_bytes": n("stdout_bytes"),
        "combinat.self_s": s("layer.combinat"),
        "combinat.bell_stream.s": s("combinat.bell_stream.incl"),
        "combinat.bell_stream.calls": n("combinat.bell_stream.calls"),
        "combinat.bell_stream.q_sum": n("combinat.bell_stream.q_sum"),
        "combinat.stirling_build.s": s("combinat.stirling_build.incl"),
        "combinat.stirling_build.calls": n("combinat.stirling_build.calls"),
        "combinat.bell_cache.save_s": s("combinat.bell_cache.save.incl"),
        "combinat.bell_cache.load_s": s("combinat.bell_cache.load.incl"),
        "combinat.bell_cache.bytes": metric(
            int(g("combinat.bell_cache.save.bytes")
                + g("combinat.bell_cache.load.bytes")), "count"),
        "combinat.bell_cache.hits": n("bell_cache.hits"),
        "combinat.bell_cache.attempts": n("bell_cache.attempts"),
        "intervals.self_s": s("layer.intervals"),
        "intervals.ln.s": s("intervals.ln.incl"),
        "intervals.ln.calls": n("intervals.ln.calls"),
        "intervals.log2.s": s("intervals.log2.incl"),
        "intervals.log2.calls": n("intervals.log2.calls"),
        "intervals.nth_root.s": s("intervals.nth_root.incl"),
        "intervals.nth_root.calls": n("intervals.nth_root.calls"),
        "intervals.nth_root.operand_bits":
            n("intervals.nth_root.operand_bits"),
        "asymptotic.self_s": s("layer.asymptotic"),
        "asymptotic.estimate_residual.calls":
            n("asymptotic.estimate_residual.calls"),
        "moments.self_s": s("layer.moments"),
        "moments.raw_moment.s": s("moments.raw_moment.incl"),
        "moments.raw_moment.calls": n("moments.raw_moment.calls"),
        "anticonc.self_s": s("layer.anticonc"),
        "anticonc.calls": n("anticonc.calls"),
        "condenser.self_s": s("layer.condenser"),
        "condenser.minq.s": s("condenser.minq.incl"),
        "condenser.minq.calls": n("condenser.minq.calls"),
        "gf2.self_s": s("layer.gf2"),
        "gf2.mul_vec.s": s("gf2.mul_vec.incl"),
        "gf2.mul_vec.calls": n("gf2.mul_vec.calls"),
        "gf2.mul_vec.elems": n("gf2.mul_vec.elems"),
        "gf2.mul_vec.bytes_computed": n("gf2.mul_vec.bytes_computed"),
        "gf2.mul_vec.elems_per_s": metric(
            g("gf2.mul_vec.elems") / mul_s if mul_s else 0.0, "1/s"),
        "gf2.tables.s": s("gf2.tables.incl"),
        "hashsim.self_s": s("layer.hashsim"),
        "hashsim.run_trials.self_s": s("hashsim.run_trials.self"),
        "hashsim.run_trials.trials": n("hashsim.run_trials.trials"),
        "hashsim.run_trials.trials_per_s": metric(
            g("hashsim.run_trials.trials") / trials_s if trials_s else 0.0,
            "1/s"),
        "hashsim.independent_oracle.self_s":
            s("hashsim.independent_oracle.self"),
        "hashsim.exact_small_oracle.self_s":
            s("hashsim.exact_small_oracle.self"),
        "hashsim.exact_small_oracle.seeds":
            n("hashsim.exact_small_oracle.seeds"),
        "hashsim.exhaustive_assignment.s":
            s("hashsim.exhaustive_assignment.incl"),
        "process.cpu_s": metric(cpu, "s"),
        "process.peak_rss_mb": metric(rss, "MiB"),
        "trace.total_s": metric(traced_wall, "s"),
        "trace.unattributed_s": metric(traced_wall - attributed, "s"),
        "trace.overhead_frac": metric(traced_wall / untraced_wall - 1,
                                      "ratio"),
    }


def measure_layers(run: Runner, seconds: float) -> dict:
    """Alternate untraced and traced passes; report the median pair."""
    start = time.perf_counter()
    results, pair_times = [], []
    while True:
        t0 = time.perf_counter()
        untraced, _ = run.one_pass()
        traced, span_files = run.one_pass(traced=True)
        for a, b, template in zip(untraced, traced, run.templates):
            if a.stdout != b.stdout or a.code != b.code:
                run.problem(f"{wl.key(template)}: traced stdout differs")
        acc, gap = aggregate(traced, span_files, run.templates)
        if gap > 1e-6:
            run.problem(f"span self times miss their roots by {gap:.2e}")
        cached = sum("{cache}" in t for t in run.templates)
        if acc.get("bell_cache.hits", 0) < max(0, cached - 1):
            run.problem("a cached command did not load the Bell cache")
        missing = sorted(k for k in acc if k.startswith("missing."))
        if missing:
            print("note: hooks not found: " + ", ".join(missing))
        traced_wall = pass_stats(traced)[0]
        metrics = layer_metrics(acc, traced_wall, untraced)
        if metrics["trace.unattributed_s"]["value"] < 0:
            run.problem("layer self times exceed the traced wall time")
        results.append(metrics)
        pair_times.append(time.perf_counter() - t0)
        for path in span_files:
            path.unlink()
        if time.perf_counter() - start + statistics.median(pair_times) \
                > seconds:
            break
    print(f"note: {len(results)} traced/untraced pass pairs")
    out = {}
    for name, first in results[0].items():
        values = [r[name]["value"] for r in results]
        value = statistics.median(values)
        if first["unit"] == "count":
            value = int(value)
        out[name] = metric(value, first["unit"])
    return out


def environment(seed: int) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c",
         "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, env=child_env(), cwd=ROOT)
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if (index / "type").read_text().strip() != "Instruction":
                caches[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.exists() \
                else None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode())
        sources.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "threads": wl.THREADS,
        "thread_check": wl.THREAD_CHECK,
        "cpu_model": model,
        "l2_size": caches.get("l2"),
        "l3_size": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": probe.stdout.strip() or None,
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
        "workload_seed": seed,
    }


def record_expected() -> None:
    """Write expected.json from the program at hand (DEFAULT_SEED)."""
    out = {}
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        for name in wl.WORKLOADS:
            cache = work / f"record_{name}"
            out[name] = {}
            for template in wl.WORKLOADS[name]:
                argv = wl.instantiate(template, str(cache), wl.DEFAULT_SEED)
                proc = Proc(command(argv), child_env(), work / "stderr.txt")
                out[name][wl.key(template)] = {"exit": proc.code,
                                               "sha256": digest(proc.stdout)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true",
                    help="rewrite expected.json from this checkout")
    args = ap.parse_args()
    if not (ROOT / "src" / "condbound" / "cli.py").is_file():
        print(f"error: no condbound sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.record_expected:
        record_expected()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    seed = args.seed % (1 << 64)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        print("env: " + json.dumps(environment(args.seed), sort_keys=True))
        run = Runner(args.workload, seed, work)
        if args.trace:
            metrics = measure_layers(run, args.seconds)
        else:
            metrics = measure_end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for text in run.problems:
        print(f"problem: {text}")
    print(f"failed_frac: {run.failed}/{run.attempted} invocations = "
          f"{run.failed / run.attempted:.4f}")
    for name, m in metrics.items():
        print(f"metric: {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": not run.problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
