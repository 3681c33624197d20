"""Smoke test of the benchmark's traced runner, ``perfbench/traced_cli.py``.

The runner replaces library functions by tracing wrappers before it
dispatches a command, so an API change in ``condbound`` can break it
without breaking the plain CLI.  These commands cover the Bell table, a
Bell cache written and then read back, the simulator, and the
fully independent reference, which enumerates without the simulator.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import condbound

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    src = str(Path(condbound.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)


def test_traced_runner_prints_what_the_cli_prints(tmp_path):
    commands = [
        ["table", "--qmax", "64", "--what", "bell"],
        ["lemma2", "--q", "8", "--log2m", "11", "--cache-dir",
         str(tmp_path / "traced")],
        ["lemma2", "--q", "8", "--log2m", "11", "--cache-dir",
         str(tmp_path / "traced")],
        ["simulate", "--mode", "exact", "--w", "3", "--q", "4",
         "--threads", "1"],
        # a simulate that never loads hashsim
        ["simulate", "--mode", "independent", "--balls", "3", "--bins", "3",
         "--threads", "1"],
    ]
    spans = []
    for i, argv in enumerate(commands):
        span_path = tmp_path / f"spans{i}.json"
        traced = _run([str(TRACED_CLI), str(span_path), *argv])
        plain_argv = [str(tmp_path / "plain") if a == str(tmp_path / "traced")
                      else a for a in argv]
        plain = _run(["-m", "condbound", *plain_argv])
        assert traced.returncode == plain.returncode == 0, traced.stderr
        assert traced.stdout == plain.stdout and traced.stdout, argv
        trace = json.loads(span_path.read_text())
        spans.append({span[0] for span in trace["spans"]})
    assert "combinat.bell_cache.save" in spans[1]
    assert "combinat.bell_cache.load" not in spans[1]
    assert "combinat.bell_cache.load" in spans[2]
    assert "cli.dispatch" in spans[3]
    assert "cli.dispatch" in spans[4]
