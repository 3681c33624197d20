import contextlib
import hashlib
import io
import json
import os
import signal
import struct
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import condbound
from condbound import anticonc, cli, combinat, condenser, hashsim, serialize
from condbound.anticonc import lemma2_certificate
from condbound.cli import LOG2_SIZE_CAP, build_parser, dispatch
from condbound.combinat import DEFAULT_QMAX_CAP, BellSequence
from condbound.intervals import parse_dyadic
from condbound.serialize import flatten, parse_rational

from conftest import traced_peak


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_moment_worked_example(capsys):
    env = run_json(capsys, "moment", "--balls", "4", "--bins", "4", "--q", "3")
    assert env["tool"] == "condbound"
    assert env["subcommand"] == "moment"
    assert env["result"]["value"] == {"num": "29", "den": "8"}


def test_table_qmax_zero_single_cell(capsys):
    code, out = run_cli(capsys, "table", "--qmax", "0")
    assert code == 0
    assert out == "1\n"


def test_table_bell_csv(capsys):
    code, out = run_cli(capsys, "table", "--qmax", "4", "--what", "bell")
    assert code == 0
    assert out.splitlines()[0] == "q,bell"
    assert out.splitlines()[5] == "4,15"


def test_table_bell_builds_no_stirling_triangle(capsys, monkeypatch,
                                                bells1024):
    def refuse(q_max):
        raise AssertionError("the Bell table built Stirling rows")

    for module in (combinat, serialize):
        monkeypatch.setattr(module, "_stirling_rows", refuse)
    code, out = run_cli(capsys, "table", "--qmax", "1024", "--what", "bell")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1026
    assert lines[-1] == f"1024,{bells1024.bell(1024)}"


class _CountingSink(io.TextIOBase):
    """A text stream that keeps only the number of characters written."""

    chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_streams_its_rows(fmt):
    # built in memory, the triangle at q_max 256 peaked at 16.9 MiB as CSV
    # and 19.4 MiB as JSON; written row by row it stays under 4 MiB, less
    # than the text it writes
    sink = _CountingSink()
    with contextlib.redirect_stdout(sink):
        code, peak = traced_peak(
            lambda: dispatch(["table", "--qmax", "256", "--format", fmt]))
    assert code == 0
    assert peak < 4 << 20, peak
    assert sink.chars > 4 << 20


class _RecordingSink(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return super().write(text)


def test_write_json_batches_by_characters():
    # numbers of hundreds of digits: 4096 encoder chunks made a 1 MiB write
    env = serialize.envelope("table", {},
                             serialize.table_dict(300, "stirling"))
    chunks = list(serialize._JSON.iterencode(env))
    sink = _RecordingSink()
    serialize.write_json(env, sink)
    assert sink.getvalue() == json.dumps(env, indent=2,
                                         sort_keys=True) + "\n"
    assert len(sink.writes) > 2
    longest = max(map(len, chunks))
    assert max(sink.writes) < serialize._JSON_BATCH_CHARS + longest


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["moment", "--balls", "4"])
    assert exc.value.code == 2


def test_precondition_error_exit_code(capsys):
    code = dispatch(["moment", "--balls", "4", "--bins", "4", "--q", "2",
                     "--order", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "independence" in err


def test_strict_vacuous_exit_code(capsys):
    # at q^2 = 2M (q = 64, M = 2^11) p is exactly 0; past it p < 0
    for q, log2m in [("4", "3"), ("64", "11"), ("66", "11")]:
        code, out = run_cli(capsys, "lemma2", "--q", q, "--log2m", log2m,
                            "--strict")
        assert code == 3
        assert json.loads(out)["result"]["vacuous"] is True
    code, _ = run_cli(capsys, "lemma2", "--q", "4", "--log2m", "11",
                      "--strict")
    assert code == 0


def test_bell_cache_above_table_cap_exits_2(capsys, tmp_path):
    # only the header: a table past the cap is never built or read
    (tmp_path / "bell_tables.bin").write_bytes(
        BellSequence.MAGIC
        + struct.pack("<II", BellSequence.VERSION, DEFAULT_QMAX_CAP + 1))
    code = dispatch(["lemma2", "--q", "4", "--log2m", "11",
                     "--cache-dir", str(tmp_path)])
    assert code == 2
    assert f"q_max={DEFAULT_QMAX_CAP + 1}" in capsys.readouterr().err


_CACHE_HEADER = BellSequence.MAGIC + struct.pack("<II", BellSequence.VERSION,
                                                 10)


@pytest.mark.parametrize("body", [
    b"",
    # 11 values announced, the first one 4 bytes long with 1 byte present
    struct.pack("<II", 11, 4) + b"\x01",
], ids=["header-only", "short-entry"])
def test_truncated_bell_cache_exits_2(capsys, tmp_path, body):
    (tmp_path / "bell_tables.bin").write_bytes(_CACHE_HEADER + body)
    code = dispatch(["lemma2", "--q", "4", "--log2m", "11",
                     "--cache-dir", str(tmp_path)])
    assert code == 2
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("cache_dir", ["file", "file/sub", "dir"],
                         ids=["file", "under-file", "cache-is-directory"])
def test_unusable_cache_dir_exits_2(capsys, tmp_path, cache_dir):
    (tmp_path / "file").write_bytes(b"")
    (tmp_path / "dir" / "bell_tables.bin").mkdir(parents=True)
    code = dispatch(["lemma2", "--q", "4", "--log2m", "11",
                     "--cache-dir", str(tmp_path / cache_dir)])
    assert code == 2
    assert "--cache-dir" in capsys.readouterr().err


def test_empty_cache_dir_exits_2_and_writes_nothing(capsys, monkeypatch,
                                                   tmp_path):
    # Path('') is the working directory, where the cache file would land
    monkeypatch.chdir(tmp_path)
    assert dispatch(["lemma2", "--q", "8", "--log2m", "10",
                     "--cache-dir", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --cache-dir" in err.splitlines()[-1]
    assert list(tmp_path.iterdir()) == []


def _record_bells(monkeypatch):
    """The Bell sequences the CLI handlers open, in order."""
    opened, cli_bells = [], cli._bells

    def recording(cache):
        opened.append(cli_bells(cache))
        return opened[-1]

    monkeypatch.setattr(cli, "_bells", recording)
    return opened


def _record_windows(monkeypatch):
    """The window caps the CLI's minq searches run with, in order."""
    caps, search = [], condenser.necessary_independence

    def recording(*args):
        caps.append(args[4])
        return search(*args)

    monkeypatch.setattr(condenser, "necessary_independence", recording)
    return caps


def test_minq_builds_bells_only_past_the_gallop(capsys, monkeypatch):
    opened = _record_bells(monkeypatch)
    caps = _record_windows(monkeypatch)
    env = run_json(capsys, "condense", "minq", "--log2eps", "128", "--k",
                   "64", "--loss", "1")
    assert env["result"]["q_lower_bound"] == 174
    [bells] = opened
    assert caps == [1024]
    assert bells.built <= 180


_SWEEP_2048 = ["condense", "sweep", "--log2eps", "64,128,256,512", "--k",
               "64", "--qmax", str(DEFAULT_QMAX_CAP)]


def test_sweep_builds_bells_only_past_the_gallop(capsys, monkeypatch):
    opened = _record_bells(monkeypatch)
    caps = _record_windows(monkeypatch)
    env = run_json(capsys, *_SWEEP_2048)
    assert [r["q_minus"] for r in env["result"]["rows"]] == [90, 174, 338,
                                                              652]
    [bells] = opened
    assert caps == [DEFAULT_QMAX_CAP] * 4
    assert bells.built <= 660


def test_bell_cache_holds_the_built_prefix_and_grows(capsys, monkeypatch,
                                                     tmp_path):
    path = tmp_path / "bell_tables.bin"
    opened = _record_bells(monkeypatch)
    run_json(capsys, *_SWEEP_2048, "--cache-dir", str(tmp_path))
    saved = BellSequence.load(path)
    assert saved.built == opened[0].built <= 660
    # a command that reads past the cached prefix rebuilds it, prints what
    # it prints without a cache, and saves what it built
    lemma2 = ["lemma2", "--q", str(DEFAULT_QMAX_CAP), "--log2m", "40"]
    plain = run_cli(capsys, *lemma2)
    assert run_cli(capsys, *lemma2, "--cache-dir", str(tmp_path)) == plain
    assert BellSequence.load(path).built == DEFAULT_QMAX_CAP
    # a command that reads inside the cached prefix leaves the file alone
    before = path.stat().st_mtime_ns, path.read_bytes()
    run_json(capsys, "lemma2", "--q", "8", "--log2m", "11", "--cache-dir",
             str(tmp_path))
    assert (path.stat().st_mtime_ns, path.read_bytes()) == before
    # the cached prefix is read whole, with no cut to the command's q
    assert opened[-1].built == DEFAULT_QMAX_CAP


@pytest.mark.parametrize("argv, named", [
    (["condense", "check", "--q", "64", "--k", "43", "--log2eps", "-3"],
     "--log2eps"),
    (["condense", "check", "--q", "64", "--k", "43", "--log2eps", "0"],
     "--log2eps"),
    (["condense", "minq", "--log2eps", "0", "--k", "64", "--loss", "1"],
     "--log2eps"),
    (["condense", "minq", "--log2eps=-1/2", "--k", "64", "--loss", "1"],
     "--log2eps"),
    (["condense", "check", "--q", "64", "--k", "43", "--loss", "-1"],
     "--loss"),
    (["condense", "minq", "--log2eps", "64", "--k", "64", "--loss", "-5"],
     "--loss"),
    (["condense", "sweep", "--log2eps", "64", "--k", "64", "--loss",
      "-0.5"], "--loss"),
    (["condense", "sweep", "--log2eps", "64,,", "--k", "64"], "--log2eps"),
    (["condense", "sweep", "--log2eps", "64,,128", "--k", "64"],
     "--log2eps"),
    (["condense", "sweep", "--log2eps", ",64", "--k", "64"], "--log2eps"),
    # the window's cap is checked before any Bell number is built
    (["condense", "minq", "--log2eps", "64", "--k", "64", "--loss", "1",
      "--qmax", str(DEFAULT_QMAX_CAP + 1)], "argument --qmax"),
    (["condense", "sweep", "--log2eps", "64", "--k", "64", "--qmax",
      str(DEFAULT_QMAX_CAP + 1)], "argument --qmax"),
    # a window below q = 4 is named as such, not as a failed side condition
    (["condense", "minq", "--log2eps", "128", "--k", "64", "--loss", "1",
      "--qmax", "3"], "argument --qmax: must be in [4, 2048], got 3"),
    (["condense", "minq", "--log2eps", "128", "--k", "64", "--loss", "1",
      "--qmax", "-4"], "argument --qmax: must be in [4, 2048], got -4"),
    (["condense", "sweep", "--log2eps", "64", "--k", "64", "--qmax", "3"],
     "argument --qmax: must be in [4, 2048], got 3"),
    # eps = 1/2 and above has no positive construction to compare against
    (["condense", "sweep", "--log2eps", "1", "--k", "64"], "--log2eps"),
    (["condense", "sweep", "--log2eps", "64,1/2", "--k", "64"],
     "--log2eps"),
], ids=["check-log2eps-negative", "check-log2eps-zero", "minq-log2eps-zero",
        "minq-log2eps-negative", "check-loss-negative", "minq-loss-negative",
        "sweep-loss-negative", "sweep-log2eps-trailing-empty",
        "sweep-log2eps-inner-empty", "sweep-log2eps-leading-empty",
        "minq-qmax-above-cap", "sweep-qmax-above-cap", "minq-qmax-3",
        "minq-qmax-negative", "sweep-qmax-3", "sweep-log2eps-1",
        "sweep-log2eps-half"])
def test_meaningless_target_exits_2(capsys, argv, named):
    assert dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert named in err


def test_empty_thresholds_default_is_no_threshold(capsys):
    env = run_json(capsys, "simulate", "--mode", "exact", "--w", "2", "--q",
                   "2")
    assert env["result"]["tails"] == []
    assert dispatch(["simulate", "--mode", "exact", "--w", "2", "--q", "2",
                     "--thresholds", "1,"]) == 2
    assert "--thresholds" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["lemma2", "--q", str(DEFAULT_QMAX_CAP + 2), "--log2m", "30"],
    ["condense", "check", "--q", str(DEFAULT_QMAX_CAP + 2), "--k", "40"],
    ["condense", "minq", "--log2eps", "64", "--k", "64", "--loss", "1",
     "--qmax", str(DEFAULT_QMAX_CAP + 1)],
    ["condense", "sweep", "--log2eps", "64", "--k", "64", "--qmax",
     str(DEFAULT_QMAX_CAP + 1)],
    ["condense", "minq", "--log2eps", "128", "--k", "64", "--loss", "1",
     "--qmax", "3"],
    ["asymptotics", "--qmax", str(DEFAULT_QMAX_CAP + 1)],
], ids=["lemma2-q", "check-q", "minq-qmax", "sweep-qmax", "minq-qmax-3",
        "asymptotics-qmax"])
def test_cap_is_checked_before_any_bell_is_built(capsys, monkeypatch, argv):
    opened = _record_bells(monkeypatch)
    assert dispatch(argv) == 2
    assert capsys.readouterr().out == ""
    assert all(bells.built == 0 for bells in opened)


def test_window_exhausted_names_the_cap_and_the_q_probed(capsys):
    assert dispatch(["condense", "minq", "--log2eps", "1024", "--k", "64",
                     "--loss", "1", "--qmax", "1024"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "window exhausted" in err
    assert "q=1024" in err and "q_max=1024" in err
    assert "rebuild" not in err


def test_strict_undetermined_condense(capsys):
    code, out = run_cli(capsys, "condense", "check", "--q", "4", "--k", "11",
                        "--strict")
    assert code == 3
    env = json.loads(out)
    assert env["result"]["feasible"] == "undetermined"


def test_lemma2_payload_roundtrip(capsys):
    env = run_json(capsys, "lemma2", "--q", "4", "--log2m", "11")
    res = env["result"]
    p = Fraction(int(res["p_num"]), int(res["p_den"]))
    assert p == Fraction(17, 128)
    tau_lo = parse_dyadic(res["tau_lo"])
    tau_hi = parse_dyadic(res["tau_hi"])
    assert tau_lo ** 2 <= Fraction(1, 2) <= tau_hi ** 2
    assert res["variant"] == "bell-bound"
    assert res["log2M"] == 11


def test_pz_payload(capsys):
    env = run_json(capsys, "pz", "--q", "4", "--log2m", "2", "--theta", "1/2")
    res = env["result"]
    assert res["variant"] == "exact-moment"
    assert parse_rational(res["theta"]) == Fraction(1, 2)
    p = Fraction(int(res["p_num"]), int(res["p_den"]))
    assert 0 < p < 1


def test_condense_check_reference_pair(capsys):
    env = run_json(capsys, "condense", "check", "--q", "64", "--k", "43")
    res = env["result"]
    assert env["subcommand"] == "condense check"
    assert res["feasible"] == "impossible"
    assert res["reference_claim"]["loss"] == {"num": "13", "den": "5"}
    assert res["reference_claim"]["claim_covered_by_certificate"] is False
    assert res["ell_star"] is not None
    assert res["log2_eps_star_lo"] is not None


def test_condense_minq(capsys):
    env = run_json(capsys, "condense", "minq", "--log2eps", "64",
                   "--k", "64", "--loss", "1", "--qmax", "256")
    assert env["result"]["q_lower_bound"] == 90
    assert env["result"]["verdict_at_bound"]["feasible"] == "impossible"


def test_condense_sweep_single(capsys):
    env = run_json(capsys, "condense", "sweep", "--log2eps", "64",
                   "--k", "64", "--qmax", "128")
    rows = env["result"]["rows"]
    assert len(rows) == 1
    assert rows[0]["q_plus"] == 64
    assert rows[0]["q_minus"] == 90
    assert parse_rational(rows[0]["ratio"]) == Fraction(90, 64)


def test_condense_sweep_reports_no_band_below_log2eps_2(capsys):
    # log2 log2 L < 0 below L = 2: 1.0001 inverted the band, and the first
    # value, which float() rounds to 1.0, raised a math domain error
    env = run_json(capsys, "condense", "sweep", "--log2eps",
                   "1.0000000000000000000001,1.0001,2", "--k", "64")
    bands = [(r["band_lo"], r["band_hi"], r["within_band"])
             for r in env["result"]["rows"]]
    assert bands == [(None, None, None), (None, None, None), (1.0, 1.0, None)]


@pytest.mark.parametrize("command", ["minq", "sweep"])
@pytest.mark.parametrize("log2eps", ["64", "128"])
def test_longer_bell_cache_keeps_the_search_window(capsys, tmp_path,
                                                   command, log2eps):
    # q = 174 rules out 2^-128 at loss 1, past --qmax 128: without a cache
    # the window is exhausted, and a cached table up to q = 256 must not
    # widen it
    bells = BellSequence()
    bells.bell(256)
    bells.save(tmp_path / "bell_tables.bin")
    argv = ["condense", command, "--log2eps", log2eps, "--k", "64",
            "--loss", "1", "--qmax", "128"]
    plain = dispatch(argv), capsys.readouterr()
    cached = dispatch([*argv, "--cache-dir", str(tmp_path)]), capsys.readouterr()
    assert cached == plain
    assert plain[0] == (0 if log2eps == "64" else 2)


def test_minq_takes_one_root(monkeypatch, capsys):
    # the verdict necessary_independence re-checks is the one minq prints
    roots = []
    nth_root = anticonc.nth_root

    def counting(x, n, *args):
        roots.append(n)
        return nth_root(x, n, *args)

    monkeypatch.setattr(anticonc, "nth_root", counting)
    env = run_json(capsys, "condense", "minq", "--log2eps", "128", "--k", "64",
                   "--loss", "1")
    assert env["result"]["q_lower_bound"] == 174
    assert roots == [174]


def test_asymptotics_csv_json_equal_values(capsys):
    code, csv_out = run_cli(capsys, "asymptotics", "--qmin", "8",
                            "--qmax", "12", "--format", "csv")
    assert code == 0
    env = run_json(capsys, "asymptotics", "--qmin", "8", "--qmax", "12",
                   "--format", "json")
    lines = csv_out.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    for csv_row, json_row in zip(rows, env["result"]["rows"]):
        assert int(csv_row["q"]) == json_row["q"]
        for name in ("estimate", "exact", "residual", "scaled_residual"):
            assert csv_row[f"{name}_lo"] == json_row[name]["lo"]
            assert csv_row[f"{name}_hi"] == json_row[name]["hi"]


def test_generic_csv_matches_json_leaves(capsys):
    env = run_json(capsys, "lemma2", "--q", "6", "--log2m", "10")
    code, csv_out = run_cli(capsys, "lemma2", "--q", "6", "--log2m", "10",
                            "--format", "csv")
    assert code == 0
    csv_map = {}
    for line in csv_out.strip().splitlines()[1:]:
        field, _, value = line.partition(",")
        csv_map[field] = value
    for path, value in flatten(env["result"]):
        assert csv_map[path] == value, path


def test_simulate_determinism_across_threads(capsys):
    argv = ["simulate", "--w", "6", "--q", "4", "--trials", "3000",
            "--master-seed", "31337", "--orders", "1,2",
            "--thresholds", "1,3/2^1"]
    _, out1 = run_cli(capsys, *argv, "--threads", "1")
    _, out2 = run_cli(capsys, *argv, "--threads", "4")
    assert out1 == out2


@pytest.mark.parametrize("threads", ["16"], ids=["option"])
def test_threads_capped_at_available_parallelism(capsys, monkeypatch,
                                                 threads):
    # each worker past the cores costs 6-8 MiB of peak RSS and no speed
    argv = ["simulate", "--w", "12", "--q", "3", "--trials", "1200",
            "--master-seed", "5"]
    seen, driver = [], hashsim._load_experiment

    def recording(M, N, trials, orders, thresholds, threads, *rest):
        seen.append(threads)
        return driver(M, N, trials, orders, thresholds, threads, *rest)

    monkeypatch.setattr(hashsim, "_load_experiment", recording)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    _, one = run_cli(capsys, *argv, "--threads", "1")
    code, many = run_cli(capsys, *argv, "--threads", threads)
    assert code == 0
    assert seen == [1, 2]
    assert many == one


def test_moment_q_above_row_cap_admitted_with_lower_order(capsys):
    # the 2048 cap bounds the Stirling rows, so the order, not q; without
    # --order the order is q, and q past the cap is refused naming --q
    env = run_json(capsys, "moment", "--balls", "4", "--bins", "4", "--q",
                   str(DEFAULT_QMAX_CAP + 1), "--order", "3")
    assert env["result"]["value"] == {"num": "29", "den": "8"}


def test_simulate_exact_mode(capsys):
    env = run_json(capsys, "simulate", "--mode", "exact", "--w", "2",
                   "--q", "2", "--orders", "1,2", "--thresholds", "1")
    res = env["result"]
    dist = {d["load"]: parse_rational(d["probability"])
            for d in res["distribution"]}
    assert dist == {0: Fraction(3, 16), 1: Fraction(3, 4), 4: Fraction(1, 16)}
    moments = {m["order"]: parse_rational(m["value"]) for m in res["moments"]}
    assert moments[2] == Fraction(7, 4)
    assert parse_rational(res["tails"][0]["probability"]) == Fraction(13, 16)


def test_simulate_independent_exhaustive(capsys):
    env = run_json(capsys, "simulate", "--mode", "independent", "--balls",
                   "3", "--bins", "3", "--orders", "1,2", "--trials", "5")
    res = env["result"]
    m2 = next(m for m in res["moments"] if m["order"] == 2)
    assert parse_rational(m2["exact"]) == Fraction(5, 3)
    assert m2["mean"] == 5 / 3


def test_simulate_histogram_csv(capsys):
    code, out = run_cli(capsys, "simulate", "--w", "3", "--q", "2",
                        "--trials", "50", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "load,count"
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    assert total == 50 * 8  # trials * bins events


def test_parameter_echo_excludes_execution_knobs(capsys, tmp_path):
    env = run_json(capsys, "simulate", "--w", "3", "--q", "2", "--trials",
                   "5", "--threads", "2")
    assert "threads" not in env["parameters"]
    assert "format" not in env["parameters"]
    assert env["parameters"]["q"] == 2
    env = run_json(capsys, "lemma2", "--q", "4", "--log2m", "5",
                   "--cache-dir", str(tmp_path))
    assert "cache_dir" not in env["parameters"]
    assert env["parameters"]["q"] == 4


# one valid command line per leaf subcommand, and the leaves that accept
# each execution option; every other leaf rejects it at parse time
LEAF_ARGV = {
    "table": ["table", "--qmax", "3"],
    "moment": ["moment", "--balls", "4", "--bins", "4", "--q", "3"],
    "lemma2": ["lemma2", "--q", "4", "--log2m", "11"],
    "pz": ["pz", "--q", "4", "--log2m", "10", "--theta", "1/4"],
    "asymptotics": ["asymptotics", "--qmax", "12"],
    "check": ["condense", "check", "--q", "8", "--k", "11"],
    "minq": ["condense", "minq", "--log2eps", "4", "--k", "64", "--loss",
             "1", "--qmax", "16"],
    "sweep": ["condense", "sweep", "--log2eps", "64", "--k", "64",
              "--qmax", "16"],
    "simulate": ["simulate", "--w", "3", "--q", "2", "--trials", "5"],
}
OPTION_LEAVES = {
    "--strict": ({"lemma2", "check", "minq", "sweep"}, []),
    "--cache-dir": ({"lemma2", "asymptotics", "check", "minq", "sweep"},
                    ["d"]),
    "--threads": ({"simulate"}, ["2"]),
}


@pytest.mark.parametrize("option", OPTION_LEAVES,
                         ids=lambda option: option.lstrip("-"))
@pytest.mark.parametrize("leaf", LEAF_ARGV)
def test_execution_options_declared_where_they_act(capsys, leaf, option):
    leaves, value = OPTION_LEAVES[option]
    argv = [*LEAF_ARGV[leaf], option, *value]
    if leaf in leaves:
        args = build_parser().parse_args(argv)
        assert vars(args)[option.lstrip("-").replace("-", "_")]
        return
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_simulate_exact_threshold_echo_matches_monte_carlo(capsys):
    exact = run_json(capsys, "simulate", "--mode", "exact", "--w", "2",
                     "--q", "2", "--thresholds", "0.5,1")
    mc = run_json(capsys, "simulate", "--w", "2", "--q", "2", "--trials",
                  "5", "--thresholds", "0.5,1")
    assert [t["threshold"] for t in exact["result"]["tails"]] == \
        [t["threshold"] for t in mc["result"]["tails"]] == ["1/2^1", "1"]


def test_lemma2_at_qmax_cap_roundtrips_past_digit_limit(capsys, tmp_path):
    # B_2048 has about 4980 decimal digits, past CPython's default
    # int/str conversion limit of 4300
    env = run_json(capsys, "lemma2", "--q", str(DEFAULT_QMAX_CAP),
                   "--log2m", "40", "--cache-dir", str(tmp_path))
    res = env["result"]
    assert len(res["p_den"]) > 4300
    bells = BellSequence.load(tmp_path / "bell_tables.bin")
    cert = lemma2_certificate(DEFAULT_QMAX_CAP, 1 << 40, bells)
    assert parse_rational({"num": res["p_num"], "den": res["p_den"]}) \
        == cert.probability


def test_pz_past_digit_limit(capsys):
    env = run_json(capsys, "pz", "--q", "512", "--log2m", "30",
                   "--theta", "1/4")
    assert len(env["result"]["p_num"]) > 4300


# sha256 of the JSON stdout, recorded before the Monte Carlo trial loops of
# run_trials and independent_oracle shared one driver; the w = 11 run spans
# several thread-pool chunks of eight batches
GOLDEN_SIMULATE = [
    (["simulate", "--w", "11", "--q", "3", "--trials", "5000",
      "--master-seed", "2024", "--orders", "1,2,3", "--thresholds", "1,5/2^1"],
     "a912e8198672023f480c7cc20be8be84aa43557c7f934f3a3479c054dc6402d9"),
    (["simulate", "--w", "9", "--q", "4", "--output-bits", "5",
      "--trials", "3000", "--master-seed", "77", "--orders", "1,2",
      "--thresholds", "16,25"],
     "d246b1a29bb56e82f57eff4d41b7443df0349b64802185382dc6afaad0dccd0f"),
    (["simulate", "--mode", "independent", "--balls", "2048", "--bins",
      "1024", "--trials", "4500", "--master-seed", "5", "--orders", "1,2",
      "--thresholds", "2,4"],
     "22144e43d025466f2da5319bef3e84d0ac65c0c77fdb187bd30df01effd82bf9"),
]


@pytest.mark.parametrize("argv, sha256", GOLDEN_SIMULATE,
                         ids=["mc", "output-bits", "independent-mc"])
def test_simulate_json_golden_digest(capsys, argv, sha256):
    code, out = run_cli(capsys, *argv, "--threads", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_simulate_exact_rejects_wide_field_at_once(capsys):
    # w = 17, q = 1 passes the 2^24 seed cap, but enumerating it would take
    # 2^34 point evaluations
    def expire(signum, frame):
        raise TimeoutError("exact mode still running after 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code = dispatch(["simulate", "--mode", "exact", "--w", "17",
                         "--q", "1"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert "field_bits <= 16" in capsys.readouterr().err


def test_simulate_wide_field_large_q_bounded(capsys, monkeypatch):
    # q positions of split tables at w = 16 would take q * 8 MiB (8 GiB
    # here); the tables stop at TABLE_BYTES and the rest folds by Horner
    built = []

    class Recorded(hashsim._SplitTables):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.rows.nbytes)

    def expire(signum, frame):
        raise TimeoutError("simulate still running after 10 s")

    monkeypatch.setattr(hashsim, "_SplitTables", Recorded)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        code = dispatch(["simulate", "--w", "16", "--q", "1024",
                         "--trials", "1", "--threads", "1"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    assert json.loads(capsys.readouterr().out)["result"]["trials"] == 1
    assert len(built) == 1
    assert 0 < built[0] <= hashsim.TABLE_BYTES


@pytest.mark.parametrize("argv, option", [
    (["condense", "check", "--q", "64", "--k", "43", "--loss", "abc"],
     "--loss"),
    (["condense", "check", "--q", "64", "--k", "43", "--log2eps", "1/0"],
     "--log2eps"),
    (["pz", "--q", "4", "--log2m", "10", "--theta", "abc"], "--theta"),
    (["condense", "minq", "--log2eps", "x", "--k", "64", "--loss", "1",
      "--qmax", "16"], "--log2eps"),
    (["condense", "sweep", "--log2eps", "64,1/0", "--k", "64",
      "--qmax", "16"], "--log2eps"),
    (["condense", "sweep", "--log2eps", "64", "--k", "64", "--loss", "1.x",
      "--qmax", "16"], "--loss"),
    (["simulate", "--w", "3", "--q", "2", "--trials", "5",
      "--thresholds", "1,abc"], "--thresholds"),
    (["simulate", "--mode", "exact", "--w", "3", "--q", "2",
      "--thresholds", "1/2^x"], "--thresholds"),
    (["simulate", "--w", "3", "--q", "2", "--trials", "5",
      "--orders", "1,x"], "--orders"),
], ids=["check-loss", "check-log2eps", "pz-theta", "minq-log2eps",
        "sweep-log2eps", "sweep-loss", "mc-thresholds", "exact-thresholds",
        "mc-orders"])
def test_malformed_option_value_exits_2(capsys, argv, option):
    assert dispatch(argv) == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["mc", "exact"])
def test_non_dyadic_threshold_names_the_failed_precondition(capsys, mode):
    # 1/3 parses; it is rejected for not being dyadic, not as malformed
    argv = ["simulate", "--mode", mode, "--w", "3", "--q", "2",
            "--thresholds", "1,1/3"]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert "--thresholds: value '1/3' is not a dyadic rational" in err
    assert "malformed" not in err


_MC = ["simulate", "--w", "12", "--q", "4", "--trials", "3"]
_INDEPENDENT = ["simulate", "--mode", "independent", "--balls", "40",
                "--bins", "4", "--trials", "3"]
_EXACT = ["simulate", "--mode", "exact", "--w", "3", "--q", "2"]


@pytest.mark.parametrize("argv, named", [
    (_MC + ["--master-seed", "-1"], "master seed"),
    (_MC + ["--master-seed", str(1 << 128)], "master seed"),
    (_INDEPENDENT + ["--master-seed", "-1"], "master seed"),
    (_MC + ["--balls", "0"], "balls"),
    (_MC + ["--balls", "-3"], "balls"),
    (_INDEPENDENT + ["--orders", "0"], "moment order"),
    (_INDEPENDENT + ["--trials", "0"], "trials"),
    (_INDEPENDENT + ["--trials", "-3"], "trials"),
    (_EXACT + ["--orders", "0"], "moment order"),
    (_EXACT + ["--orders", "-1"], "moment order"),
    (_EXACT + ["--balls", "5"], "--balls"),
    # with no --orders there are no exact references to reject the
    # instance first
    (_INDEPENDENT + ["--orders=", "--bins", "0"], "bins"),
    (_INDEPENDENT + ["--orders=", "--balls", "0"], "balls"),
    # every trial counts and reduces N loads, so bins*trials is capped
    # like balls*trials
    (["simulate", "--mode", "independent", "--balls", "40", "--bins",
      str((1 << 20) + 1), "--trials", "1024"], "bins"),
    # one trial's row holds every ball and every bin, so each is capped
    (["simulate", "--mode", "independent", "--balls", str((1 << 24) + 1),
      "--bins", "3", "--trials", "1"], "balls"),
    (["simulate", "--mode", "independent", "--balls", "40", "--bins",
      str((1 << 24) + 1), "--trials", "1"], "bins"),
], ids=["mc-seed-negative", "mc-seed-2^128", "independent-seed-negative",
        "mc-balls-zero", "mc-balls-negative", "independent-order-zero",
        "independent-trials-zero", "independent-trials-negative",
        "exact-order-zero", "exact-order-negative", "exact-balls",
        "independent-bins-zero", "independent-balls-zero",
        "independent-bins-times-trials-above-cap",
        "independent-balls-above-row-cap", "independent-bins-above-row-cap"])
def test_simulate_out_of_range_value_exits_2(capsys, argv, named):
    assert dispatch(argv) == 2
    assert named in capsys.readouterr().err


# The load driver checks every cap for every mode, before its per-trial
# arrays exist: admitted, these runs would allocate 8 GiB, 15.6 GiB, 0 and
# 64 MiB of them and take days, hours, an hour and a minute
@pytest.mark.parametrize("argv, cap", [
    (["simulate", "--w", "16", "--q", "2", "--balls", "1",
      "--trials", str(1 << 30), "--orders", "1"], "throw cap"),
    (["simulate", "--w", "2", "--q", "2", "--trials", str(1 << 20),
      "--orders", ",".join(["1"] * 2000)], "trial cap"),
    (["simulate", "--w", "2", "--q", "2", "--trials", str(1 << 28),
      "--orders="], "trial cap"),
    (_INDEPENDENT[:-1] + [str(1 << 22), "--orders", "1"], "trial cap"),
], ids=["mc-bins-times-trials", "mc-trials-times-statistics",
        "mc-trials-no-statistics", "independent-trials-times-statistics"])
def test_simulate_caps_bound_the_work(capsys, argv, cap):
    def expire(signum, frame):
        raise TimeoutError("simulate still running after 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        code, peak = traced_peak(lambda: dispatch(argv + ["--threads", "1"]))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert cap in err
    # nothing the size of the per-trial arrays is allocated (q = 2 fits
    # the split tables, so no exp/log tables are built either)
    assert peak < 4 << 20, peak


# every check of the Monte Carlo modes runs before their tables, their
# exact references or any trial: checked late, these runs take 3.4 s,
# 2.25 s, 23 s and 1.5 s before the order cap, the trial cap, the end of
# a 2^16-position table build or the throw cap
@pytest.mark.parametrize("argv, cap", [
    (["simulate", "--w", "12", "--q", "4096", "--orders", "2049",
      "--trials", "200"], "table cap 2048"),
    (["simulate", "--w", "16", "--q", "8192", "--balls", "1",
      "--output-bits", "1", "--trials", "3000000"], "trial cap"),
    (["simulate", "--w", "16", "--q", "65536", "--balls", "1",
      "--output-bits", "1", "--orders", "1", "--trials", "1"],
     "kernel pass cap"),
    (["simulate", "--mode", "independent", "--balls", "4096", "--bins",
      "4096", "--orders", "2048", "--trials", "4000000"], "throw cap"),
], ids=["order-cap", "trial-cap", "kernel-pass-cap", "independent-throw-cap"])
def test_simulate_checks_run_before_any_work(capsys, argv, cap):
    def expire(signum, frame):
        raise TimeoutError("simulate still running after 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code = dispatch(argv + ["--threads", "1"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert cap in err


# a mean or standard error past the float range is refused, naming the
# statistic, in every branch that reports floats
@pytest.mark.parametrize("argv, named", [
    (["simulate", "--mode", "independent", "--balls", "30", "--bins", "2",
      "--orders", "300", "--trials", "10"], "mean of moment order 300"),
    (["simulate", "--mode", "independent", "--balls", "30", "--bins", "2",
      "--orders", "300", "--trials", "10", "--format", "csv"],
     "mean of moment order 300"),
    (["simulate", "--mode", "independent", "--balls", "2000", "--bins", "1",
      "--orders", "100"], "mean of moment order 100"),
    (["simulate", "--mode", "independent", "--balls", "1" + "0" * 400,
      "--bins", "1", "--orders", "1"], "mean of moment order 1"),
    (["simulate", "--w", "8", "--q", "256", "--orders", "256", "--trials",
      "3"], "standard error of moment order 256"),
], ids=["independent-mc", "independent-mc-csv", "independent-exhaustive",
        "independent-exhaustive-huge-balls", "mc-standard-error"])
def test_non_finite_statistic_exits_2(capsys, argv, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(argv + ["--threads", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert named in err


_ABOVE_LOG2_CAP = str(LOG2_SIZE_CAP + 1)
_ABOVE_SIZE_CAP = str((1 << LOG2_SIZE_CAP) + 1)


@pytest.mark.parametrize("argv, named", [
    (["lemma2", "--q", "4", "--log2m", "-1"], "--log2m"),
    (["pz", "--q", "4", "--log2m", "-1", "--theta", "1/2"], "--log2m"),
    (["asymptotics", "--qmax", "10", "--step", "0"], "--step"),
    (["asymptotics", "--qmax", "10", "--step", "-1"], "--step"),
    # the estimate needs ln ln q > 0, and the range must not be empty
    (["asymptotics", "--qmin", "-5", "--qmax", "10"], "--qmin"),
    (["asymptotics", "--qmin", "2", "--qmax", "10"], "--qmin"),
    (["asymptotics", "--qmin", "9", "--qmax", "4"], "--qmin"),
    (["asymptotics", "--qmax", "5"], "--qmin"),
    (["asymptotics", "--qmax", str(DEFAULT_QMAX_CAP + 1)], "--qmax"),
    (["condense", "sweep", "--log2eps", ",", "--k", "64", "--qmax", "16"],
     "--log2eps"),
    # 2^log2m and 2^k are exact integers: the cap bounds their size
    (["lemma2", "--q", "4", "--log2m", _ABOVE_LOG2_CAP], "--log2m"),
    (["pz", "--q", "4", "--log2m", _ABOVE_LOG2_CAP, "--theta", "1/2"],
     "--log2m"),
    (["condense", "check", "--q", "64", "--k", _ABOVE_LOG2_CAP], "--k"),
    (["condense", "minq", "--log2eps", "128", "--k", _ABOVE_LOG2_CAP,
      "--loss", "1", "--qmax", "16"], "--k"),
    (["condense", "sweep", "--log2eps", "64", "--k", _ABOVE_LOG2_CAP,
      "--qmax", "16"], "--k"),
    # the search window is 2^k wide
    (["condense", "minq", "--log2eps", "128", "--k", "-1", "--loss", "1"],
     "--k"),
    (["condense", "sweep", "--log2eps", "64", "--k", "-1"], "--k"),
    # the cap is checked before the first row is written
    (["table", "--qmax", "-1"], "argument --qmax"),
    (["table", "--qmax", "-1", "--format", "json"], "argument --qmax"),
    (["table", "--qmax", str(DEFAULT_QMAX_CAP + 1)], "argument --qmax"),
    (["table", "--qmax", str(DEFAULT_QMAX_CAP + 1), "--format", "json"],
     "argument --qmax"),
    # a moment's exact sum grows with the digits of M and N
    (["moment", "--balls", _ABOVE_SIZE_CAP, "--bins", "4", "--q", "3"],
     "--balls"),
    (["moment", "--balls", "4", "--bins", _ABOVE_SIZE_CAP, "--q", "3"],
     "--bins"),
], ids=["lemma2-log2m-negative", "pz-log2m-negative", "asymptotics-step-zero",
        "asymptotics-step-negative", "asymptotics-qmin-negative",
        "asymptotics-qmin-2", "asymptotics-qmin-above-qmax",
        "asymptotics-default-qmin-above-qmax", "asymptotics-qmax-above-cap",
        "sweep-log2eps-empty",
        "lemma2-log2m-above-cap", "pz-log2m-above-cap", "check-k-above-cap",
        "minq-k-above-cap", "sweep-k-above-cap", "minq-k-negative",
        "sweep-k-negative", "table-qmax-negative-csv",
        "table-qmax-negative-json", "table-qmax-above-cap-csv",
        "table-qmax-above-cap-json", "moment-balls-above-cap",
        "moment-bins-above-cap"])
def test_out_of_range_value_exits_2(capsys, argv, named):
    assert dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert named in err


_HUGE_EXPONENT = "100000000"
_EXACT_W2 = ["simulate", "--mode", "exact", "--w", "2", "--q", "2"]


# 10^e and 2^k are built as exact integers, so an exponent past the cap
# is refused before the value is built
@pytest.mark.parametrize("argv, option", [
    (["condense", "check", "--q", "64", "--k", "43",
      "--loss", "1e" + _HUGE_EXPONENT], "--loss"),
    (["condense", "check", "--q", "64", "--k", "43",
      "--log2eps", "1e" + _HUGE_EXPONENT], "--log2eps"),
    (["condense", "minq", "--log2eps", "1e" + _HUGE_EXPONENT, "--k", "64",
      "--loss", "1"], "--log2eps"),
    (["condense", "sweep", "--log2eps", "64,1e" + _HUGE_EXPONENT,
      "--k", "64"], "--log2eps"),
    (["pz", "--q", "4", "--log2m", "10", "--theta", "1e-" + _HUGE_EXPONENT],
     "--theta"),
    (_EXACT_W2 + ["--thresholds", "1e-" + _HUGE_EXPONENT], "--thresholds"),
    (_EXACT_W2 + ["--thresholds", "1/2^10000000000"], "--thresholds"),
], ids=["check-loss", "check-log2eps", "minq-log2eps", "sweep-log2eps",
        "pz-theta", "exact-thresholds-decimal", "exact-thresholds-dyadic"])
def test_exponent_above_cap_exits_2_at_once(capsys, argv, option):
    def expire(signum, frame):
        raise TimeoutError("still running after 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code = dispatch(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {option}: exponent must be <= {LOG2_SIZE_CAP}" in err


def test_moment_size_at_cap_is_admitted(capsys):
    size = str(1 << LOG2_SIZE_CAP)
    res = run_json(capsys, "moment", "--balls", size, "--bins", size,
                   "--q", "2")
    assert parse_rational(res["result"]["value"]) == 2 - Fraction(
        1, 1 << LOG2_SIZE_CAP)


def test_exponent_at_cap_is_admitted(capsys):
    code, out = run_cli(capsys, *_EXACT_W2, "--thresholds",
                        f"1/2^{LOG2_SIZE_CAP},1e{LOG2_SIZE_CAP}")
    assert code == 0
    tails = json.loads(out)["result"]["tails"]
    assert [parse_dyadic(t["threshold"]) for t in tails] == [
        Fraction(1, 1 << LOG2_SIZE_CAP), 10 ** LOG2_SIZE_CAP]


@pytest.mark.parametrize("argv, option", [
    (["simulate", "--w", "2", "--q", "2", "--bins", "7", "--trials", "3"],
     "--bins"),
    (_EXACT + ["--bins", "8"], "--bins"),
    (_INDEPENDENT + ["--w", "9"], "--w"),
    (_INDEPENDENT + ["--q", "3"], "--q"),
    (_INDEPENDENT + ["--output-bits", "2"], "--output-bits"),
], ids=["mc-bins", "exact-bins", "independent-w", "independent-q",
        "independent-output-bits"])
def test_simulate_option_the_mode_never_reads_exits_2(capsys, argv, option):
    assert dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert option in err


@pytest.mark.parametrize("threads", ["0", "-3"], ids=["zero", "negative"])
def test_bad_thread_count_exits_2(capsys, threads):
    argv = ["simulate", "--w", "3", "--q", "2", "--trials", "5",
            "--threads", threads]
    assert dispatch(argv) == 2
    assert "--threads" in capsys.readouterr().err


# sha256 of stdout for commands the benchmark does not run, recorded before
# the CLI dispatch moved to a handler table and every CSV to one writer
GOLDEN_STDOUT = [
    (["lemma2", "--q", "6", "--log2m", "10", "--format", "csv"],
     "53ae04dbf47d4e0d4e61e6c3de4992a7d82441f9c8aa1ccf559f773a6fc4dcb4"),
    (["simulate", "--w", "5", "--q", "3", "--trials", "300",
      "--master-seed", "11", "--format", "csv"],
     "d8277020b02e9e37eb34351ba34c34a7f39761e5cfffd48807fa7f200c6219fd"),
    (["asymptotics", "--qmin", "8", "--qmax", "40", "--step", "4",
      "--format", "json"],
     "a0803407c12634a29a2d2d0c39413554f1987df8e84232c54f1caa98518d6947"),
    (["table", "--qmax", "5", "--format", "json"],
     "e35a3d84387295f6c6f86bed5a06b787460b18a99635c37de3366ea3273b6bbe"),
    (["table", "--qmax", "5", "--what", "bell", "--format", "json"],
     "cf4129ceae9c1fb007e4cd1e41010c62838838937bf030d94bcd68b0a8b1ea57"),
    (["condense", "check", "--q", "8", "--k", "11"],
     "e8bd2f43c4436f33d9108657f87ad26e93605fbe3a71edeae16185a9b30122d9"),
    (["condense", "minq", "--log2eps", "4", "--k", "64", "--loss", "1",
      "--qmax", "64"],
     "927091516160621b405150aa784fc0674306300fb6524bd4e70540530cd3718e"),
    (["moment", "--balls", "7", "--bins", "5", "--q", "4", "--format", "csv"],
     "90c0a444a8f972213fbf0b4886d941808edce7541965b1d18067be87c26e2208"),
    # vacuous certificates, recorded before vacuity was read off p:
    # q^2 = 2M (p exactly 0) and q^2 > 2M (p negative)
    (["lemma2", "--q", "64", "--log2m", "11"],
     "70e5ecc1bd93cacd335d32d716b43936624be51e0ce0c7169ade4ca53c7e9dfc"),
    (["lemma2", "--q", "66", "--log2m", "11"],
     "a4ca9620f193c0eb6da903a0c0306038d1a95940c355abfa019667dde686d0cd"),
    # moments from one Stirling row above the orders the benchmark runs
    (["moment", "--balls", "1000", "--bins", "3", "--q", "40", "--order",
      "37"],
     "60302b1c8518abc1a1ecd9c878e2fcd1b3fa4dd4ab5ec2d1445d6eb52a1ca7b9"),
    (["pz", "--q", "64", "--log2m", "20", "--theta", "1/3"],
     "d0a7af8ca937ff308950c7bb4eb7100f6b8c32e35be9f5a03010d171be0ae621"),
    # the Stirling triangle, recorded before `table` streamed its rows
    (["table", "--qmax", "200"],
     "b71e2acf00830c5194983bf9b7ede2400e471f8bbbb15e6eb326b30e9e68bf10"),
    (["table", "--qmax", "200", "--format", "json"],
     "d9df6ff93636cb0c42af8167bce6471c2c7bbd65f04423452d697f56218c8da8"),
    # one ball past the enumerated shapes (2^21 > 2^20 assignments):
    # sampled, recorded before the reference moved out of hashsim
    (["simulate", "--mode", "independent", "--balls", "21", "--bins", "2",
      "--trials", "3"],
     "0475f07371209c9ee68381f38e69a461cb7084314577b849be81d3726ed20fe6"),
    # shapes past the benchmark, recorded before the search stopped near
    # the q it finds and before the ln series was table-reduced: every q
    # from 3 to 1024, a sweep whose rows find no q, q = 772 and q = 1242,
    # and a loss-0 search at k = 20
    (["asymptotics", "--qmin", "3", "--qmax", "1024", "--format", "csv"],
     "c4e7652eae63b16f7abd0c3bc605e5a0f168d47d67d739805decab3addd8c739"),
    (["condense", "sweep", "--log2eps", "2,3,5,610,1000", "--k", "64",
      "--qmax", "2048"],
     "e5159a15d92f4c325b36650f9a37725a27505529656d5c860695fceedb137ca8"),
    (["condense", "minq", "--log2eps", "377", "--k", "20", "--loss", "0",
      "--qmax", "2048"],
     "ff523e09803bd9f65a4b5e0f5848d493eded23a9d08cc8c33002e0a8c10f6226"),
]


@pytest.mark.parametrize("argv, sha256", GOLDEN_STDOUT,
                         ids=["lemma2-csv", "simulate-histogram-csv",
                              "asymptotics-json", "stirling-json", "bell-json",
                              "check-no-reference", "minq-null-bound",
                              "moment-csv", "lemma2-vacuous-p-zero",
                              "lemma2-vacuous-p-negative", "moment-order-37",
                              "pz-q64", "stirling-200-csv",
                              "stirling-200-json",
                              "independent-past-enumeration",
                              "asymptotics-3-1024-csv", "sweep-past-benchmark",
                              "minq-k20-loss0"])
def test_stdout_golden_digest(capsys, argv, sha256):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# Runs dispatch(ARG...) in a fresh interpreter with stdout discarded, then
# prints the exit code and whether numpy got imported.
_IMPORT_PROBE = """
import contextlib, io, sys
from condbound.cli import dispatch
with contextlib.redirect_stdout(io.StringIO()):
    code = dispatch(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""


def _fresh_dispatch(argv) -> tuple[int, bool]:
    src = str(Path(condbound.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    code, numpy_loaded = proc.stdout.split()
    return int(code), numpy_loaded == "True"


@pytest.mark.parametrize("argv", [
    ["table", "--qmax", "5"],
    ["moment", "--balls", "4", "--bins", "4", "--q", "3"],
    ["lemma2", "--q", "4", "--log2m", "11"],
    ["pz", "--q", "4", "--log2m", "10", "--theta", "1/4"],
    ["asymptotics", "--qmin", "8", "--qmax", "16"],
    ["condense", "check", "--q", "8", "--k", "11"],
    ["condense", "minq", "--log2eps", "4", "--k", "64", "--loss", "1",
     "--qmax", "64"],
    ["condense", "sweep", "--log2eps", "4,8", "--k", "64", "--qmax", "64"],
    # the fully independent reference at shapes it enumerates
    ["simulate", "--mode", "independent", "--balls", "3", "--bins", "3"],
    ["simulate", "--mode", "independent", "--balls", "5", "--bins", "16",
     "--format", "csv"],
    ["simulate", "--mode", "independent", "--balls", "1048576", "--bins",
     "1"],
], ids=["table", "moment", "lemma2", "pz", "asymptotics", "check", "minq",
        "sweep", "independent-3x3", "independent-5x16-csv",
        "independent-one-bin"])
def test_exact_commands_leave_numpy_unloaded(argv):
    assert _fresh_dispatch(argv) == (0, False)


_EXACT_LAYERS = {"condbound.condenser", "condbound.anticonc",
                 "condbound.asymptotic"}


def test_simulate_leaves_the_exact_layers_unloaded():
    # the handlers that compute certificates, verdicts and estimates import
    # their modules; serialize names their classes in annotations only
    probe = ("import contextlib, io, sys\n"
             "from condbound.cli import dispatch\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = dispatch(sys.argv[1:])\n"
             f"print(code, *sorted(set(sys.modules) & {_EXACT_LAYERS!r}))")
    src = str(Path(condbound.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", probe, "simulate", "--mode", "exact", "--w",
         "3", "--q", "4"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert proc.stdout.split() == ["0"]


def test_module_entry_point_matches_console_script():
    argv = ["table", "--qmax", "5"]
    src = str(Path(condbound.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    # what the installed `condbound` script runs
    stub = subprocess.run(
        [sys.executable, "-c",
         "import sys; from condbound.cli import main; sys.exit(main())",
         *argv], capture_output=True, env=env, timeout=120, check=True)
    module = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "condbound", *argv],
        capture_output=True, env=env, timeout=120, check=True)
    assert stub.stdout and module.stdout == stub.stdout
    imported = {line.rsplit(b"|", 1)[-1].strip()
                for line in module.stderr.splitlines()
                if line.startswith(b"import time:")}
    assert b"condbound.cli" in imported
    assert b"numpy" not in imported


def test_bare_import_loads_no_submodule():
    src = str(Path(condbound.__file__).resolve().parent.parent)
    probe = ("import sys, condbound; "
             "print(sorted(m for m in sys.modules "
             "if m.startswith('condbound.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120, check=True)
    assert proc.stdout == "[]\n"


def test_exact_load_distribution_leaves_numpy_unloaded():
    src = str(Path(condbound.__file__).resolve().parent.parent)
    probe = ("import sys, condbound; condbound.ExactLoadDistribution; "
             "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120, check=True)
    assert proc.stdout == "False\n"


def test_independent_oracle_leaves_numpy_unloaded():
    src = str(Path(condbound.__file__).resolve().parent.parent)
    probe = ("import sys, condbound; "
             "condbound.independent_oracle(3, 3, (1, 2), 1, 0); "
             "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120, check=True)
    assert proc.stdout == "False\n"


def test_exact_layers_import_neither_dataclasses_nor_inspect():
    # every command pays its imports: dataclasses pulls in inspect, ast and
    # dis, and compiles the methods of each class it builds
    src = str(Path(condbound.__file__).resolve().parent.parent)
    probe = ("import sys, condbound.cli, condbound.anticonc, "
             "condbound.asymptotic, condbound.condenser, "
             "condbound.independent; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120, check=True)
    assert proc.stdout == "[]\n"


def test_closed_stdout_exits_1_without_traceback():
    # `condbound table --qmax 200 | head -1`: the reader leaves after one
    # line of the 4 MiB triangle
    src = str(Path(condbound.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "condbound", "table", "--qmax", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.readline() == b"1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_simulate_loads_numpy():
    argv = ["simulate", "--mode", "exact", "--w", "3", "--q", "4"]
    assert _fresh_dispatch(argv) == (0, True)


def test_lazy_public_names_resolve():
    namespace = {}
    exec("from condbound import *", namespace)
    for name in condbound.__all__:
        assert namespace[name] is getattr(condbound, name), name
    assert condbound.run_trials is condbound.hashsim.run_trials
    assert (condbound.independent_oracle
            is condbound.independent.independent_oracle)
    with pytest.raises(AttributeError, match="'condbound'.*'no_such_name'"):
        condbound.no_such_name


# Runs dispatch(ARG...) in a fresh interpreter, then prints the exit code,
# the process's OS threads, OPENBLAS_NUM_THREADS and whether the thread
# pool module got imported.
_POOL_PROBE = """
import contextlib, io, os, sys
from condbound.cli import dispatch
with contextlib.redirect_stdout(io.StringIO()):
    code = dispatch(sys.argv[1:])
print(code, len(os.listdir("/proc/self/task")),
      os.environ.get("OPENBLAS_NUM_THREADS"),
      "concurrent.futures" in sys.modules)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="no /proc/self/task to count threads in")
@pytest.mark.parametrize("openblas", [None, "2"], ids=["unset", "set-2"])
def test_simulate_keeps_openblas_at_one_thread_unless_set(openblas):
    # the simulator calls no BLAS routine: numpy loads without OpenBLAS's
    # thread pool, unless the user sized it; one worker thread loads no
    # executor either
    src = str(Path(condbound.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    argv = ["simulate", "--mode", "exact", "--w", "3", "--q", "4",
            "--threads", "1"]
    proc = subprocess.run([sys.executable, "-c", _POOL_PROBE, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    code, os_threads, value, pool_module = proc.stdout.split()
    assert (code, pool_module) == ("0", "False")
    if openblas is None:
        assert (os_threads, value) == ("1", "1")
    else:
        assert value == openblas
