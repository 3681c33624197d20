import hashlib
import json
import signal
from fractions import Fraction

import pytest

from condbound.cli import dispatch
from condbound.intervals import parse_dyadic
from condbound.serialize import flatten, parse_rational


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
    code, out = run_cli(capsys, "lemma2", "--q", "4", "--log2m", "3",
                        "--strict")
    assert code == 3
    assert json.loads(out)["result"]["vacuous"] is True
    code, _ = run_cli(capsys, "lemma2", "--q", "4", "--log2m", "11",
                      "--strict")
    assert code == 0


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


def test_parameter_echo_excludes_execution_knobs(capsys):
    env = run_json(capsys, "lemma2", "--q", "4", "--log2m", "5",
                   "--threads", "2")
    assert "threads" not in env["parameters"]
    assert "format" not in env["parameters"]
    assert env["parameters"]["q"] == 4


# sha256 of the JSON stdout, recorded before the Monte Carlo trial loops of
# run_trials and independent_oracle shared one driver; the w = 11 run spans
# two thread-pool chunks of eight batches each
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


@pytest.mark.parametrize("threads, env", [("0", None), ("-3", None),
                                          (None, "abc")],
                         ids=["zero", "negative", "env-malformed"])
def test_bad_thread_count_exits_2(capsys, monkeypatch, threads, env):
    argv = ["simulate", "--w", "3", "--q", "2", "--trials", "5"]
    if threads is None:
        monkeypatch.setenv("CONDBOUND_THREADS", env)
    else:
        monkeypatch.delenv("CONDBOUND_THREADS", raising=False)
        argv += ["--threads", threads]
    assert dispatch(argv) == 2
    source = "CONDBOUND_THREADS" if threads is None else "--threads"
    assert source in capsys.readouterr().err
