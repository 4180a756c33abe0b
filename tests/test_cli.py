import gc
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qasym.cli as cli
from qasym.cli import Table, _dumps, grid_rows, load_spec, main
from qasym.errors import QasymError
from qasym.expansion import AsymptoticResult, analyse, asym_from_parts
from qasym.presets import get_preset
from qasym.qseries import prefactor_exact, series_sum
from qasym.quad import integral

DATA = Path(__file__).parent / "data"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "qasym", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def write_spec(tmp_path: Path, doc: dict, name="spec.json") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


RAM_DOC = {"A": 0.5, "B": 0.5, "v": 0,
           "quads": [{"a": 1, "b": 1, "c": 1, "d": 0, "S": 2}]}


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0, cp.stderr
    assert "verify" in cp.stdout


def test_parser_is_built_once(capsys):
    # main calls in one process, with different flags and a usage error
    # between them, print what fresh processes print: the one parser keeps
    # no state from call to call
    from qasym.cli import build_parser
    assert build_parser() is build_parser()
    for args in (("asym", "--preset", "f0", "--t", "0.01", "--order-L", "3"),
                 ("verify", "--order-L"),
                 ("asym", "--preset", "f0", "--t", "0.01")):
        status = main(list(args))
        out = capsys.readouterr()
        cp = run_cli(*args)
        assert (status, out.out, out.err) == (cp.returncode, cp.stdout, cp.stderr)


def test_preset_listing():
    cp = run_cli("preset")
    assert cp.returncode == 0
    names = cp.stdout.split()
    for expected in ("ramanujan", "f0", "phi-minus", "rphis", "simple-r",
                     "euler", "euler-b2"):
        assert expected in names


ALL_PRESETS = ("ramanujan", "f0", "phi-minus", "rphis", "simple-r", "euler",
               "euler-b2")


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_preset_law_is_the_asym_law(name):
    # one law per spec: the dump's law is the one asym prints on every row,
    # bit for bit
    law = json.loads(run_cli("preset", "--preset", name).stdout, parse_float=str)["law"]
    cp = run_cli("asym", "--preset", name, "--t", "0.05")
    assert cp.returncode == 0, cp.stderr
    [row] = json.loads(cp.stdout, parse_float=str)["results"]["rows"]
    assert law == {k: row[k] for k in ("rate", "t_power", "log_constant")}


def test_preset_dump_roundtrips(tmp_path):
    out = tmp_path / "rama.json"
    cp = run_cli("preset", "--preset", "ramanujan", "--out", str(out))
    assert cp.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["A"] == 0.5
    assert doc["terms"][0]["S"] == -2.0
    # the dump carries the prefactor quads and q_power, so evaluating it
    # reproduces the preset exactly (inputs.spec_source differs by design)
    for name in ALL_PRESETS:
        dump = tmp_path / f"{name}.json"
        assert run_cli("preset", "--preset", name, "--out", str(dump)).returncode == 0
        results = []
        for source in (("--spec", str(dump)), ("--preset", name)):
            cp = run_cli("eval", *source, "--t", "0.1,0.05")
            assert cp.returncode == 0, cp.stderr
            results.append(json.dumps(json.loads(cp.stdout)["results"]))
        assert results[0] == results[1], name


def test_verify_euler_csv(tmp_path):
    out = tmp_path / "euler.csv"
    cp = run_cli("verify", "--preset", "euler", "--t", "0.1,0.05,0.025",
                 "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,log_sum,log_integral,log_asym,ratio_sum_integral,ratio_sum_asym"
    assert len(lines) == 4
    for row in lines[1:]:
        fields = row.split(",")
        assert len(fields) == 6
        ratio = float(fields[4])
        assert abs(ratio - 1.0) <= 1e-3


def test_verify_output_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        cp = run_cli("verify", "--preset", "f0", "--t", "0.1,0.05", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
    assert a.read_bytes() == b.read_bytes()


def test_verify_spec_file_matches_preset(tmp_path):
    spec = write_spec(tmp_path, RAM_DOC)
    out1 = tmp_path / "file.csv"
    out2 = tmp_path / "preset.csv"
    assert run_cli("verify", "--spec", spec, "--t", "0.1,0.05",
                   "--out", str(out1)).returncode == 0
    assert run_cli("verify", "--preset", "ramanujan", "--t", "0.1,0.05",
                   "--out", str(out2)).returncode == 0
    assert out1.read_text().splitlines()[1:] == out2.read_text().splitlines()[1:]


def test_verify_asym_ratio_approaches_one(tmp_path):
    out = tmp_path / "ram.csv"
    cp = run_cli("verify", "--preset", "ramanujan", "--t", "0.1,0.05,0.025",
                 "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    gaps = [abs(float(row.split(",")[5]) - 1.0)
            for row in out.read_text().strip().splitlines()[1:]]
    assert gaps[0] > gaps[1] > gaps[2]


def test_eval_applies_preset_extra_factor(tmp_path):
    p = get_preset("phi-minus")
    out = tmp_path / "phi.json"
    cp = run_cli("eval", "--preset", "phi-minus", "--t", "0.05",
                 "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    got = json.loads(out.read_text())["results"]["log_value"][0]
    [[(want, _)]] = grid_rows(p.series, p.prefactor, p.q_power, [0.05], ("sum",))
    assert got == pytest.approx(want, abs=1e-12)


def test_eval_json_fields(tmp_path):
    out = tmp_path / "eval.json"
    cp = run_cli("eval", "--preset", "euler", "--t", "0.05", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(out.read_text())
    assert doc["command"] == "eval"
    assert doc["inputs"]["t_grid"] == [0.05]
    assert doc["results"]["sign"] == [1]
    assert abs(doc["results"]["log_value"][0]) < 1e-10
    # the summed window and the certified mass it leaves out, per t
    diag = doc["results"]["diagnostics"]["t=0.050000000000000003"]
    assert 0 <= diag["m_lo"] < diag["m_hi"]
    assert diag["left_out_log"] <= math.log(1e-18)


def test_asym_json_fields(tmp_path):
    out = tmp_path / "asym.json"
    cp = run_cli("asym", "--preset", "ramanujan", "--t", "0.02", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(out.read_text())
    row = doc["results"]["rows"][0]
    assert row["rate"] == pytest.approx(math.pi ** 2 / 5.0, rel=1e-9)
    assert doc["results"]["branch"] == "peak"
    # 17 significant digits round-trip binary64
    assert float(f"{row['log_value']:.17g}") == row["log_value"]


def test_bad_json_is_usage_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    cp = run_cli("eval", "--spec", str(p), "--t", "0.05")
    assert cp.returncode == 1
    assert "invalid JSON" in cp.stderr
    assert cp.stdout == ""


def test_domain_triple_rejected(tmp_path):
    spec = write_spec(tmp_path, {"A": 0, "B": 0, "v": 0,
                                 "quads": [{"a": 1, "b": 1, "c": 1, "d": 0, "S": 1}]})
    cp = run_cli("eval", "--spec", spec, "--t", "0.05")
    assert cp.returncode == 1
    assert "domain triple" in cp.stderr


def test_quad_invariant_names_inequality(tmp_path):
    spec = write_spec(tmp_path, {"A": 1, "B": 0, "v": 0,
                                 "quads": [{"a": 1, "b": 1, "c": 1, "d": -1, "S": 1}]})
    cp = run_cli("eval", "--spec", spec, "--t", "0.05")
    assert cp.returncode == 1
    assert "a+bd>0" in cp.stderr


NEG_A = {"a": -0.5, "b": 1, "c": 1, "d": 1, "S": 1}     # a + bd = 0.5 > 0


@pytest.mark.parametrize("doc, where", [
    ({"A": 1, "B": 0, "v": 0, "quads": [NEG_A]}, "quad 0"),
    ({"A": 1, "B": 0, "v": 0, "terms": [{"alpha": 1, "beta": 1, "gamma": 1, "S": -1}],
      "prefactor_quads": [NEG_A]}, "prefactor quad 0")], ids=["quad", "prefactor"])
def test_quad_needs_positive_a(tmp_path, doc, where):
    # every (q^a;q^b)_inf is positive only for a > 0
    spec = write_spec(tmp_path, doc)
    for command in ("eval", "integral", "asym", "verify"):
        cp = run_cli(command, "--spec", spec, "--t", "0.01,0.001")
        assert (cp.returncode, cp.stdout) == (1, ""), (command, cp.stderr)
        assert cp.stderr == f"error: {spec}: {where}: QuadTerm needs a>0, got -0.5\n"


def test_hypothesis_failure_exit_2(tmp_path):
    spec = write_spec(tmp_path, {"A": 0, "B": 0, "v": -1,
                                 "terms": [{"alpha": 1, "beta": 1, "gamma": 1,
                                            "S": 1}]})
    cp = run_cli("asym", "--spec", spec, "--t", "0.05")
    assert cp.returncode == 2
    assert "hypothesis" in cp.stderr.lower()


def test_hypothesis_split_by_route(tmp_path):
    # analyse refuses the failed hypothesis, so the asymptotic routes do;
    # summation and quadrature need no analysis
    spec = write_spec(tmp_path, {"A": 0, "B": 0, "v": -1,
                                 "terms": [{"alpha": 1, "beta": 1, "gamma": 1,
                                            "S": 1}]})
    for command, status in (("eval", 0), ("integral", 0), ("asym", 2),
                            ("verify", 2)):
        cp = run_cli(command, "--spec", spec, "--t", "0.05")
        assert cp.returncode == status, (command, cp.stderr)


def test_balanced_hypothesis_by_limit(tmp_path):
    # partial theta: the log coefficient is balanced (no terms) and the
    # slope tends to v = 0.3 > 0 at 0+, though it turns negative at u = 0.3
    spec = write_spec(tmp_path, {"A": 0.5, "B": 0, "v": 0.3, "terms": []})
    for command in ("asym", "verify"):
        cp = run_cli(command, "--spec", spec, "--t", "0.05,0.01,0.001")
        assert cp.returncode == 0, (command, cp.stderr)
    last = cp.stdout.splitlines()[-1].split(",")
    assert abs(float(last[-1]) - 1.0) <= 1e-12      # ratio_sum_asym at t = 1e-3


@pytest.mark.parametrize("A, status", [(0.48, 0), (0.52, 2)])
def test_balanced_hypothesis_by_slope_series(tmp_path, A, status):
    # slope sum and limit both vanish; the slope is (1 - 2A) u - u^2/4 + ...
    # at 0+, rising from 0 for A = 0.48 though it turns negative at u = 0.16
    doc = json.loads((Path(__file__).parent / "data" / "balanced_slope.json").read_text())
    spec = write_spec(tmp_path, {**doc, "A": A})
    for command in ("asym", "verify"):
        cp = run_cli(command, "--spec", spec, "--t", "0.01,0.001")
        assert cp.returncode == status, (command, cp.stderr)


def test_flat_tail_split_by_route():
    # the expansion does not cover this flat tail's maximum of height
    # 4e-16 at u = 24.2, so the routes that analyse the phase fail; the
    # exact routes take no analysis
    spec = str(Path(__file__).parent / "data" / "flat_mixed_sign.json")
    for command, status in (("eval", 0), ("integral", 0), ("asym", 3),
                            ("verify", 3)):
        cp = run_cli(command, "--spec", spec, "--t", "0.01,0.001")
        assert cp.returncode == status, (command, cp.stderr)


QBINOMIAL_DOC = {"A": 0, "B": 1.5, "v": 0, "quads": [{"a": 0.5, "b": 1, "c": 1, "d": 0, "S": -1},
                                                   {"a": 1, "b": 1, "c": 1, "d": 0, "S": 1}]}


@pytest.mark.parametrize("command", ["verify", "asym"])
@pytest.mark.parametrize("source, status, stderr", [
    ("s_positive.json", 2, "hypothesis failure: increasing-near-zero hypothesis fails: "
     "sum alpha_j f_j < 0 forces -inf slope at 0+\n"),
    ("q-binomial", 3, "numeric failure: no interior maximum and no applicable tail "
     "branch; the expansion machinery does not cover this spec\n")],
    ids=["s-positive", "q-binomial"])
def test_refusal_before_rows(command, source, status, stderr, tmp_path, monkeypatch, capsys):
    # whether the expansion covers a spec depends on the spec alone: analyse
    # refuses it before any row pays for a product, ladder, sum or integral
    calls = []

    def spy(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    for name in ("prefactor_exact", "mass_ladder", "series_sum", "quad_integral"):
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    spec = (str(DATA / source) if source.endswith(".json")
            else write_spec(tmp_path, QBINOMIAL_DOC))
    assert main([command, "--spec", spec, "--t", "0.01,0.001"]) == status
    assert (capsys.readouterr(), calls) == (("", stderr), [])


def test_laplace_constant_past_exp_range(tmp_path):
    # the level-0 phase at this spec's maximum (u = 9549, near 1/A) passes
    # 709, so the Laplace constant is carried as its log; the maximum lies
    # past the sum's reach, which verify reports as a numeric failure
    spec = write_spec(tmp_path, {
        "A": 1.3166787713471124e-4, "B": -0.4841935070399459, "v": 2.514660092311006,
        "terms": [{"alpha": 0.8941470779754594, "beta": 2.5791443887892336,
                   "gamma": 0.9305488678947569, "S": 4.960649845550803},
                  {"alpha": 1.0425430644606883, "beta": 0.30816867527960456,
                   "gamma": 0.7349657244979186, "S": -0.5315647109455164}]})
    cp = run_cli("asym", "--spec", spec, "--t", "0.01,0.005")
    assert cp.returncode == 0, cp.stderr
    rows = json.loads(cp.stdout)["results"]["rows"]
    assert len(rows) == 2 and all(math.isfinite(r[k]) for r in rows for k in r)
    assert rows[0]["log_constant"] == pytest.approx(4628.73, abs=0.01)
    cp = run_cli("verify", "--spec", spec, "--t", "0.01,0.005")
    assert (cp.returncode, cp.stdout) == (3, "")
    assert "series terms still significant at m*t = 2000.0" in cp.stderr


@pytest.mark.parametrize("name", ["ramanujan", "phi-minus"])
def test_rows_independent_of_grid(name):
    # one analysis serves every t: each row of a two-point run equals the
    # row of a run at that t alone (peak branch and tail branch)
    asym = run_cli("asym", "--preset", name, "--t", "0.05,0.02")
    verify = run_cli("verify", "--preset", name, "--t", "0.05,0.02")
    assert asym.returncode == 0, asym.stderr
    asym_rows = json.loads(asym.stdout)["results"]["rows"]
    verify_rows = verify.stdout.splitlines()[1:]
    for i, t in enumerate(("0.05", "0.02")):
        alone = run_cli("asym", "--preset", name, "--t", t)
        assert alone.returncode == 0, alone.stderr
        assert (json.dumps(json.loads(alone.stdout)["results"]["rows"][0])
                == json.dumps(asym_rows[i]))
        alone = run_cli("verify", "--preset", name, "--t", t)
        assert alone.returncode == 0, alone.stderr
        assert alone.stdout.splitlines()[1] == verify_rows[i]


@pytest.mark.parametrize("flags", [
    ("--order-L", "-1"),
    ("--t-grid=-0.1:0.1:3:log",),
    ("--t-grid", "0:0.1:3:log"),
    ("--t", ","),
    ("--t", "0.05,0.05"),
    ("--t-grid", "0.1:0.1:3"),
], ids=["negative-order", "log-grid-negative-start", "log-grid-zero-start",
        "empty-t", "repeated-t", "repeated-t-grid"])
def test_bad_input_is_usage_error(flags):
    cp = run_cli("verify", "--preset", "euler", *flags)
    assert cp.returncode == 1, cp.stderr
    assert cp.stderr.startswith("error: ")
    assert cp.stdout == ""


RAM_QUAD = '{"a": 1, "b": 1, "c": 1, "d": 0, "S": 2}'


@pytest.mark.parametrize("text", [
    '{"A": 0.5, "B": 0.5, "v": 0, "quads": 5}',
    '{"A": 0.5, "B": 0.5, "v": 0, "quads": [3]}',
    '{"A": 0.5, "B": 0.5, "v": 0, "terms": [5]}',
    '{"A": 0.5, "B": 0.5, "v": 0, "quads": [{"a": "x", "b": 1, "c": 1, "d": 0, "S": 2}]}',
    '{"A": true, "B": 0.5, "v": 0, "quads": [%s]}' % RAM_QUAD,
    '{"A": 0.5, "B": 0.5, "v": 0, "quads": [{"a": 1, "b": 1, "c": 1, "d": 0, "S": "2"}]}',
    '{"A": 1e400, "B": 0.5, "v": 0, "quads": [%s]}' % RAM_QUAD,
    '{"A": 0.5, "B": 0.5, "v": 0, "q_power": NaN, "quads": [%s]}' % RAM_QUAD,
    '{"A": 0.5, "B": 0.5, "v": 0, "q_power": %s, "quads": [%s]}' % ("9" * 400, RAM_QUAD),
], ids=["quads-number", "quad-number", "term-number", "string-a", "bool-A",
        "string-S", "overflow-A", "nan-q_power", "huge-int-q_power"])
def test_malformed_spec_is_usage_error(tmp_path, text):
    # every field must be a finite JSON number, every entry an object
    p = tmp_path / "spec.json"
    p.write_text(text)
    cp = run_cli("eval", "--spec", str(p), "--t", "0.05")
    assert cp.returncode == 1, cp.stderr
    assert cp.stderr.startswith("error: ")
    assert cp.stdout == ""


@pytest.mark.parametrize("command,preset,flag,value,status", [
    ("asym", "ramanujan", "--order-L", "11", 1),
    ("verify", "ramanujan", "--order-L", "11", 1),
    ("integral", "ramanujan", "--order-L", "11", 0),
    ("asym", "ramanujan", "--order-L", "10", 0),
    ("asym", "euler", "--order-L", "11", 0),
    ("asym", "ramanujan", "--order-M", "64", 1),
    ("verify", "ramanujan", "--order-M", "64", 1),
    ("integral", "ramanujan", "--order-M", "64", 0),
    ("asym", "ramanujan", "--order-M", "63", 0),
    ("asym", "euler", "--order-M", "64", 0),
], ids=["asym-L", "verify-L", "integral-L", "asym-L-largest", "tail-only-L",
        "asym-M", "verify-M", "integral-M", "asym-M-largest", "no-prefactor-M"])
def test_order_limits(command, preset, flag, value, status):
    # an order-1 peak takes derivatives up to 6L <= 64; the prefactor reads
    # Bernoulli numbers up to index M+1 <= 64
    cp = run_cli(command, "--preset", preset, "--t", "0.05", flag, value)
    assert cp.returncode == status, cp.stderr
    if status:
        largest = {"--order-L": "10", "--order-M": "63"}[flag]
        assert cp.stderr.startswith(f"error: {flag} must be <= {largest}")
        assert cp.stdout == ""

@pytest.mark.parametrize("command", ["integral", "verify"])
def test_rel_tol_is_usage_error(command):
    # a tolerance the quadrature refuses is a flag error, found before any row
    for rel_tol in ("1e-14", "nan", "inf"):
        cp = run_cli(command, "--preset", "euler", "--t", "0.05", "--rel-tol", rel_tol)
        assert (cp.returncode, cp.stdout, cp.stderr) == (
            1, "", "error: --rel-tol must be finite and >= 1e-12\n"), rel_tol


SIGN_DOC = {"A": 0.25, "B": -0.2, "v": -0.9,
            "terms": [{"alpha": 0.75, "beta": 2, "gamma": 2.3, "S": -3},
                      {"alpha": 1.7, "beta": 2.2, "gamma": 0.7, "S": 2},
                      {"alpha": 0.45, "beta": 2.3, "gamma": 2.85, "S": -3}]}


def test_verify_labels_the_failing_row(tmp_path):
    # the expansion takes the whole grid in one call; its curvature at the
    # peak is still >= 0 at t = 0.4, and verify names that row as a run of
    # that row alone would
    spec = write_spec(tmp_path, SIGN_DOC)
    message = "order-2 derivative nonnegative at the peak (t=0.4 too large)\n"
    cp = run_cli("verify", "--spec", spec, "--t", "0.05,0.4,0.1")
    assert cp.returncode == 3
    assert cp.stdout == ""
    assert cp.stderr == "numeric failure: row t=0.40000000000000002: " + message
    cp = run_cli("asym", "--spec", spec, "--t", "0.05,0.4,0.1")
    assert (cp.returncode, cp.stderr) == (3, "numeric failure: " + message)
    assert run_cli("verify", "--spec", spec, "--t", "0.1,0.05").returncode == 0


def test_mutually_exclusive_sources(tmp_path):
    cp = run_cli("eval", "--preset", "euler", "--spec", "x.json")
    assert cp.returncode == 1


def test_t_grid_log_spacing(tmp_path):
    out = tmp_path / "g.json"
    cp = run_cli("eval", "--preset", "euler", "--t-grid", "0.1:0.025:3:log",
                 "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    grid = json.loads(out.read_text())["inputs"]["t_grid"]
    assert grid == pytest.approx([0.1, 0.05, 0.025], rel=1e-9)


@pytest.mark.parametrize("source,grid", [
    (("--preset", "f0"), "0.02,0.01,0.005,0.0025"),
    (("--preset", "rphis"), "0.02,0.01,0.005,0.0025"),
    (("--preset", "euler"), "0.02,0.01,0.005,0.0025"),
    (("--preset", "euler-b2"), "0.02,0.01,0.005,0.0025"),
    (("--preset", "simple-r"), "0.001,0.0001"),
    (("--preset", "euler-b2"), "0.001,0.0001"),
    (("--preset", "euler-b2"), "0.00001,0.000001"),
    (("--spec", str(Path(__file__).parent / "data" / "two_peak.json")), "0.01,0.001"),
    (("--preset", "euler"), "0.01,0.001"),
    (("--preset", "euler"), "0.02,0.002"),
    (("--preset", "euler"), "0.001,0.0001"),
    (("--preset", "euler"), "0.01,0.001,0.0001"),
    (("--preset", "euler"), "0.1,0.05,0.025,0.0125"),
], ids=["f0", "rphis", "euler", "euler-b2", "simple-r-small", "euler-b2-small",
        "euler-b2-reach", "two-peak", "euler-decade", "euler-2-decade",
        "euler-small", "euler-3-rows", "euler-halving"])
def test_verify_round_off_passes(source, grid):
    # every row agrees to 1-4 ulp of its logs, so deviations that do not
    # shrink sit under their floors: exit 0, nothing on stderr
    cp = run_cli("verify", *source, "--t", grid)
    assert cp.returncode == 0, cp.stderr
    assert cp.stderr == ""
    rows = cp.stdout.splitlines()[1:]
    assert len(rows) == len(grid.split(","))


def test_verdict_floor():
    from qasym.cli import _verdict
    ts = [0.1, 0.01, 0.001]
    floors = [1e-11, 1e-11, 1e-11]
    assert _verdict(ts, [1e-5, 1e-8, 1e-12], floors) is None     # shrinking
    assert _verdict(ts, [1e-5, 0.0, 3e-12], floors) is None       # under floors
    msg = _verdict(ts, [1e-5, 1e-9, 1e-8], floors)                # grows above
    assert msg.startswith("verify: sum/integral deviations are not strictly shrinking: ")
    assert msg.endswith("row t=0.001: deviation 1e-08, floor 1e-11 "
                        "(row t=0.01: 1e-09, floor 1e-11)")
    # one deviation under its floor does not excuse a step the other is above
    assert _verdict(ts[:2], [1e-12, 5e-11], floors[:2]) is not None
    assert "\n" not in msg


# the JSON writer against the stdlib: plain numbers of every kind, their
# look-alikes (bool, np.float64) and strings, lists of numbers and rows of
# the same keys, nested in lists, tuples and dicts
_NUMBERS = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.floats(),
                     st.sampled_from([0.0, -0.0, 1, 1.0, math.nan, math.inf, -math.inf]))
# text that hits the writer's seams: its ", " split, its "%" rows, escapes
_TEXT = st.one_of(st.text(st.sampled_from(", %sa\u00e9\x01\u2603"), max_size=4), st.text())
_LOOKALIKES = st.one_of(st.booleans(), st.floats().map(np.float64))
_SCALARS = st.one_of(_NUMBERS, st.none(), _LOOKALIKES, _TEXT)
# a row column holds numbers, numbers or text, numbers or look-alikes, or
# one object repeated
_COLUMNS = st.one_of(st.just(_NUMBERS), st.just(st.one_of(_NUMBERS, _TEXT)),
                     st.just(st.one_of(_NUMBERS, _LOOKALIKES)),
                     st.one_of(_NUMBERS, _LOOKALIKES).map(st.just))
_ROWS = st.dictionaries(_TEXT, _COLUMNS, min_size=1, max_size=4).flatmap(
    lambda cols: st.lists(st.fixed_dictionaries(cols), min_size=1, max_size=4))
# a list of numbers, then rows holding its objects in its order and in
# another, as asym's rows hold the objects of t_grid and log_value
_SHARING = st.lists(_NUMBERS, min_size=1, max_size=5).flatmap(
    lambda xs: st.tuples(st.just(xs), st.permutations(xs))).map(
    lambda d: {"a": d[0], "b": [{"x": x, "y": y} for x, y in zip(*d)]})
_DOCS = st.recursive(
    st.one_of(_SCALARS, st.lists(_NUMBERS), _ROWS, _SHARING),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20)
_SHARED = 0.1 + 0.2          # one float object met in several places
_TS = [0.1, 0.05, 0.025]


@given(doc=_DOCS)
@example(doc={"t": [_SHARED, -0.0, 2 ** 60], "rows": [
    {"t": _SHARED, "%s": 1, "s\u00e9\x01": -0.0}, {"t": _SHARED, "%s": 1.0, "s\u00e9\x01": 1}]})
@example(doc=[[{"a": 1, "b": "x, y"}, {"a": 2, "b": 3}], [1, True], [1.5, np.float64(0.5)]])
@example(doc=[[], {}, (), [{}], [{"a": 1}, {"b": 2}], [{"a": 1}, {"a": [1]}], ("x", 1)])
# a row column repeating one object
@example(doc=[[{"a": x, "b": 0.5}, {"a": x, "b": 1.5}] for x in (math.nan, -0.0, True, 1)])
# a column of an earlier list's objects, in its order and in another
@example(doc={"a": _TS, "b": [{"t": t, "u": u} for t, u in zip(_TS, _TS[::-1])]})
# equal but distinct zeros in one column, and in an earlier list
@example(doc={"a": [0.0, -0.0], "b": [{"z": -0.0}, {"z": 0.0}], "c": [{"z": 0.0}, {"z": 0.0}]})
# ints past 2^53 and past the float range, where math.isfinite overflows
@example(doc=[[2 ** 53 + 1, 0.5], [10 ** 400, 0.5], [10 ** 400, 10 ** 401],
              [{"a": 10 ** 400}, {"a": 1.5}], [{"a": 2 ** 60 + 1}, {"a": -0.5}]])
# look-alikes inside a column
@example(doc=[[{"a": 0.5}, {"a": np.float64(0.5)}], [{"a": 1}, {"a": True}],
              [{"a": False}, {"a": False}]])
# -inf, as eval and integral's cut_mass_log can hold, and inf repeated
@example(doc={"m": [-math.inf, 0.5], "r": [{"c": -math.inf}, {"c": -1.5}],
              "s": [{"c": math.inf}, {"c": math.inf}]})
@settings(max_examples=400, deadline=None)
def test_writer_is_the_stdlib_layout(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


# plain numbers, with ints past 2^53 and past the float range
_PLAIN = st.one_of(_NUMBERS, st.sampled_from([2 ** 53 + 1, 10 ** 400, -10 ** 401]))


@st.composite
def _table_docs(draw):
    # lists of n numbers, and tables of n rows whose columns are new lists,
    # one shared number or one of those lists (as asym's rows share t_grid
    # and log_value), under keys whose order decides what is written first
    n = draw(st.integers(0, 3))
    lists = draw(st.lists(st.lists(_PLAIN, min_size=n, max_size=n), max_size=2))
    column = st.one_of(st.lists(_PLAIN, min_size=n, max_size=n), _PLAIN,
                       *([st.sampled_from(lists)] if lists else []))
    tables = draw(st.lists(st.builds(Table, st.just(n), st.dictionaries(
        _TEXT, column, max_size=4)), min_size=1, max_size=3))
    parts = [*lists, *tables, tables]
    keys = draw(st.lists(_TEXT, min_size=len(parts), max_size=len(parts), unique=True))
    return dict(zip(keys, parts))


def _as_rows(doc):
    # the document with each Table written out as its list of row dicts
    if isinstance(doc, Table):
        return [{k: v[j] if isinstance(v, list) else v for k, v in doc.columns.items()}
                for j in range(doc.n)]
    if isinstance(doc, dict):
        return {k: _as_rows(v) for k, v in doc.items()}
    return [_as_rows(x) for x in doc] if isinstance(doc, (list, tuple)) else doc


_GRID = [0.1, 0.05]
_VALUES = [1.5, -0.0]


@given(doc=_table_docs())
# asym's shape: t and log_value columns written before the rows
@example(doc={"a": _GRID, "log_value": _VALUES, "rows": Table(2, {
    "t": _GRID, "log_value": _VALUES, "sign": 1, "rate": -0.0, "f": [10 ** 400, 2 ** 60]})})
# one row, no row, no column, and non-finite numbers in either form
@example(doc={"a": Table(1, {"x": [math.nan], "y": math.inf}), "b": Table(0, {"x": []}),
              "c": Table(2, {}), "d": Table(2, {"x": [-math.inf, 0.5], "y": math.nan})})
@settings(max_examples=400, deadline=None)
def test_writer_writes_tables_as_rows(doc):
    assert _dumps(doc) == json.dumps(_as_rows(doc), indent=2, sort_keys=True)


def test_writer_leaves_no_garbage_cycle():
    # a cycle would keep every number's text alive until the collector ran,
    # which a run of few container allocations (asym's rows) seldom wakes
    doc = {"a": _GRID, "rows": Table(2, {"t": _GRID, "x": [1.5, 2.5], "s": 1})}
    gc.collect()
    gc.disable()
    try:
        _dumps(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()


TWO_PEAK = str(Path(__file__).parent / "data" / "two_peak.json")


def run_strict(*args: str) -> subprocess.CompletedProcess:
    # the CLI with every warning an error, as the CI smoke tests run it
    cmd = [sys.executable, "-W", "error", "-m", "qasym", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


@pytest.mark.parametrize("source", [("--preset", "ramanujan"), ("--preset", "euler-b2"),
                                    ("--spec", TWO_PEAK)], ids=["ramanujan", "euler-b2",
                                                                "two-peak"])
def test_asym_sweep_output_laws(source, tmp_path):
    # the benchmark's 400-point grid: stdout is the stdlib's canonical
    # layout of itself, and 20 sampled rows are the rows of one-t runs
    cp = run_strict("asym", *source, "--t-grid", "0.1:0.0001:400:log")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == json.dumps(json.loads(cp.stdout), indent=2, sort_keys=True) + "\n"
    rows = json.loads(cp.stdout, parse_float=str)["results"]["rows"]
    out = tmp_path / "alone.json"
    for row in rows[::21]:
        assert main(["asym", *source, "--t", row["t"], "--out", str(out)]) == 0
        assert json.loads(out.read_text(), parse_float=str)["results"]["rows"] == [row]


@pytest.mark.parametrize("args, status, stderr", [
    (("asym", "--preset", "ramanujan", "--t", "1e-30"), 3,
     "numeric failure: asymptotic value out of float range at t=1e-30\n"),
    (("asym", "--preset", "f0", "--t", "0.01,1e-100"), 3,
     "numeric failure: asymptotic value out of float range at t=1e-100\n"),
    (("asym", "--preset", "simple-r", "--t", "1e-200"), 3,
     "numeric failure: asymptotic value out of float range at t=1e-200\n"),
    (("verify", "--preset", "rphis", "--t", "0.01,1e-30"), 3,
     "numeric failure: row t=1.0000000000000001e-30: "),
    (("verify", "--preset", "euler", "--t", "0.01,1e-30"), 3,
     "numeric failure: row t=1.0000000000000001e-30: t=1e-30 is below the "
     "summation ladder's reach\n"),
    (("verify", "--preset", "ramanujan", "--t", "0.01,1e-30"), 3,
     "numeric failure: row t=1.0000000000000001e-30: exact prefactor: (a;q)_inf "
     "needs 4.14e+31 factors, more than 10000000\n"),
    (("eval", "--preset", "ramanujan", "--t", "1e-15"), 3,
     "numeric failure: row t=1.0000000000000001e-15: exact prefactor: (a;q)_inf "
     "needs 4.14e+16 factors, more than 10000000\n"),
    (("eval", "--preset", "f0", "--t", "1e-15"), 3,
     "numeric failure: row t=1.0000000000000001e-15: exact sum: the window "
     "needs 123858762357079 terms, more than 134217728\n"),
    (("verify", "--preset", "f0", "--t", "0.01,1e-15"), 3,
     "numeric failure: row t=1.0000000000000001e-15: exact sum: the window "
     "needs 123858762357079 terms, more than 134217728\n"),
], ids=["asym-1e-30", "asym-1e-100", "asym-1e-200", "verify-peak", "verify-tail",
        "verify-prefactor", "eval-prefactor", "eval-sum", "verify-sum"])
def test_tiny_t_is_numeric_failure(args, status, stderr):
    cp = run_strict(*args)
    assert (cp.returncode, cp.stderr[:len(stderr)]) == (status, stderr), cp.stderr
    assert "Traceback" not in cp.stderr


@pytest.mark.parametrize("args", [("integral", "--preset", "euler", "--t", "0.05"),
                                  ("asym", "--preset", "euler", "--t", "0.05"),
                                  ("verify", "--preset", "euler", "--t", "0.05,0.01"),
                                  ("preset", "--preset", "euler")],
                         ids=["integral", "asym", "verify", "preset"])
def test_unwritable_out_is_usage_error(args, tmp_path):
    path = str(tmp_path / "missing" / "out.txt")
    cp = run_strict(*args, "--out", path)
    assert cp.returncode == 1, cp.stderr
    assert cp.stderr.startswith(f"error: cannot write output file {path!r}: ")
    assert cp.stdout == "" and "Traceback" not in cp.stderr


def test_routes_load_no_exact_rationals():
    # the library's Bernoulli data is integer pairs: importing the CLI and
    # running verify and asym (ramanujan's prefactor law, and the balanced
    # spec's hypothesis series) load neither fractions nor decimal
    spec = str(Path(__file__).parent / "data" / "balanced_slope.json")
    code = ("import contextlib, io, sys\n"
            "from qasym.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = (main(['verify', '--preset', 'ramanujan', '--t', '0.05,0.01']),\n"
            f"              main(['asym', '--spec', {spec!r}, '--t', '0.01,0.001']))\n"
            "print(status, [m for m in ('fractions', 'decimal') if m in sys.modules])\n")
    cp = subprocess.run([sys.executable, "-W", "error", "-c", code],
                        capture_output=True, text=True)
    assert (cp.returncode, cp.stdout) == (0, "(0, 0) []\n"), cp.stderr


@pytest.mark.parametrize("routes", [("sum",), ("integral",), ("asym",),
                                    ("sum", "integral", "asym")],
                         ids=["sum", "integral", "asym", "all"])
def test_grid_rows_of_an_empty_grid(routes):
    # ramanujan has a constant product, so the exact routes build one
    p = get_preset("ramanujan")
    an = analyse(p.series, p.prefactor)
    assert list(grid_rows(p.series, p.prefactor, p.q_power, [], routes, an=an)) == []


def _grid_outcome(series, prefactor, q_power, ts, routes, an):
    # the rows grid_rows yields, then the error that ends them, if one does
    out = []
    try:
        out.extend(grid_rows(series, prefactor, q_power, ts, routes, an=an))
    except QasymError as e:
        out.append(f"{type(e).__name__}: {e}")
    return out


GRID_SOURCES = [("preset", name) for name in ALL_PRESETS] + [
    ("spec", path.name) for path in sorted(DATA.glob("*.json"))]


@pytest.mark.parametrize("routes", [("sum",), ("integral",), ("sum", "integral", "asym")],
                         ids=["sum", "integral", "all"])
@pytest.mark.parametrize("kind, name", GRID_SOURCES, ids=[n for _, n in GRID_SOURCES])
def test_grid_rows_keep_their_bits(kind, name, routes):
    # each row of a grid has the bits of a one-t call at its t, and of the
    # route's library function; an exact total folds in the constant product
    # and q^q_power as (value + product) - q_power t
    if kind == "preset":
        p = get_preset(name)
        series, prefactor, q_power = p.series, p.prefactor, p.q_power
    else:
        series, prefactor, q_power = load_spec(str(DATA / name))
    an = None
    if "asym" in routes:
        try:
            an = analyse(series, prefactor)
        except QasymError:      # verify stops before its rows, as asym does
            assert name in ("flat_mixed_sign.json", "s_positive.json")
            return
    ts = (0.05, 0.01, 0.001)
    grid = _grid_outcome(series, prefactor, q_power, ts, routes, an)
    assert len(grid) == 3 or isinstance(grid[-1], str)
    for t, got in zip(ts, grid):
        assert repr(_grid_outcome(series, prefactor, q_power, (t,), routes, an)) == repr([got])
        if isinstance(got, str):
            continue
        for route, row in zip(routes, got):
            if route == "asym":
                want = AsymptoticResult._make(
                    col[0] for col in asym_from_parts(an, (t,), q_power=q_power))
                total = want.log_value
            else:
                want = series_sum(series, t) if route == "sum" else integral(series, t)
                total = (want.log_value + prefactor_exact(prefactor, t)) - q_power * t
            assert repr(row) == repr((total, want)), route
