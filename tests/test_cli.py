"""Command line behavior: round trips, exit codes, deterministic sweeps."""

import contextlib
import io

import pytest

import riskroute as rr
from riskroute import cli
from riskroute import serialization as ser
from riskroute.cli import main


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_generate_solve_analyze_round_trip(tmp_path):
    ipath = tmp_path / "g2.txt"
    opath = tmp_path / "g2.oracle.txt"
    code, _, _ = _run(["generate", "--family", "recursive", "--level", "2",
                       "--out", str(ipath), "--oracle-out", str(opath)])
    assert code == 0
    inst = ser.read_instance(ipath)
    assert inst.vertices == 8
    oracle, meta = ser.read_oracle(opath)
    assert meta["level"] == "2"
    assert oracle.expected_pra == pytest.approx(5.0)

    code, out, _ = _run(["solve", "--in", str(ipath), "--mode", "both",
                         "--out", str(tmp_path / "res")])
    assert code == 0
    assert "rawe: converged=True" in out
    rawe = ser.read_result(tmp_path / "res.rawe.txt")
    assert rawe.converged
    assert rawe.common_cost == pytest.approx(5.0, rel=1e-6)

    code, out, _ = _run(["analyze", "--in", str(ipath), "--bound", "eta"])
    assert code == 0
    assert "TopologicalEta" in out and "[ok]" in out


def test_generate_writes_to_stdout_when_no_out():
    code, out, _ = _run(["generate", "--family", "braess"])
    assert code == 0
    assert out.startswith(ser.INSTANCE_HEADER)
    inst = ser.loads_instance(out)
    assert inst.vertices == 4


def test_generate_oracle_requires_recursive_family(tmp_path):
    # the flags are checked before anything is written: no instance on
    # stdout or in --out, no oracle file
    for out_args in ([], ["--out", str(tmp_path / "b.txt")]):
        code, out, err = _run(["generate", "--family", "braess", *out_args,
                               "--oracle-out", str(tmp_path / "o.txt")])
        assert code == 2
        assert "recursive" in err
        assert out == ""
        assert not any(tmp_path.iterdir())


def test_missing_input_file_is_exit_2(tmp_path):
    code, _, err = _run(["solve", "--in", str(tmp_path / "nope.txt")])
    assert code == 2
    assert "error:" in err


def test_verify_passes_for_canonical_instances():
    code, out, _ = _run(["verify", "--level", "2", "--variant", "functional",
                         "--solve"])
    assert code == 0
    assert "closed_form_check: pass" in out
    assert "solver_pra" in out
    # one closed-form verdict, then the solver's
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "closed_form_check", "solver_pra"]


def test_verify_reports_unconverged_solve():
    # the risk-neutral solve of level 2 needs 49 iterations
    code, out, err = _run(["verify", "--level", "2", "--solve", "--max-iters", "40"])
    assert code == 1
    assert "error: equilibrium solver did not converge" in err
    assert "solver_pra" not in out


@pytest.mark.parametrize("r_a, r_n", [("2", "1"), ("100", "60")])
def test_verify_solve_routes_each_demand(r_a, r_n):
    # the risk-neutral solve routes r_n, as the oracle's risk-neutral flow does
    code, out, _ = _run(["verify", "--level", "2", "--r-a", r_a, "--r-n", r_n,
                         "--solve"])
    assert code == 0, out
    assert "closed_form_check: pass" in out
    assert "solver_pra:" in out and "[pass]" in out


def test_verify_solve_without_risk_neutral_demand_is_an_error():
    code, out, err = _run(["verify", "--level", "2", "--r-a", "2", "--r-n", "0",
                           "--solve"])
    assert code == 1
    assert "solver_pra" not in out
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: --solve needs --r-n > 0: with no risk-neutral demand "
        "the cost ratio is undefined"]


def test_sweep_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code, _, _ = _run(["sweep", "--what", "affine", "--count", "8",
                       "--out", str(a)])
    assert code == 0
    code, _, _ = _run(["sweep", "--what", "affine", "--count", "8",
                       "--out", str(b)])
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "# riskroute sweep v1"
    assert lines[1].split(",") == ["instance_id", "n", "level", "gamma",
                                   "kappa", "eta", "mu", "pra", "bound",
                                   "slack", "kind"]
    # 8 seeds x 3 bound kinds for the affine batch
    assert len(lines) == 2 + 24


def test_sweep_reports_tightest_instance(tmp_path):
    code, _, err = _run(["sweep", "--what", "braess", "--count", "4",
                         "--out", str(tmp_path / "c.csv")])
    assert code == 0
    assert "tightest instance:" in err


def test_sweep_skips_inapplicable_bounds(tmp_path, monkeypatch):
    # the level-1 recursive instance read as mean-stdev: its alternating
    # path has two forward runs, so StdevZeroAlt (pra 3 > bound 2) does not
    # apply and StdevOneAlt (pra 3 = bound 3) does.  Like `analyze`, the
    # sweep counts no violation and names the applicable row the tightest
    inst, _ = rr.build_recursive(rr.RecursiveFamilySpec(level=1))
    ms = rr.with_risk_model(inst, rr.RiskModel.MEAN_STDEV)
    monkeypatch.setitem(cli._SWEEP_FAMILIES, "series-parallel", (
        lambda seed: ms, (rr.BoundKind.STDEV_ZERO_ALT, rr.BoundKind.STDEV_ONE_ALT)))
    code, out, err = _run(["sweep", "--what", "series-parallel", "--count", "1"])
    assert code == 0, err
    assert [row.split(",")[-1] for row in out.splitlines()[2:]] == [
        "StdevZeroAlt", "StdevOneAlt"]
    [line] = err.splitlines()
    assert line.startswith("tightest instance: series-parallel-0/StdevOneAlt ratio=")

    path = tmp_path / "ms1.txt"
    ser.write_instance(path, ms)
    code, out, _ = _run(["analyze", "--in", str(path), "--bound", "stdev0"])
    assert code == 0
    assert "[VIOLATED] (inapplicable" in out


def test_sweep_leaves_out_unconverged_instances(tmp_path):
    out = tmp_path / "s.csv"
    code, _, err = _run(["sweep", "--what", "affine", "--count", "3",
                         "--max-iters", "0", "--out", str(out)])
    assert code == 1
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: affine-{seed} did not converge" for seed in range(3)]
    # header and column line only: no row comes from an unconverged solve
    assert len(out.read_text().splitlines()) == 2


BRAESS_FILE = """# riskroute instance v1
vertices :: 4
source :: 0
sink :: 3
demand :: {demand}
gamma :: {gamma}
risk_model :: mean-var
edge :: 0 :: 1 :: pwl 0.0,0.0 0.5,0.0 1.0,1.0 :: const 0.0
edge :: 1 :: 3 :: const 1.0 :: {risky}
edge :: 0 :: 2 :: const 1.0 :: const 1.0
edge :: 2 :: 3 :: pwl 0.0,0.0 0.5,0.0 1.0,1.0 :: const 0.0
edge :: 1 :: 2 :: const 1.0 :: const 0.0
"""


def _analyze_text(tmp_path, text):
    path = tmp_path / "braess.txt"
    path.write_text(text, encoding="utf-8")
    return _run(["analyze", "--in", str(path)])


def test_braess_file_analyzes(tmp_path):
    code, out, err = _analyze_text(tmp_path, BRAESS_FILE.format(
        demand="1.0", gamma="1.0", risky="const 1.0"))
    assert code == 0, err
    assert "TopologicalEta" in out


def test_zero_demand_is_an_input_error(tmp_path):
    # both equilibria route nothing, so the cost ratio is 0 / 0
    path = tmp_path / "zero.txt"
    path.write_text(BRAESS_FILE.format(demand="0.0", gamma="1.0", risky="const 1.0"),
                    encoding="utf-8")
    code, out, err = _run(["analyze", "--in", str(path)])
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: risk-neutral social cost is 0.0; the ratio is undefined"]


@pytest.mark.parametrize("field,value", [
    ("demand", "inf"), ("demand", "nan"), ("gamma", "inf"),
    ("risky", "const inf"), ("risky", "affine inf 0.0"),
    ("risky", "affine 0.0 inf"), ("risky", "poly 1.0 nan"),
    ("risky", "pwl 0.0,0.0 1.0,inf"), ("risky", "pwl 0.0,0.0 inf,1.0"),
])
def test_non_finite_numbers_are_input_errors(tmp_path, field, value):
    values = {"demand": "1.0", "gamma": "1.0", "risky": "const 1.0", field: value}
    code, _, err = _analyze_text(tmp_path, BRAESS_FILE.format(**values))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("old, new, message", [
    ("vertices :: 4", "vertices :: two", "error: vertices: expected int, got 'two'"),
    ("edge :: 1 :: 3", "edge :: a :: 3", "error: line 9: expected int, got 'a'"),
    ("edge :: 1 :: 2 :: const 1.0", "edge :: 1 :: 2 :: spline 1",
     "error: line 12: unknown function kind 'spline' in 'spline 1'"),
])
def test_non_numeric_integer_fields_are_input_errors(tmp_path, old, new, message):
    text = BRAESS_FILE.format(demand="1.0", gamma="1.0", risky="const 1.0")
    code, _, err = _analyze_text(tmp_path, text.replace(old, new))
    assert code == 2
    assert err.strip() == message


def test_directory_as_input_is_exit_2(tmp_path):
    code, _, err = _run(["analyze", "--in", str(tmp_path)])
    assert code == 2
    assert err.startswith("error:")


def test_out_dir_env_var_resolves_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("RISKROUTE_OUT_DIR", str(tmp_path))
    code, _, _ = _run(["generate", "--family", "braess", "--out", "rel.txt"])
    assert code == 0
    assert (tmp_path / "rel.txt").exists()


def test_gamma_zero_meanstdev_instance_meets_every_bound(tmp_path):
    # at gamma 0 both equilibria are one solve, so PRA 1 meets the bounds
    # 1 + eta * gamma * kappa = 1 exactly instead of missing them by noise
    path = tmp_path / "domino.txt"
    code, _, _ = _run(["generate", "--family", "domino", "--seed", "1",
                       "--risk-model", "mean-stdev", "--out", str(path)])
    assert code == 0
    ser.write_instance(path, rr.with_gamma(ser.read_instance(path), 0.0))
    code, out, err = _run(["analyze", "--in", str(path)])
    assert code == 0, out + err
    assert "VIOLATED" not in out


def _parallel_pairs_in_series(pairs):
    edges = tuple(rr.Edge(v, v + 1, rr.Affine(1.0, 1.0), rr.Constant(1.0))
                  for v in range(pairs) for _ in range(2))
    return rr.NetworkInstance(pairs + 1, edges, 0, pairs, 1.0, 1.0,
                              rr.RiskModel.MEAN_STDEV)


@pytest.mark.parametrize("argv", [["solve", "--mode", "rawe"], ["solve"], ["analyze"]])
def test_instance_over_the_path_cap_is_an_input_error(tmp_path, argv):
    # 13 pairs give 8,192 paths, more than the mean-stdev solver enumerates
    path = tmp_path / "pairs.txt"
    ser.write_instance(path, _parallel_pairs_in_series(13))
    code, out, err = _run([*argv, "--in", str(path)])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: more than 4096 simple source->sink paths (the enumeration cap)"]


@pytest.mark.parametrize("command", [["solve"], ["analyze"], ["verify", "--level", "2", "--solve"],
                                     ["sweep", "--what", "braess", "--count", "1"]])
@pytest.mark.parametrize("flag, value, message", [
    ("--tolerance", "nan", "error: tolerance must be finite and nonnegative, got nan"),
    ("--tolerance", "-1", "error: tolerance must be finite and nonnegative, got -1.0"),
    ("--tolerance", "inf", "error: tolerance must be finite and nonnegative, got inf"),
    ("--max-iters", "-5", "error: max_iterations must be nonnegative, got -5"),
])
def test_meaningless_solver_flags_are_input_errors(tmp_path, command, flag, value, message):
    # nothing is solved or printed: one error line and exit 2
    path = tmp_path / "b.txt"
    ser.write_instance(path, rr.build_braess())
    if command[0] in ("solve", "analyze"):
        command = [*command, "--in", str(path)]
    code, out, err = _run([*command, flag, value])
    assert (code, out, err.splitlines()) == (2, "", [message])


@pytest.mark.parametrize("value", ["nan", "-0.5", "inf"])
def test_meaningless_pra_tolerance_is_an_input_error(value):
    code, out, err = _run(["verify", "--level", "2", "--solve", "--pra-tolerance", value])
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"error: --pra-tolerance must be finite and nonnegative, got {float(value)}"]


@pytest.mark.parametrize("model, mode", [(rr.RiskModel.MEAN_VAR, "rawe"),
                                         (rr.RiskModel.MEAN_STDEV, "rawe"),
                                         (rr.RiskModel.MEAN_STDEV, "rnwe")])
def test_overflowing_costs_are_an_input_error(tmp_path, model, mode):
    # costs of a valid, finite instance that overflow: one error line and
    # exit 2, from the additive loop and from the mean-stdev path loop
    path = tmp_path / "overflow.txt"
    ser.write_instance(path, rr.NetworkInstance(
        2,
        (rr.Edge(0, 1, rr.Affine(1e308, 0.0), rr.Constant(1.0)),
         rr.Edge(0, 1, rr.Affine(1.0, 1.0), rr.Constant(1.0))),
        0, 1, 1e308, 1.0, model))
    code, out, err = _run(["solve", "--in", str(path), "--mode", mode])
    assert (code, out, err.splitlines()) == (
        2, "", ["error: perceived path costs are not finite: the instance's costs overflow"])


def test_zero_tolerances_stay_valid():
    # level 1 solves exactly; `test_sweep_leaves_out_unconverged_instances`
    # runs a zero --max-iters
    code, out, _ = _run(["verify", "--level", "1", "--solve", "--tolerance", "0",
                         "--pra-tolerance", "0"])
    assert code == 0 and out.endswith("rel_err=0.000e+00 [pass]\n")
