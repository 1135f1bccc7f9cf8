"""Command line behavior: round trips, exit codes, deterministic sweeps."""

import contextlib
import dataclasses
import hashlib
import io
import os
import subprocess
import sys

import pytest

import riskroute as rr
from riskroute import analysis, cli, synthetic
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
    oracle, meta = ser.loads_oracle(opath.read_text())
    assert meta["level"] == "2"
    assert oracle.expected_pra == pytest.approx(5.0)

    code, out, _ = _run(["solve", "--in", str(ipath), "--mode", "both",
                         "--out", str(tmp_path / "res")])
    assert code == 0
    assert "rawe: converged=True" in out
    rawe = ser.loads_result((tmp_path / "res.rawe.txt").read_text())
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
    path.write_text(ser.dumps_instance(ms))
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


def test_sweep_count_must_be_nonnegative(tmp_path):
    # a negative count is a usage error, with no CSV written; zero seeds
    # give a CSV of the header and column lines
    path = tmp_path / "neg.csv"
    code, out, err = _run(["sweep", "--what", "braess", "--count", "-3", "--out", str(path)])
    assert (code, out, err.splitlines()) == (2, "", ["error: count must be nonnegative, got -3"])
    assert not path.exists()
    code, out, err = _run(["sweep", "--what", "braess", "--count", "0"])
    assert (code, err) == (0, "")
    assert out.splitlines() == [cli.SWEEP_HEADER, ",".join(cli.SWEEP_COLUMNS)]


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


def test_repeated_demand_is_exit_2(tmp_path):
    # a second demand line is not read as the demand to solve at
    path = tmp_path / "braess.txt"
    text = BRAESS_FILE.format(demand="1.0", gamma="1.0", risky="const 1.0")
    path.write_text(text + "demand :: 2.0\n", encoding="utf-8")
    code, out, err = _run(["solve", "--in", str(path)])
    assert code == 2
    assert out == ""
    assert err.strip() == "error: line 13: repeated record 'demand'"


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
    path.write_text(ser.dumps_instance(rr.with_gamma(ser.read_instance(path), 0.0)))
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
    path.write_text(ser.dumps_instance(_parallel_pairs_in_series(13)))
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
    path.write_text(ser.dumps_instance(rr.build_braess()))
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
    path.write_text(ser.dumps_instance(rr.NetworkInstance(
        2,
        (rr.Edge(0, 1, rr.Affine(1e308, 0.0), rr.Constant(1.0)),
         rr.Edge(0, 1, rr.Affine(1.0, 1.0), rr.Constant(1.0))),
        0, 1, 1e308, 1.0, model)))
    code, out, err = _run(["solve", "--in", str(path), "--mode", mode])
    assert (code, out, err.splitlines()) == (
        2, "", ["error: perceived path costs are not finite: the instance's costs overflow"])


# Runs `main(argv)` and reports the seconds it took, not counting the
# interpreter's start.  A child process keeps numpy's overflow warnings as
# warnings (tier-1 makes them errors), and its address space is capped, so
# that a table sized by an input number fails fast instead of filling
# memory; one OpenBLAS thread keeps the cap clear of its per-thread buffers.
_TIMED_MAIN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from riskroute.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(f"seconds {time.perf_counter() - start}", file=sys.stderr)
sys.exit(code)
"""


def _run_timed_child(argv):
    """(exit code, stdout, stderr lines but the last, seconds) of `argv`."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _TIMED_MAIN, *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    *err, last = done.stderr.splitlines()
    assert last.startswith("seconds "), done.stderr
    return done.returncode, done.stdout, err, float(last.split()[1])


@pytest.mark.parametrize("mode", ["rnwe", "rawe"])
def test_totals_that_overflow_are_an_input_error(tmp_path, mode):
    # every cost is finite, but at demand 1e300 the flow-weighted totals
    # overflow and no gap can pass: the additive loop (rnwe) and the path
    # loop (rawe) stop with an input error, not at their iteration cap
    path = tmp_path / "domino.txt"
    code, _, _ = _run(["generate", "--family", "domino", "--risk-model", "mean-stdev",
                       "--out", str(path)])
    assert code == 0
    text = path.read_text()
    path.write_text(text.replace(next(line for line in text.splitlines()
                                      if line.startswith("demand ::")), "demand :: 1e300"))
    code, out, err, seconds = _run_timed_child(["solve", "--in", str(path), "--mode", mode])
    assert (code, out) == (2, "")
    assert err[-1] == "error: perceived path costs are not finite: the instance's costs overflow"
    assert seconds < 1.0


@pytest.mark.parametrize("extra", ["", f"edge :: 1 :: {10**40 - 1} :: const 1.0 :: const 0.0\n"])
def test_a_declared_vertex_count_costs_no_time(tmp_path, extra):
    # the graph's tables hold the ids its edges, source and sink name, not
    # one entry per declared vertex: 10^40 of them, one named by a dead end
    path = tmp_path / "braess.txt"
    text = BRAESS_FILE.format(demand="1.0", gamma="1.0", risky="const 1.0")
    path.write_text(text.replace("vertices :: 4", f"vertices :: {10**40}") + extra)
    code, out, err, seconds = _run_timed_child(["analyze", "--in", str(path)])
    assert (code, err) == (0, [])
    assert "TopologicalEta: pra=3 bound=3 " in out
    assert seconds < 1.0


def test_zero_tolerances_stay_valid():
    # level 1 solves exactly; `test_sweep_leaves_out_unconverged_instances`
    # runs a zero --max-iters
    code, out, _ = _run(["verify", "--level", "1", "--solve", "--tolerance", "0",
                         "--pra-tolerance", "0"])
    assert code == 0 and out.endswith("rel_err=0.000e+00 [pass]\n")


def _level2_file(tmp_path):
    path = tmp_path / "g2.txt"
    code, _, _ = _run(["generate", "--family", "recursive", "--level", "2", "--out", str(path)])
    assert code == 0
    return path


def test_solve_reports_an_unconverged_solve(tmp_path):
    # the results are printed, and the exit code says one did not converge
    code, out, err = _run(["solve", "--in", str(_level2_file(tmp_path)), "--max-iters", "0"])
    assert (code, err) == (1, "")
    assert [line.split(" ")[:2] for line in out.splitlines()] == [
        ["rnwe:", "converged=False"], ["rawe:", "converged=False"]]


def test_analyze_reports_an_unconverged_solve(tmp_path):
    code, out, err = _run(["analyze", "--in", str(_level2_file(tmp_path)),
                           "--max-iters", "0"])
    assert (code, out, err) == (1, "", "error: equilibrium solver did not converge\n")


def test_analyze_fails_on_a_violated_bound_that_applies(tmp_path, monkeypatch):
    # the level-2 instance meets its eta bound with slack 4e-8; asked for
    # 1e-3 of slack instead of forgiving 1e-9 of excess, it reads violated
    path = _level2_file(tmp_path)
    monkeypatch.setattr(analysis, "_SATISFIED_TOL", -1e-3)
    code, out, _ = _run(["analyze", "--in", str(path), "--bound", "eta"])
    assert code == 1
    assert out.splitlines() == [
        "TopologicalEta: pra=4.99999996 bound=5 slack=3.970e-08 kappa=1 eta=4 [VIOLATED]"]


def test_analyze_out_writes_what_it_prints(tmp_path):
    report = tmp_path / "report.txt"
    code, out, _ = _run(["analyze", "--in", str(_level2_file(tmp_path)), "--out", str(report)])
    assert code == 0
    assert len(out.splitlines()) == 5
    assert report.read_text(encoding="utf-8") == out


def test_verify_fails_when_the_solved_ratio_misses_the_tolerance():
    # the level-2 solve's ratio is 7.940e-09 off the closed form, above 0
    code, out, _ = _run(["verify", "--level", "2", "--solve", "--pra-tolerance", "0"])
    assert code == 1
    assert out.splitlines() == [
        "closed_form_check: pass",
        "solver_pra: observed=4.99999996 expected=5 rel_err=7.940e-09 [FAIL]"]


def test_sweep_prints_violations_and_fails(monkeypatch):
    # every bound lowered to 1e-3 below the observed ratio reads violated
    analyze = analysis.analyze

    def lowered(*args):
        return {kind: dataclasses.replace(rep, bound_value=rep.pra_observed - 1e-3)
                for kind, rep in analyze(*args).items()}

    monkeypatch.setattr(analysis, "analyze", lowered)
    code, out, err = _run(["sweep", "--what", "braess", "--count", "2"])
    assert code == 1
    assert len(out.splitlines()) == 2 + 2
    violations = [line for line in err.splitlines() if line.startswith("violation: ")]
    assert [v.split(":")[1].strip() for v in violations] == [
        f"braess-{seed}/StdevOneAlt" for seed in range(2)]


def test_solve_reports_the_path_gap_of_an_unconverged_solve(tmp_path):
    # at tolerance 1e-16 the two used paths of Braess seed 10 end one ulp
    # apart: the path loop's test fails where the flow-weighted residual
    # rounds to 0, and the line names the figure that failed
    path = tmp_path / "b10.txt"
    path.write_text(ser.dumps_instance(synthetic.random_braess_instance(10)))
    code, out, err = _run(["solve", "--in", str(path), "--mode", "rawe",
                           "--tolerance", "1e-16"])
    assert (code, err) == (1, "")
    assert out.startswith("rawe: converged=False ")
    assert out.endswith(" vi_residual=0.000e+00 path_gap=8.882e-16\n")
    # converged lines carry no path_gap
    code, out, _ = _run(["solve", "--in", str(path), "--mode", "rnwe"])
    assert code == 0 and "path_gap" not in out


# sha256 of repr((exit code, stdout, stderr)) of `sweep --what W --seed 0
# --count 200`: the CSV bytes and the summary lines of every sweep family
_SWEEP_SHA256 = {
    "affine": "e1cb1ee5af1fa17a25e42aa971b7e47b64ae74d34c6fdaa1f1d02d9c08e03c5a",
    "poly2": "a7ef5a5d77277dc831090af50a8f6a5299cfff123aa6d513b6804e7b7f3d7dc4",
    "poly3": "e552e8ddd39a9aab7695efb908c12700e11eddbde2191235ceb39cd03abf702a",
    "poly4": "abdfb51fe9e49949c7e42b880f6b506df3f4d62b5dcb6d6afc4a8253b6775e36",
    "series-parallel": "94f60be0de3d82b78e95df752ce829fd31a04bc2602079e73935271533f25e86",
    "braess": "da2f5c218b14bc1b6c1e0b2043f8b5bb502d8d1f07ba1eaaed0f80946df897f0",
    "domino": "4d02a3f21ebb76d2cb59c69172b247d199d208e6e3464885f51cc1d1120e0ad9",
}


@pytest.mark.parametrize("what", list(_SWEEP_SHA256))
def test_sweep_csvs_keep_their_bytes(what):
    got = _run(["sweep", "--what", what, "--seed", "0", "--count", "200"])
    assert hashlib.sha256(repr(got).encode()).hexdigest() == _SWEEP_SHA256[what]
