"""Self-test of the benchmark on a small slice of each workload.

    python3 -m pytest riskbench -q

Checks that every metric of BENCHMARK.json is reported with its unit, that
the counts of a traced run repeat exactly, that the output checks do catch
a wrong result, that the speed reference leaves its own time out, and pins
the recursive-family iteration counts the roadmap quotes as the solver
baseline.
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402

workloads = run._import_package()
import tracer as tracing  # noqa: E402

from riskroute import instances  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SLICE = {"levels": (1, 2), "sweep_count": 3}
COUNT_UNITS = ("count", "bytes")


def _slice(workload, trace):
    # --seconds 0: one run of each instance, so the attempts repeat too.
    rows, attempted, failed, messages = run.measure(workload, 0, 0.0, trace, **SLICE)
    assert failed == 0, messages
    return rows, attempted


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_metrics_present_and_counts_repeat(workload):
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        first, attempted_1 = _slice(workload, trace)
        second, attempted_2 = _slice(workload, trace)
        expected = {m["name"]: m["unit"] for m in BENCH[section]}
        for rows in (first, second):
            assert {name: row[1] for name, row in rows.items()} == expected
        assert attempted_1 == attempted_2
        for name, unit in expected.items():
            if unit in COUNT_UNITS:
                assert first[name][0] == second[name][0], name


def test_family_iteration_counts_match_roadmap():
    spec = instances.RecursiveFamilySpec(level=5, gamma_kappa=1.0)
    instance, oracle = instances.build_recursive(spec)
    case = workloads.Case("structural-5-gk1", instance, workloads.ALL_BOUNDS, oracle)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, _, failures = run.run_pass(workloads, [case], tracer)
    finally:
        tracer.uninstall()
    assert failures == {}
    assert tracer.counts["solver.rawe.iterations"] == 1236
    assert tracer.counts["solver.rnwe.iterations"] == 881


def test_wrong_oracle_fails_the_case():
    instance, _ = instances.build_recursive(
        instances.RecursiveFamilySpec(level=2, gamma_kappa=1.0))
    _, other = instances.build_recursive(
        instances.RecursiveFamilySpec(level=2, gamma_kappa=0.5))
    problems = workloads.run_case(
        workloads.Case("mismatched", instance, workloads.ALL_BOUNDS, other))
    assert any("off the oracle" in p for p in problems)
    assert any("closed_form_check" in p for p in problems)


def test_layer_map_covers_every_per_layer_metric():
    mapping = json.loads((HERE / "layer_map.json").read_text())
    mapped = {name for entry in mapping["entries"] for name in entry["per_layer"]}
    assert mapped == {m["name"] for m in BENCH["per_layer"]}
    names = {m["name"] for m in BENCH["end_to_end"]}
    for entry in mapping["entries"]:
        assert entry["end_to_end"] is None or entry["end_to_end"] in names
        assert entry["workload"] is None or entry["workload"] in workloads.WORKLOADS


def test_levelled_runs_repeat_the_short_instances():
    cases = workloads.build("sweep-mix", 0, sweep_count=2)
    spans, failures = run.run_levelled(workloads, cases, 0.5)
    assert failures == []
    runs = [len(case_spans) for case_spans in spans]
    assert min(runs) >= 1 and sum(runs) > len(cases)


def test_speed_sampler_leaves_out_its_own_time():
    with speed.SpeedSampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        t1 = time.perf_counter()
    inside = [d for start, d in zip(sampler.starts, sampler.durations)
              if t0 <= start <= t1]
    assert len(inside) >= 3
    assert sampler.sampled_s(t0, t1) == pytest.approx(sum(inside))
    assert sampler.work(t0, t1) == pytest.approx(
        (t1 - t0 - sum(inside)) * sampler.speed(t0, t1))
