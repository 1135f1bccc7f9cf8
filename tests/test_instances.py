"""Recursive worst-case families: structure, tags and closed-form checks."""

import dataclasses
import hashlib

import numpy as np
import pytest

import riskroute as rr
from riskroute import cli
from riskroute.instances import (
    BRAESS_CROSS,
    DOMINO_CONTRACT_EDGE_IDS,
    DOMINO_EAR_EDGE_IDS,
    RecursiveFamilySpec,
    Variant,
    build_domino_with_ears,
    build_recursive,
    closed_form_check,
    contracted_domino_matches_braess,
    recursive_edge_tags,
)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_recursive_sizes(level):
    inst, _ = build_recursive(RecursiveFamilySpec(level=level))
    assert inst.vertices == 2 ** (level + 1)
    assert len(inst.edges) == 2 ** (level + 2) - 3


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_recursive_edge_tags(level):
    tags = recursive_edge_tags(level)
    inst, _ = build_recursive(RecursiveFamilySpec(level=level))
    assert len(tags) == len(inst.edges)
    assert tags.count("risky") == 2 ** level
    assert tags.count("vertical") == 2 ** level - 1
    for j in range(1, level + 1):
        assert tags.count(f"a:{j}") == 2 ** (level - j + 1)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_each_path_has_at_most_one_risky_edge(level):
    inst, _ = build_recursive(RecursiveFamilySpec(level=level))
    tags = recursive_edge_tags(level)
    risky = {eid for eid, tag in enumerate(tags) if tag == "risky"}
    counts = [len(risky.intersection(p)) for p in rr.enumerate_paths(inst)]
    assert max(counts) == 1
    # exactly the 2^level parallel paths carry one risky edge each
    assert sum(counts) == 2 ** level


@pytest.mark.parametrize("level", [1, 2, 3, 4])
@pytest.mark.parametrize("gk", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("variant", [Variant.STRUCTURAL, Variant.FUNCTIONAL])
def test_closed_forms_hold(level, gk, variant):
    inst, oracle = build_recursive(
        RecursiveFamilySpec(level=level, gamma_kappa=gk, variant=variant))
    report = closed_form_check(inst, oracle, tol=1e-10)
    assert report.passed, report.failures
    assert oracle.expected_pra == pytest.approx(1.0 + 2 ** level * gk, rel=1e-12)


def test_structural_oracle_demands_and_uniformity():
    spec = RecursiveFamilySpec(level=3, r_a=1.0, r_n=1.0, gamma_kappa=1.0)
    inst, oracle = build_recursive(spec)
    assert oracle.rawe.total() == pytest.approx(1.0, abs=1e-12)
    assert oracle.rnwe.total() == pytest.approx(1.0, abs=1e-12)
    # risk-neutral flow splits uniformly over the 2^level parallel paths
    assert all(a == pytest.approx(1.0 / 8.0) for _, a in oracle.rnwe)
    assert len(oracle.rnwe) == 8
    assert len(oracle.rawe) == 7  # the 2^level - 1 zigzag paths


def test_unequal_demands_still_satisfy_closed_forms():
    spec = RecursiveFamilySpec(level=2, r_a=2.0, r_n=1.0, gamma_kappa=1.0)
    inst, oracle = build_recursive(spec)
    assert inst.demand == 2.0
    report = closed_form_check(inst, oracle, tol=1e-10)
    assert report.passed, report.failures
    assert oracle.rawe_cost == pytest.approx((1 + 4.0) * 2.0)
    assert oracle.rnwe_cost == pytest.approx(1.0)


def test_demand_precondition_is_enforced():
    # level 1 needs r_a > r_n / 2
    with pytest.raises(ValueError):
        build_recursive(RecursiveFamilySpec(level=1, r_a=0.4, r_n=1.0))
    # deeper levels tighten the requirement on the sub-instances
    with pytest.raises(ValueError):
        build_recursive(RecursiveFamilySpec(level=3, r_a=0.51, r_n=1.0))
    build_recursive(RecursiveFamilySpec(level=3, r_a=0.9, r_n=1.0))


def test_spec_validation():
    with pytest.raises(ValueError):
        build_recursive(RecursiveFamilySpec(level=0))
    with pytest.raises(ValueError):
        build_recursive(RecursiveFamilySpec(level=1, gamma_kappa=-1.0))


def test_closed_form_check_catches_corrupt_costs():
    inst, oracle = build_recursive(RecursiveFamilySpec(level=2))
    bad = dataclasses.replace(oracle, rawe_cost=oracle.rawe_cost + 1e-5)
    report = closed_form_check(inst, bad, tol=1e-10)
    assert not report.passed
    assert any("social cost" in f or "ratio" in f for f in report.failures)


def test_closed_form_check_catches_corrupt_flows():
    inst, oracle = build_recursive(RecursiveFamilySpec(level=2))
    entries = list(oracle.rawe.entries)
    (p0, a0) = entries[0]
    (p1, a1) = entries[1]
    entries[0] = (p0, a0 + 0.05)
    entries[1] = (p1, a1 - 0.05)
    bad = dataclasses.replace(oracle, rawe=rr.PathFlow(tuple(entries)))
    report = closed_form_check(inst, bad, tol=1e-10)
    assert not report.passed


def test_closed_form_check_accepts_canonical_level3():
    inst, oracle = build_recursive(RecursiveFamilySpec(level=3, gamma_kappa=2.0))
    report = closed_form_check(inst, oracle)
    assert report.passed, report.failures


def test_closed_form_check_rejects_corrupt_latency():
    inst, oracle = build_recursive(RecursiveFamilySpec(level=2))
    broken = rr.with_edge_functions(
        inst, {1: (rr.Constant(2.0), rr.Constant(1.0))})
    report = closed_form_check(broken, oracle)
    assert not report.passed
    assert report.failures


def test_closed_form_check_reports_each_fault_once():
    # edge 1 lies on the risk-neutral path (0, 1, 12): its doubled latency
    # shows at that path and once in the risk-neutral social cost
    inst, oracle = build_recursive(RecursiveFamilySpec(level=2))
    broken = rr.with_edge_functions(inst, {1: (rr.Constant(2.0), rr.Constant(1.0))})
    failures = closed_form_check(broken, oracle).failures
    assert "rnwe path (0, 1, 12): mean latency 2.0 != 1.0" in failures
    assert [f for f in failures if "social cost" in f] == [
        "rnwe social cost 1.25 does not match closed form 1.0"]


def test_closed_form_check_flags_a_path_off_the_unit_cost():
    # the path solver's residual sees only the spread of the used path costs,
    # so shifting every cost by the same amount shows in the per-path checks
    inst, oracle = build_recursive(RecursiveFamilySpec(level=2, gamma_kappa=1.0))
    ms = rr.with_risk_model(inst, rr.RiskModel.MEAN_STDEV)
    assert closed_form_check(ms, oracle).passed
    bad = dataclasses.replace(oracle, rawe_cost=oracle.rawe_cost + 0.5,
                              expected_pra=(oracle.rawe_cost + 0.5) / oracle.rnwe_cost)
    failures = closed_form_check(ms, bad).failures
    assert any("perceived cost" in f for f in failures)
    assert any("mean latency" in f for f in failures)


def test_closed_form_check_rejects_negative_gamma_kappa():
    inst, oracle = build_recursive(RecursiveFamilySpec(level=1, gamma_kappa=0.0))
    bad = dataclasses.replace(oracle, rawe_cost=0.5, expected_pra=0.5)
    failures = closed_form_check(inst, bad).failures
    assert any("implied gamma*kappa is negative" in f for f in failures)


def test_braess_is_level1_topology():
    braess = rr.build_braess()
    g1, _ = build_recursive(RecursiveFamilySpec(level=1))
    assert len(braess.edges) == len(g1.edges) == 5
    assert braess.edges[BRAESS_CROSS].tail == 1
    assert braess.edges[BRAESS_CROSS].head == 2


def test_domino_with_ears_layout():
    inst = build_domino_with_ears()
    assert inst.vertices == 6
    assert len(inst.edges) == 9
    ears = [inst.edges[eid] for eid in DOMINO_EAR_EDGE_IDS]
    assert [(e.tail, e.head) for e in ears] == [(0, 2), (3, 5)]
    rungs = [inst.edges[eid] for eid in DOMINO_CONTRACT_EDGE_IDS]
    assert [(e.tail, e.head) for e in rungs] == [(0, 3), (2, 5)]


def test_contracting_the_domino_yields_braess():
    assert contracted_domino_matches_braess()


def test_reinterpret_as_meanstdev():
    inst, _ = build_recursive(RecursiveFamilySpec(level=1))
    ms = rr.with_risk_model(inst, rr.RiskModel.MEAN_STDEV)
    assert ms.risk_model is rr.RiskModel.MEAN_STDEV
    assert ms.edges == inst.edges
    assert ms.gamma == inst.gamma


# sha256 of `generate --family recursive` output, the instance file and
# its oracle sidecar, for (level, variant, r_a, r_n, gamma_kappa): every
# byte the family builder writes is pinned
_GENERATE_SHA256 = [
    pytest.param((1, "structural", 1, 1, 1),
                 "79aee04222d4446280dea32b4b3741866c9c16a9de472afa89975dbfdedd414c",
                 "2b985462e20db642a2d721bd58f4f581ae070d23caf5468c3ef54c2fe10856be",
                 id="1-structural-1-1-1"),
    pytest.param((2, "structural", 1, 1, 1),
                 "eeda8e320a1a153deafee2f64ca7fcd11cb57a7a26186236e7c470e447e999bd",
                 "fb545fa0b38e5b6b1252c0614c954c138edff5d1215ef28c7a29c37657353884",
                 id="2-structural-1-1-1"),
    pytest.param((3, "structural", 1, 1, 1),
                 "a327535f2c9e3cf48851e04b72ad629ce85e6a86d76d5596846e56f331d26708",
                 "354294d477a46214bc4a170e8cd265c5888d66fd4bb239ba5accfd9ea55ae183",
                 id="3-structural-1-1-1"),
    pytest.param((4, "structural", 1, 1, 1),
                 "85d6ae3b268afee50c7aaebceff75b9fce47f20944f423d75acbbbadf40d4c3e",
                 "23624366d72f031f9cd55dfad9a288a752c0bed721c220e4ea65b5c506a87a03",
                 id="4-structural-1-1-1"),
    pytest.param((1, "functional", 1, 1, 1),
                 "79aee04222d4446280dea32b4b3741866c9c16a9de472afa89975dbfdedd414c",
                 "9e51e069e4a062ad0d09f45f17a51e9299c8ca235979f0339bfa56c7f1c4ead6",
                 id="1-functional-1-1-1"),
    pytest.param((2, "functional", 1, 1, 1),
                 "cdad71aff8f926169b91c581f1a6f5f978e49e7be8998d0f5b9f18a0c7a5d930",
                 "ee6158370f8732a9a214eff462450f948892d35719c7e9e9e837f0387ae24c35",
                 id="2-functional-1-1-1"),
    pytest.param((3, "functional", 1, 1, 1),
                 "d2b42827bef4ccdbb5a3b793af2e8c6bcaad5a0c957b23c0d00c1bbb499a2317",
                 "dc0f98b2fc933a068270ad7f89a7800f7cf7afb4e336172da599c76e06093d18",
                 id="3-functional-1-1-1"),
    pytest.param((4, "functional", 1, 1, 1),
                 "664337f845cdeeccdce42082b3f32836009810c592b54adbb8968f27ac39e7d0",
                 "3c2b118af4844d6764883568ebbd13aa4a9c60e7ee76d1262e09241e7ce0c357",
                 id="4-functional-1-1-1"),
    pytest.param((3, "structural", 2, 1, 0.5),
                 "c1008622f6aa6f42f552d55529169dff41d3bdbe4dbe7200340829b9d423ed5f",
                 "779131fbfad42ad3e1c9165dbba5c3d650a83d180ad4bc72f2dec294713db582",
                 id="3-structural-2-1-0.5"),
]


@pytest.mark.parametrize("case, instance_sha, oracle_sha", _GENERATE_SHA256)
def test_generated_family_files_keep_their_bytes(tmp_path, case, instance_sha, oracle_sha):
    level, variant, r_a, r_n, gk = map(str, case)
    ipath, opath = tmp_path / "i.txt", tmp_path / "o.txt"
    code = cli.main(["generate", "--family", "recursive", "--level", level, "--variant", variant,
                     "--r-a", r_a, "--r-n", r_n, "--gamma-kappa", gk,
                     "--out", str(ipath), "--oracle-out", str(opath)])
    assert code == 0
    assert hashlib.sha256(ipath.read_bytes()).hexdigest() == instance_sha
    assert hashlib.sha256(opath.read_bytes()).hexdigest() == oracle_sha
