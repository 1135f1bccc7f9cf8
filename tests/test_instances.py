"""Recursive worst-case families: structure, tags and closed-form checks;
the bytes of every generated instance."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskroute as rr
from riskroute import cli, synthetic
from riskroute.instances import (
    BRAESS_CROSS,
    RecursiveFamilySpec,
    Variant,
    build_domino_with_ears,
    build_recursive,
    closed_form_check,
    recursive_edge_tags,
)
from riskroute.serialization import dumps_instance

from reference import (
    DOMINO_CONTRACT_EDGE_IDS,
    DOMINO_EAR_EDGE_IDS,
    contracted_domino_matches_braess,
    random_small_instance,
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
    report = closed_form_check(inst, oracle)
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
    report = closed_form_check(inst, oracle)
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


@pytest.mark.parametrize("level", [0, -1])
def test_edge_tags_reject_levels_below_one(level):
    # the tags come from the same checked set-up as the instance
    with pytest.raises(ValueError, match=f"level must be >= 1, got {level}"):
        recursive_edge_tags(level)


@pytest.mark.parametrize("spec, message", [
    (RecursiveFamilySpec(level=1, r_a=-1.0), "demands must be nonnegative"),
    (RecursiveFamilySpec(level=1, r_n=-1.0), "demands must be nonnegative"),
    (RecursiveFamilySpec(level=3, gamma_kappa=math.nan), "gamma_kappa must be finite, got nan"),
    (RecursiveFamilySpec(level=1, gamma_kappa=math.inf), "gamma_kappa must be finite, got inf"),
    (RecursiveFamilySpec(level=1, r_a=math.inf), "r_a must be finite, got inf"),
    (RecursiveFamilySpec(level=1, r_a=-math.inf), "r_a must be finite, got -inf"),
    (RecursiveFamilySpec(level=2, r_n=math.nan), "r_n must be finite, got nan"),
    (RecursiveFamilySpec(level=2, r_a=2.0, variant=Variant.FUNCTIONAL),
     "the functional variant requires r_a = r_n = 1"),
])
def test_spec_checks_name_the_fault(spec, message):
    with pytest.raises(ValueError, match=message):
        build_recursive(spec)


def test_closed_form_check_catches_corrupt_costs():
    inst, oracle = build_recursive(RecursiveFamilySpec(level=2))
    bad = dataclasses.replace(oracle, rawe_cost=oracle.rawe_cost + 1e-5)
    report = closed_form_check(inst, bad)
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
    report = closed_form_check(inst, bad)
    assert not report.passed


def test_closed_form_check_skips_paths_of_amount_zero():
    # a parallel path has mean latency below the unit at the risk-averse flow;
    # listed at amount 0 it is not used, so it is not checked, and neither
    # is a zig-zag path listed at amount 0 in the risk-neutral flow
    inst, oracle = build_recursive(RecursiveFamilySpec(level=2))
    parallel = oracle.rnwe.entries[0][0]
    zigzag = oracle.rawe.entries[0][0]
    padded = dataclasses.replace(
        oracle, rawe=rr.PathFlow(oracle.rawe.entries + ((parallel, 0.0),)),
        rnwe=rr.PathFlow(oracle.rnwe.entries + ((zigzag, 0.0),)))
    report = closed_form_check(inst, padded)
    assert report.passed, report.failures


@pytest.mark.parametrize("level", [11, 12])
def test_closed_form_check_passes_deep_functional_levels(level):
    # the top diagonal's slope is about 4^level: its flow, a sum of
    # 2^(level-1) equal shares, must sit on its breakpoint to the last bit
    inst, oracle = build_recursive(RecursiveFamilySpec(level=level, variant=Variant.FUNCTIONAL))
    report = closed_form_check(inst, oracle)
    assert report.passed, report.failures


def test_closed_form_check_accepts_canonical_level3():
    inst, oracle = build_recursive(RecursiveFamilySpec(level=3, gamma_kappa=2.0))
    report = closed_form_check(inst, oracle)
    assert report.passed, report.failures


def _level2_with_edge1_doubled():
    """Level 2 with edge 1's latency doubled to Constant(2.0), and its oracle."""
    inst, oracle = build_recursive(RecursiveFamilySpec(level=2))
    edges = list(inst.edges)
    edges[1] = dataclasses.replace(edges[1], latency=rr.Constant(2.0))
    return dataclasses.replace(inst, edges=tuple(edges)), oracle


def test_closed_form_check_rejects_corrupt_latency():
    broken, oracle = _level2_with_edge1_doubled()
    report = closed_form_check(broken, oracle)
    assert not report.passed
    assert report.failures


def test_closed_form_check_reports_each_fault_once():
    # edge 1 lies on the risk-neutral path (0, 1, 12): its doubled latency
    # shows at that path and once in the risk-neutral social cost
    broken, oracle = _level2_with_edge1_doubled()
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


def test_closed_form_check_reports_bad_oracle_paths_and_nothing_else():
    inst, oracle = build_recursive(RecursiveFamilySpec(level=1))
    bad = dataclasses.replace(oracle, rawe=rr.PathFlow.of([((0, 3), 0.5), ((0,), -1.0)]))
    report = closed_form_check(inst, bad)
    assert not report.passed
    assert report.failures == (
        "rawe path (0, 3): edge 3 starts at 3, expected 2: path is not connected",
        "rawe path (0,): path ends at 2, not at sink 1",
        "rawe path (0,): negative amount -1.0",
    )


def test_closed_form_check_flags_a_meanstdev_path_above_the_cheapest():
    inst, oracle = build_recursive(RecursiveFamilySpec(level=2))
    ms = rr.with_risk_model(inst, rr.RiskModel.MEAN_STDEV)
    # 0.1 moved from the second used path to the first
    (p0, a0), (p1, a1), *rest = oracle.rawe.entries
    moved = rr.PathFlow(((p0, a0 + 0.1), (p1, a1 - 0.1), *rest))
    report = closed_form_check(ms, dataclasses.replace(oracle, rawe=moved))
    assert not report.passed
    assert "rawe path (11, 5, 12) costs 3.200e+00 above the cheapest path" in report.failures


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


@pytest.mark.parametrize("model", list(rr.RiskModel))
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.5])
def test_braess_defaults_are_the_level1_family(gamma, model):
    braess = rr.build_braess(gamma=gamma, risk_model=model)
    g1, _ = build_recursive(RecursiveFamilySpec(level=1, gamma_kappa=gamma))
    assert [(e.latency, e.variability) for e in braess.edges] == [
        (e.latency, e.variability) for e in g1.edges]
    assert (braess.demand, braess.gamma, braess.risk_model) == (1.0, gamma, model)


def test_braess_input_checks():
    with pytest.raises(ValueError, match="gamma_kappa must be nonnegative, got -1.0"):
        rr.build_braess(gamma=-1.0)
    pairs = [(rr.Constant(1.0), rr.Constant(0.0))] * 4
    with pytest.raises(ValueError, match="expected 5 .* pairs, got 4"):
        rr.build_braess(edge_functions=pairs)


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


def test_generator_input_checks():
    with pytest.raises(ValueError, match="unknown topology 'ring'"):
        synthetic.random_affine_instance(0, topology="ring")
    with pytest.raises(ValueError, match="degree must be >= 1, got 0"):
        synthetic.random_polynomial_instance(0, 0)


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


_MV, _MS = rr.RiskModel.MEAN_VAR, rr.RiskModel.MEAN_STDEV

# sha256 of the serialized instances of each random generator over seeds
# 0 .. count-1, at its default risk model and at the other one: a seed
# names the same instance, byte for byte, as long as these hold
_RANDOM_SHA256 = [
    pytest.param(synthetic.random_affine_instance, 200,
                 "7fa8b7b3b37b618675c99e423717093c5b090aba6a0bcd7a70a7c63a344fca5f",
                 id="affine"),
    pytest.param(lambda s: synthetic.random_polynomial_instance(s, 2), 200,
                 "345781b32a35baae6d6610a68a3271c809b5cc417ff8ba0f25fbea5535015aff",
                 id="poly2"),
    pytest.param(lambda s: synthetic.random_polynomial_instance(s, 3), 200,
                 "a1ee2ff563b86c32f6fe26527045ef83080f81e169f576ed83e4b1f8a1df7d62",
                 id="poly3"),
    pytest.param(lambda s: synthetic.random_polynomial_instance(s, 4), 200,
                 "431f3bc52f2ab796faeb7a033ad82036bf33468ec7ca2d6ea4ca821dac71be39",
                 id="poly4"),
    pytest.param(synthetic.random_series_parallel_instance, 200,
                 "3d0751c615871d6f8d596f505e2c9963067a6e46fcd3964069214f6bce0a1571",
                 id="series-parallel"),
    pytest.param(synthetic.random_braess_instance, 200,
                 "94c10166eed3ec329aba2109b9568e5ba1dcd5becc2b5c4b718a12f0901e7ed2",
                 id="braess"),
    pytest.param(synthetic.random_domino_instance, 200,
                 "788e3d18f8847fddddef2376d44ead0d5d53ba2a99c86460c513e5743f1cde6a",
                 id="domino"),
    pytest.param(random_small_instance, 60,
                 "57ac08574908403a5815a0b3accf2fd52024feb29539dc70dde9c5da22061ea4",
                 id="small"),
    pytest.param(lambda s: synthetic.random_affine_instance(s, risk_model=_MS), 200,
                 "237a9a0cb5ce75741749955dd37c5cdced3944fb6e7987e3408dec7aa709fd97",
                 id="affine-mean-stdev"),
    pytest.param(lambda s: synthetic.random_polynomial_instance(s, 2, risk_model=_MS), 200,
                 "2259e509bb5d095549c55fa5181bf55014e2351ec482e0dce57cae7fd700e55e",
                 id="poly2-mean-stdev"),
    pytest.param(lambda s: synthetic.random_polynomial_instance(s, 3, risk_model=_MS), 200,
                 "ba832b17c482f7c5b0695ae756e1227de7739806e2ac7761b60ea3ebeaa90783",
                 id="poly3-mean-stdev"),
    pytest.param(lambda s: synthetic.random_polynomial_instance(s, 4, risk_model=_MS), 200,
                 "5e040e3b49979be33ecd1baa6e9268dc0529066ebba7c1b650b2e1fe78b4e1a1",
                 id="poly4-mean-stdev"),
    pytest.param(lambda s: synthetic.random_series_parallel_instance(s, risk_model=_MV), 200,
                 "955165e22b4d12d64a017a4131f84928bebc6e21fa2ce1d527927693f6a698d5",
                 id="series-parallel-mean-var"),
    pytest.param(lambda s: synthetic.random_braess_instance(s, risk_model=_MV), 200,
                 "5dbb8a16aba8930edb8ebeb595ab12f178aa7e4f1323756f3f0217dab511862d",
                 id="braess-mean-var"),
    pytest.param(lambda s: synthetic.random_domino_instance(s, risk_model=_MV), 200,
                 "e347c87fa2fa900edc2e0182d1401ed92a0de2160b0bfd32b3515e00b98ba2ff",
                 id="domino-mean-var"),
]


@pytest.mark.parametrize("generate, count, sha", _RANDOM_SHA256)
def test_generated_random_instances_keep_their_bytes(generate, count, sha):
    text = "".join(dumps_instance(generate(seed)) for seed in range(count))
    assert hashlib.sha256(text.encode()).hexdigest() == sha


_DRAWS = st.lists(st.one_of(
    st.tuples(st.just("uniform"), st.floats(-1e12, 1e12), st.floats(-1e12, 1e12)),
    st.tuples(st.just("random")),
    # ranges up to 2^32 take 32 bits and stash the other half of a 64-bit
    # draw in the bit generator; wider ones take 64
    st.tuples(st.just("integers"), st.integers(0, 1000), st.integers(1, 2 ** 40)),
), max_size=40)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), _DRAWS)
def test_uniform_is_rng_uniform(seed, draws):
    # `_uniform` returns rng.uniform's float bits and leaves the generator
    # where rng.uniform does, whatever draws come before and after it
    ours, numpy = np.random.default_rng(seed), np.random.default_rng(seed)
    for kind, *args in draws:
        if kind == "uniform":
            low, high = sorted(args)
            assert synthetic._uniform(ours, low, high).hex() == \
                float(numpy.uniform(low, high)).hex()
        elif kind == "random":
            assert ours.random() == numpy.random()
        else:
            low, width = args
            assert ours.integers(low, low + width) == numpy.integers(low, low + width)
    assert ours.bit_generator.state == numpy.bit_generator.state
