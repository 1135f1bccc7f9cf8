"""Instance validation, path costs and path enumeration."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskroute as rr
from riskroute import network, serialization
from riskroute.instances import RecursiveFamilySpec, Variant, build_recursive
from riskroute.network import (
    GraphStructureError,
    PathCapExceeded,
    flow_demand,
    validate_path,
)


def _series_meanstdev():
    # two unit-mean edges in series with variances 9 and 16
    return rr.NetworkInstance(
        3,
        (rr.Edge(0, 1, rr.Constant(1.0), rr.Constant(9.0)),
         rr.Edge(1, 2, rr.Constant(1.0), rr.Constant(16.0))),
        0, 2, 1.0, 1.0, rr.RiskModel.MEAN_STDEV)


def test_instance_validation_rejects_bad_graphs():
    edge = rr.Edge(0, 1, rr.Constant(1.0), rr.Constant(0.0))
    with pytest.raises(GraphStructureError):
        rr.NetworkInstance(1, (edge,), 0, 0, 1.0, 0.0, rr.RiskModel.MEAN_VAR)
    with pytest.raises(GraphStructureError):
        rr.NetworkInstance(2, (edge,), 0, 0, 1.0, 0.0, rr.RiskModel.MEAN_VAR)
    with pytest.raises(GraphStructureError):
        rr.NetworkInstance(2, (edge,), 0, 1, -1.0, 0.0, rr.RiskModel.MEAN_VAR)
    with pytest.raises(GraphStructureError):
        rr.NetworkInstance(2, (edge,), 0, 1, 1.0, -0.5, rr.RiskModel.MEAN_VAR)
    # sink unreachable from source
    with pytest.raises(GraphStructureError):
        rr.NetworkInstance(3, (edge,), 0, 2, 1.0, 0.0, rr.RiskModel.MEAN_VAR)


def test_validate_path_errors():
    inst = rr.build_braess()
    validate_path(inst, (0, 4, 3))
    with pytest.raises(GraphStructureError):
        validate_path(inst, (1,))          # does not start at the source
    with pytest.raises(GraphStructureError):
        validate_path(inst, (0,))          # does not reach the sink
    with pytest.raises(GraphStructureError):
        validate_path(inst, (0, 3))        # edges do not chain
    with pytest.raises(GraphStructureError):
        validate_path(inst, (0, 99))       # unknown edge id


@pytest.mark.parametrize("helper", [rr.mean_path_latency, rr.path_cost])
@pytest.mark.parametrize("eid", [-1, -2, 5])
def test_path_helpers_reject_edge_ids_out_of_range(helper, eid):
    # a negative id must not read an edge from the end of the edge tuple:
    # (-1,) would be edge 4's latency and (-2,) edge 3's
    inst = rr.build_braess()
    assert len(inst.edges) == 5
    with pytest.raises(GraphStructureError, match=f"unknown edge id {eid}"):
        helper(inst, (eid,), np.zeros(5))
    with pytest.raises(GraphStructureError, match=f"unknown edge id {eid}"):
        helper(inst, (0, eid), np.zeros(5))


def test_meanvar_path_cost_on_braess():
    inst = rr.build_braess()  # level-1 worst-case functions, gamma*kappa = 1
    flow = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    # zigzag: a(1) + 1 + a(1) = 1 + 1 + 1, no variance on those edges
    assert rr.path_cost(inst, (0, 4, 3), flow) == pytest.approx(3.0, abs=1e-12)
    assert rr.mean_path_latency(inst, (0, 4, 3), flow) == pytest.approx(3.0)
    # upper path picks up the variance term: a(1) + (1 + gamma*1)
    assert rr.path_cost(inst, (0, 1), flow) == pytest.approx(3.0, abs=1e-12)
    # the variance term alone: one more unit at gamma 2
    assert rr.path_cost(rr.with_gamma(inst, 2.0), (0, 1), flow) == pytest.approx(4.0, abs=1e-12)


def test_meanstdev_path_cost_takes_sqrt_at_path_level():
    inst = _series_meanstdev()
    flow = np.ones(2)
    # summed variances 9 + 16, read under mean-var: 1 + 1 + 1 * 25
    assert rr.path_cost(rr.with_risk_model(inst, rr.RiskModel.MEAN_VAR), (0, 1), flow) == 27.0
    # 1 + 1 + 1 * sqrt(9 + 16) = 7, not 1 + 1 + (3 + 4) = 9
    assert rr.path_cost(inst, (0, 1), flow) == pytest.approx(7.0, abs=1e-12)


def test_gamma_zero_cost_is_mean_latency():
    inst = rr.with_gamma(_series_meanstdev(), 0.0)
    flow = np.ones(2)
    assert rr.path_cost(inst, (0, 1), flow) == pytest.approx(2.0, abs=1e-12)


def test_edge_additive_is_mean_var_or_gamma_zero():
    stdev = _series_meanstdev()
    assert not stdev.edge_additive
    assert rr.with_gamma(stdev, 0.0).edge_additive
    for gamma in (0.0, 2.0):
        assert rr.with_risk_model(rr.with_gamma(stdev, gamma), rr.RiskModel.MEAN_VAR).edge_additive


def test_edge_additive_when_every_variance_is_constant_zero():
    # a mean-stdev path cost with zero variance is its mean latency at any
    # gamma; only Constant(0.0) counts, not a function that happens to be 0
    stdev = _series_meanstdev()
    assert stdev.gamma > 0.0

    def with_variances(variances):
        return dataclasses.replace(stdev, edges=tuple(
            dataclasses.replace(e, variability=v) for e, v in zip(stdev.edges, variances)))

    zero = [rr.Constant(0.0)] * len(stdev.edges)
    assert with_variances(zero).edge_additive
    one_left = list(zero)
    one_left[1] = stdev.edges[1].variability
    assert not with_variances(one_left).edge_additive
    assert not with_variances([rr.Affine(0.0, 0.0)] * len(zero)).edge_additive


def test_social_cost_uses_means_only():
    inst = rr.build_braess()
    flow = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    assert rr.social_cost(inst, flow) == pytest.approx(3.0, abs=1e-12)
    # same edges, mean-stdev reading: social cost unchanged
    assert rr.social_cost(rr.with_risk_model(inst, rr.RiskModel.MEAN_STDEV),
                          flow) == pytest.approx(3.0, abs=1e-12)


def _level3_and_braess():
    inst, oracle = build_recursive(RecursiveFamilySpec(level=3, gamma_kappa=1.5))
    flow = rr.induced_edge_flow(inst, oracle.rawe)
    for model in rr.RiskModel:
        yield rr.with_risk_model(inst, model), flow
    braess = rr.build_braess(gamma=0.0)
    yield braess, np.array([0.75, 0.25, 0.5, 1.0, 0.5])


def test_path_cost_is_mean_plus_risk_term_bit_for_bit():
    # path_cost walks a path once; its mean is mean_path_latency's sum and
    # its variance the same left-to-right sum of the edge variances, so the
    # cost has their bits
    seen = 0
    for inst, flow in _level3_and_braess():
        for path in rr.enumerate_paths(inst):
            mean = rr.mean_path_latency(inst, path, flow)
            var = 0.0
            for eid in path:
                var += inst.edges[eid].variability(float(flow[eid]))
            risk = var if inst.risk_model is rr.RiskModel.MEAN_VAR else math.sqrt(var)
            assert rr.path_cost(inst, path, flow) == mean + inst.gamma * risk
            seen += 1
    assert seen == 15 + 15 + 3


def test_instance_validation_rejects_vertex_ids_out_of_range():
    edge = rr.Edge(0, 1, rr.Constant(1.0), rr.Constant(0.0))
    with pytest.raises(GraphStructureError, match="source/sink must be valid vertex ids"):
        rr.NetworkInstance(2, (edge,), 0, 2, 1.0, 0.0)
    with pytest.raises(GraphStructureError, match="source/sink must be valid vertex ids"):
        rr.NetworkInstance(2, (edge,), -1, 1, 1.0, 0.0)
    outside = rr.Edge(1, 2, rr.Constant(1.0), rr.Constant(0.0))
    with pytest.raises(GraphStructureError, match="edge 1 has endpoints outside 0..1"):
        rr.NetworkInstance(2, (edge, outside), 0, 1, 1.0, 0.0)


def _cyclic():
    # 0 -> 1, 1 -> 0 and 1 -> 2: a cycle through the source
    one, zero = rr.Constant(1.0), rr.Constant(0.0)
    return rr.NetworkInstance(
        3, (rr.Edge(0, 1, one, zero), rr.Edge(1, 0, one, zero), rr.Edge(1, 2, one, zero)),
        0, 2, 1.0, 0.0)


def test_validate_path_rejects_empty_and_revisiting_paths():
    inst = _cyclic()
    validate_path(inst, (0, 2))
    with pytest.raises(GraphStructureError, match="empty path"):
        validate_path(inst, ())
    with pytest.raises(GraphStructureError, match="path revisits vertex 0: not simple"):
        validate_path(inst, (0, 1, 0, 2))


def test_flow_demand_nets_out_flow_into_the_source():
    assert flow_demand(_cyclic(), np.array([2.0, 1.0, 1.0])) == 1.0


def test_induced_edge_flow_and_feasibility():
    inst, oracle = build_recursive(RecursiveFamilySpec(level=1))
    flow = rr.induced_edge_flow(inst, oracle.rawe)
    assert np.allclose(flow, [1.0, 0.0, 0.0, 1.0, 1.0])
    assert flow_demand(inst, flow) == pytest.approx(1.0)


def test_induced_edge_flow_rejects_negative_amounts():
    inst = rr.build_braess()
    with pytest.raises(GraphStructureError):
        rr.induced_edge_flow(inst, rr.PathFlow.of([((0, 1), -0.25)]))


def test_functional_level2_a_edges_carry_two_thirds():
    inst, oracle = build_recursive(
        RecursiveFamilySpec(level=2, variant=Variant.FUNCTIONAL))
    flow = rr.induced_edge_flow(inst, oracle.rawe)
    tags = rr.recursive_edge_tags(2)
    a2 = [eid for eid, tag in enumerate(tags) if tag == "a:2"]
    assert a2 == [11, 12]
    for eid in a2:
        assert flow[eid] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_enumerate_paths_counts_and_order():
    g1, _ = build_recursive(RecursiveFamilySpec(level=1))
    assert rr.enumerate_paths(g1) == [(0, 1), (0, 4, 3), (2, 3)]
    g2, _ = build_recursive(RecursiveFamilySpec(level=2))
    assert len(rr.enumerate_paths(g2)) == 7
    g3, _ = build_recursive(RecursiveFamilySpec(level=3))
    assert len(rr.enumerate_paths(g3)) == 15


def test_enumerate_paths_cap():
    g2, _ = build_recursive(RecursiveFamilySpec(level=2))
    with pytest.raises(PathCapExceeded):
        rr.enumerate_paths(g2, cap=3)
    with pytest.raises(ValueError):
        rr.enumerate_paths(g2, cap=0)


def _recursive_paths(instance):
    """Reference enumeration: plain recursive depth-first search."""
    paths, on_path = [], set()

    def walk(vertex, prefix):
        if vertex == instance.sink:
            paths.append(tuple(prefix))
            return
        on_path.add(vertex)
        for eid, head in instance.out_edges(vertex):
            if head not in on_path:
                walk(head, prefix + [eid])
        on_path.discard(vertex)

    walk(instance.source, [])
    return paths


@st.composite
def _small_graphs(draw):
    """Small directed multigraphs, cycles allowed, sink reachable."""
    n = draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=12))
    # a chain through every vertex keeps the sink reachable
    chain = [(v, v + 1) for v in range(n - 1)]
    arcs = draw(st.permutations(pairs + chain))
    zero = rr.Constant(0.0)
    edges = tuple(rr.Edge(u, v, zero, zero) for u, v in arcs)
    return rr.NetworkInstance(n, edges, 0, n - 1, 1.0, 0.0, rr.RiskModel.MEAN_VAR)


@settings(max_examples=200, deadline=None)
@given(_small_graphs())
def test_enumerate_paths_matches_recursive_reference(inst):
    expected = _recursive_paths(inst)
    assert expected == sorted(expected)
    assert rr.enumerate_paths(inst) == expected
    assert rr.enumerate_paths(inst, cap=len(expected)) == expected
    if len(expected) > 1:
        with pytest.raises(PathCapExceeded):
            rr.enumerate_paths(inst, cap=len(expected) - 1)


def test_long_chain_enumerates_and_solves_without_recursion():
    # deeper than the interpreter's default recursion limit of 1000
    n = 1500
    edges = tuple(rr.Edge(v, v + 1, rr.Affine(1.0, 0.0), rr.Constant(1.0))
                  for v in range(n - 1))
    inst = rr.NetworkInstance(n, edges, 0, n - 1, 1.0, 1.0, rr.RiskModel.MEAN_STDEV)
    assert rr.enumerate_paths(inst) == [tuple(range(n - 1))]
    res = rr.solve_rawe_meanstdev(inst)
    assert res.converged
    assert np.all(res.flow == 1.0)


def test_topological_order_leaves_out_dead_ends():
    # vertex 3 hangs off vertex 1 and cannot reach the sink 2, so edge 2
    # (1 -> 3) is no one's in-edge
    unit = rr.Constant(1.0)
    inst = rr.NetworkInstance(
        4, (rr.Edge(0, 1, unit, unit), rr.Edge(1, 2, unit, unit),
            rr.Edge(1, 3, unit, unit), rr.Edge(0, 2, unit, unit)),
        0, 2, 1.0, 0.0)
    assert inst.topological_in_edges == ((1, 0, 0, ()), (2, 3, 0, ((1, 1),)))


def _two_step_in_edges(inst):
    """Reference DAG view, built in two steps: the topological order of the
    vertices on source->sink paths with their out-edges among them (Kahn's
    sweep), then each vertex's in-edges, by position, in the order a sweep
    of that order meets them."""
    into = [[] for _ in range(inst.vertices)]
    for eid, e in enumerate(inst.edges):
        into[e.head].append((eid, e.tail))
    keep = network._reachable(inst.source, inst._out) & network._reachable(inst.sink, into)
    out = {v: tuple((eid, head) for eid, head in inst.out_edges(v) if head in keep)
           for v in keep}
    indegree = Counter(head for v in keep for _, head in out[v])
    ready = [v for v in keep if indegree[v] == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append((v, out[v]))
        for _, head in out[v]:
            indegree[head] -= 1
            if indegree[head] == 0:
                ready.append(head)
    if len(order) != len(keep):
        return None
    position = {v: i for i, (v, _) in enumerate(order)}
    pulled = [[] for _ in order]
    for tail, (_, arcs) in enumerate(order):
        for eid, head in arcs:
            pulled[position[head]].append((eid, tail))
    return tuple((v, *pulled[v][0], tuple(pulled[v][1:])) for v in range(1, len(order)))


@st.composite
def _graphs(draw):
    """Small multigraphs under random vertex labels: parallel edges, dead
    ends and vertices off every source->sink path; half of them acyclic,
    the rest as drawn, with cycles and self-loops."""
    n = draw(st.integers(2, 7))
    rank = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(rank, rank), max_size=16))
    if draw(st.booleans()):
        arcs = [(min(a, b), max(a, b)) for a, b in arcs if a != b]
    arcs.append((0, draw(st.integers(1, n - 1))))
    arcs = draw(st.permutations(arcs))
    out = [[] for _ in range(n)]
    for eid, (a, b) in enumerate(arcs):
        out[a].append((eid, b))
    sink = draw(st.sampled_from(sorted(network._reachable(0, out) - {0})))
    label = draw(st.permutations(range(n)))      # rank -> vertex
    unit = rr.Constant(1.0)
    edges = tuple(rr.Edge(label[a], label[b], unit, unit) for a, b in arcs)
    return rr.NetworkInstance(n, edges, label[0], label[sink], 1.0, 0.0)


@settings(max_examples=400, deadline=None)
@given(_graphs())
def test_topological_in_edges_match_the_two_step_construction(inst):
    assert inst.topological_in_edges == _two_step_in_edges(inst)


def test_path_flow_total_and_iteration():
    pf = rr.PathFlow.of([((0, 1), 0.25), ((2, 3), 0.75)])
    assert pf.total() == pytest.approx(1.0)
    assert len(pf) == 2
    assert [p for p, _ in pf] == [(0, 1), (2, 3)]


def test_kept_paths_still_meet_a_smaller_cap():
    g2, _ = build_recursive(RecursiveFamilySpec(level=2))
    # a walk that hits its cap keeps nothing
    with pytest.raises(PathCapExceeded):
        rr.enumerate_paths(g2, cap=3)
    paths = rr.enumerate_paths(g2)
    assert len(paths) == 7
    with pytest.raises(PathCapExceeded):
        rr.enumerate_paths(g2, cap=6)
    # each call returns its own list of the kept paths
    paths.clear()
    assert rr.enumerate_paths(g2, cap=7) == rr.enumerate_paths(g2) == _recursive_paths(g2)


def test_copies_keep_the_graph_views(monkeypatch):
    inst, _ = build_recursive(RecursiveFamilySpec(level=3))
    pull, paths = inst.topological_in_edges, rr.enumerate_paths(inst)
    stdev = rr.with_risk_model(inst, rr.RiskModel.MEAN_STDEV)
    copies = (stdev, rr.with_gamma(inst, 0.0), rr.with_gamma(stdev, 2.5))
    monkeypatch.setattr(network, "_walk_paths",
                        lambda *_: pytest.fail("a copy walked its paths again"))
    for copy in copies:
        assert copy.topological_in_edges is pull
        assert rr.enumerate_paths(copy) == paths
    monkeypatch.undo()
    # and solve to the bytes of an equal instance that was built afresh
    for copy in copies:
        fresh = serialization.loads_instance(serialization.dumps_instance(copy))
        assert fresh == copy
        for solve in (rr.solve_rnwe, rr.solve_rawe):
            assert (serialization.dumps_result(solve(copy))
                    == serialization.dumps_result(solve(fresh)))
