"""Equilibrium solvers: frozen reference values and cross-method checks."""

import builtins
import math
import struct
from bisect import bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskroute as rr
from riskroute import network, solver, synthetic
from riskroute.instances import RecursiveFamilySpec, Variant, build_recursive
from riskroute.solver import SolverConfig
from riskroute.synthetic import random_small_instance

CFG = SolverConfig(tolerance=1e-10)


def _pigou():
    return rr.NetworkInstance(
        2,
        (rr.Edge(0, 1, rr.Constant(1.0), rr.Constant(0.0)),
         rr.Edge(0, 1, rr.Affine(1.0, 0.0), rr.Constant(0.0))),
        0, 1, 1.0, 0.0, rr.RiskModel.MEAN_VAR)


def test_pigou_equilibrium():
    res = rr.solve_rnwe(_pigou(), CFG)
    assert res.converged
    assert np.allclose(res.flow, [0.0, 1.0], atol=1e-9)
    assert rr.social_cost(_pigou(), res.flow) == pytest.approx(1.0, abs=1e-9)


def test_classic_braess_equilibrium():
    # latencies x, 1, 1, x, 0: all demand crosses the bridge, social cost 2
    zero = rr.Constant(0.0)
    inst = rr.build_braess(
        edge_functions=[(rr.Affine(1.0, 0.0), zero), (rr.Constant(1.0), zero),
                        (rr.Constant(1.0), zero), (rr.Affine(1.0, 0.0), zero),
                        (rr.Constant(0.0), zero)],
        demand=1.0, gamma=0.0)
    res = rr.solve_rnwe(inst, CFG)
    assert res.converged
    assert np.allclose(res.flow, [1.0, 0.0, 0.0, 1.0, 1.0], atol=1e-9)
    assert rr.social_cost(inst, res.flow) == pytest.approx(2.0, abs=1e-9)


def test_level1_equilibria_and_costs():
    inst, oracle = build_recursive(RecursiveFamilySpec(level=1))
    rawe = rr.solve_rawe_meanvar(inst, CFG)
    rnwe = rr.solve_rnwe(inst, CFG)
    assert rawe.converged and rnwe.converged
    assert np.allclose(rawe.flow, rr.induced_edge_flow(inst, oracle.rawe),
                       atol=1e-8)
    assert np.allclose(rnwe.flow, rr.induced_edge_flow(inst, oracle.rnwe),
                       atol=1e-8)
    assert rr.social_cost(inst, rawe.flow) == pytest.approx(3.0, abs=1e-8)
    assert rr.social_cost(inst, rnwe.flow) == pytest.approx(1.0, abs=1e-8)
    assert rawe.common_cost == pytest.approx(3.0, abs=1e-8)


def test_rawe_meanvar_requires_meanvar_model():
    inst = rr.with_risk_model(rr.build_braess(), rr.RiskModel.MEAN_STDEV)
    with pytest.raises(ValueError):
        rr.solve_rawe_meanvar(inst)
    with pytest.raises(ValueError):
        rr.solve_rawe_meanstdev(rr.build_braess())


def test_two_link_meanstdev_splits_half_half():
    # l1 = 1 with no variance vs l2 = x with sigma = x: costs 1 vs 2x
    inst = rr.NetworkInstance(
        2,
        (rr.Edge(0, 1, rr.Constant(1.0), rr.Constant(0.0)),
         rr.Edge(0, 1, rr.Affine(1.0, 0.0), rr.Polynomial((0.0, 0.0, 1.0)))),
        0, 1, 1.0, 1.0, rr.RiskModel.MEAN_STDEV)
    res = rr.solve_rawe_meanstdev(inst, CFG)
    assert res.converged
    assert np.allclose(res.flow, [0.5, 0.5], atol=1e-8)
    assert res.common_cost == pytest.approx(1.0, abs=1e-8)


def test_zero_variance_rawe_matches_rnwe():
    zero = rr.Constant(0.0)
    inst = rr.build_braess(edge_functions=[(rr.Affine(1.0, 0.2), zero)] * 5,
                           demand=1.3, gamma=2.0)
    rawe = rr.solve_rawe_meanvar(inst, CFG)
    rnwe = rr.solve_rnwe(inst, CFG)
    assert np.allclose(rawe.flow, rnwe.flow, atol=1e-9)


def test_brute_force_agrees_with_iterative_solver():
    for seed in range(8):
        inst = random_small_instance(seed)
        bf = rr.brute_force_equilibrium(inst)
        if inst.risk_model is rr.RiskModel.MEAN_VAR:
            it = rr.solve_rawe_meanvar(inst, CFG)
        else:
            it = rr.solve_rawe_meanstdev(inst, CFG)
        assert bf.converged and it.converged
        assert np.max(np.abs(bf.flow - it.flow)) <= 1e-4, f"seed {seed}"


def test_brute_force_rejects_large_path_sets():
    inst, _ = build_recursive(RecursiveFamilySpec(level=2))  # 7 paths
    with pytest.raises(ValueError):
        rr.brute_force_equilibrium(inst)


def test_exact_line_search_descends_the_potential():
    inst, _ = build_recursive(RecursiveFamilySpec(level=3))
    values = []
    rr.solve_rawe_meanvar(
        inst, SolverConfig(tolerance=1e-8),
        callback=lambda k, flow, total, gap:
            values.append(rr.beckmann_potential(inst, flow)))
    assert len(values) > 2
    drops = np.diff(np.asarray(values))
    assert np.all(drops <= 1e-10)


def test_exact_steps_match_closed_form_split():
    inst = rr.NetworkInstance(
        2,
        (rr.Edge(0, 1, rr.Affine(1.0, 0.1), rr.Constant(0.0)),
         rr.Edge(0, 1, rr.Affine(2.0, 0.0), rr.Constant(0.0))),
        0, 1, 1.0, 0.0, rr.RiskModel.MEAN_VAR)
    exact = rr.solve_rnwe(inst, CFG)
    assert np.allclose(exact.flow, [19.0 / 30.0, 11.0 / 30.0], atol=1e-9)


def test_zero_demand_is_trivially_converged():
    inst = rr.NetworkInstance(
        2, (rr.Edge(0, 1, rr.Constant(1.0), rr.Constant(0.0)),),
        0, 1, 0.0, 0.0, rr.RiskModel.MEAN_VAR)
    res = rr.solve_rnwe(inst)
    assert res.converged
    assert np.all(res.flow == 0.0)
    assert res.path_flow.total() == 0.0


def test_iteration_cap_reports_non_convergence():
    inst = rr.NetworkInstance(
        2,
        (rr.Edge(0, 1, rr.Affine(1.0, 0.0), rr.Constant(0.0)),
         rr.Edge(0, 1, rr.Affine(1.0, 0.0), rr.Constant(0.0))),
        0, 1, 1.0, 0.0, rr.RiskModel.MEAN_VAR)
    res = rr.solve_rnwe(inst, SolverConfig(tolerance=1e-12, max_iterations=0))
    assert not res.converged


@pytest.mark.parametrize("solve, model", [
    (rr.solve_rnwe, rr.RiskModel.MEAN_VAR),
    (rr.solve_rawe_meanvar, rr.RiskModel.MEAN_VAR),
    (rr.solve_rawe_meanstdev, rr.RiskModel.MEAN_STDEV),
], ids=["additive-rnwe", "additive-rawe", "path-loop"])
def test_overflowing_costs_are_an_error(solve, model):
    def parallel(first, second, demand):
        return rr.NetworkInstance(2, (rr.Edge(0, 1, first, rr.Constant(1.0)),
                                      rr.Edge(0, 1, second, rr.Constant(1.0))),
                                  0, 1, demand, 1.0, model)

    # demand 1e308 on the first edge costs inf, and the step that moves it
    # off steps between infinite costs to NaN: both loops say so where they
    # meet the NaN, the additive loop finding no costliest path and the path
    # loop no used path
    with pytest.raises(ValueError, match="perceived path costs are not finite"):
        solve(parallel(rr.Affine(1e308, 0.0), rr.Affine(1.0, 1.0), 1e308))
    # a cost that is infinite only until the first step moves all the flow
    # off it still solves
    res = solve(parallel(rr.Affine(1e308, 1.0), rr.Constant(1.0), 2.0))
    assert res.converged and list(res.flow) == [0.0, 2.0]


@pytest.mark.parametrize("tolerance, max_iterations", [
    (math.nan, 10), (-1e-8, 10), (math.inf, 10), (1e-8, -1)])
def test_solver_config_rejects_meaningless_values(tolerance, max_iterations):
    with pytest.raises(ValueError):
        SolverConfig(tolerance, max_iterations)


def test_path_flow_decomposition_matches_edge_flow():
    inst, _ = build_recursive(RecursiveFamilySpec(level=2))
    res = rr.solve_rawe_meanvar(inst, CFG)
    rebuilt = rr.induced_edge_flow(inst, res.path_flow)
    assert np.max(np.abs(rebuilt - res.flow)) <= 1e-8
    assert res.path_flow.total() == pytest.approx(inst.demand, abs=1e-12)


def test_result_from_paths_wraps_oracles():
    inst, oracle = build_recursive(RecursiveFamilySpec(level=2))
    res = rr.result_from_paths(inst, oracle.rawe)
    assert res.converged
    assert res.vi_residual <= 1e-10
    assert res.common_cost == pytest.approx(5.0, abs=1e-10)


@pytest.mark.parametrize("variant", list(Variant))
def test_result_from_paths_wraps_meanstdev_oracle(variant):
    inst, oracle = build_recursive(RecursiveFamilySpec(level=2, variant=variant))
    inst = rr.with_risk_model(inst, rr.RiskModel.MEAN_STDEV)
    res = rr.result_from_paths(inst, oracle.rawe)
    assert res.converged
    assert res.vi_residual <= 1e-10


def test_vi_residual_detects_disequilibrium():
    inst = _pigou()
    bad = np.array([1.0, 0.0])  # everyone on the constant link
    assert rr.vi_residual(inst, bad) == pytest.approx(1.0, abs=1e-12)


def test_edge_additive_checks_reject_meanstdev():
    inst, oracle = build_recursive(RecursiveFamilySpec(level=2))
    stdev = rr.with_risk_model(inst, rr.RiskModel.MEAN_STDEV)
    flow = rr.induced_edge_flow(inst, oracle.rawe)
    with pytest.raises(ValueError):
        rr.vi_residual(stdev, flow)
    with pytest.raises(ValueError):
        rr.beckmann_potential(stdev, flow)
    # at gamma 0 the mean-stdev costs are the mean latencies, edge additive
    neutral = rr.with_gamma(stdev, 0.0)
    assert rr.vi_residual(neutral, flow) == rr.vi_residual(rr.with_gamma(inst, 0.0), flow)


@st.composite
def _dags_with_costs(draw):
    """Small DAGs under random vertex labels, with small integer edge costs
    so that equal-cost paths are common."""
    n = draw(st.integers(2, 7))
    label = draw(st.permutations(range(n)))      # topological rank -> vertex
    rank = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(rank, rank).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=14))
    arcs = [(min(a, b), max(a, b)) for a, b in pairs]
    arcs.append((0, draw(st.integers(1, n - 1))))
    arcs = draw(st.permutations(arcs))
    reach = {0}
    for a, b in sorted(arcs):
        if a in reach:
            reach.add(b)
    sink = draw(st.sampled_from(sorted(reach - {0})))
    zero = rr.Constant(0.0)
    edges = tuple(rr.Edge(label[a], label[b], zero, zero) for a, b in arcs)
    inst = rr.NetworkInstance(n, edges, label[0], label[sink], 1.0, 0.0,
                              rr.RiskModel.MEAN_VAR)
    costs = draw(st.lists(st.integers(0, 3).map(float),
                          min_size=len(edges), max_size=len(edges)))
    return inst, costs


@settings(max_examples=300, deadline=None)
@given(_dags_with_costs())
def test_topological_sweep_matches_dijkstra(case):
    inst, costs = case
    pull = inst.topological_in_edges
    assert pull is not None
    assert solver._dag_shortest_path(costs, pull) == solver._dijkstra(inst, costs)


def test_parallel_edges_tie_toward_the_smaller_id():
    # 0 -> 1 by parallel edges 3 and 1, 1 -> 2 by parallel edges 4 and 0,
    # and 0 -> 2 directly by edge 2; every cost pattern in {0, 1}, so that
    # parallel edges tie with each other and with the direct edge
    zero = rr.Constant(0.0)
    arcs = [(1, 2), (0, 1), (0, 2), (0, 1), (1, 2)]
    inst = rr.NetworkInstance(3, tuple(rr.Edge(a, b, zero, zero) for a, b in arcs),
                              0, 2, 1.0, 0.0, rr.RiskModel.MEAN_VAR)
    pull = inst.topological_in_edges
    assert pull == ((1, 1, 0, ((3, 0),)), (2, 2, 0, ((0, 1), (4, 1))))
    for bits in range(2 ** len(arcs)):
        costs = [float(bits >> i & 1) for i in range(len(arcs))]
        assert solver._dag_shortest_path(costs, pull) == solver._dijkstra(inst, costs)
    assert solver._shortest_path(inst, [1.0, 1.0, 2.0, 1.0, 1.0]) == ((1, 0), 2.0)
    # a sweep that meets the larger id of a tied parallel pair first keeps
    # the smaller one
    larger_first = ((1, 3, 0, ((1, 0),)), (2, 4, 1, ((0, 1), (2, 0))))
    assert solver._dag_shortest_path([1.0, 1.0, 2.0, 1.0, 1.0], larger_first) == ((1, 0), 2.0)


@pytest.mark.parametrize("make", [
    lambda: build_recursive(RecursiveFamilySpec(level=4, gamma_kappa=1.0,
                                                variant=Variant.FUNCTIONAL))[0],
    *[lambda seed=seed: synthetic.random_affine_instance(seed) for seed in range(5)],
    *[lambda seed=seed: synthetic.random_polynomial_instance(seed, 3) for seed in range(5)],
])
def test_gap_mirrors_stay_in_step_with_the_flow(make):
    # the loop's total comes from array mirrors of its flow and costs that a
    # step updates in place and a rebuild every 256 steps copies; each total
    # must be the dot product recomputed from scratch, and each gap the one
    # `_edge_gap` finds.  The level-4 functional risk-averse solve runs 2048
    # pair steps into its Newton finish
    inst = make()
    for solve, gamma in ((rr.solve_rnwe, 0.0), (rr.solve_rawe_meanvar, inst.gamma)):
        seen = []

        def check(k, flow, total, gap):
            costs = [e.latency(x) + gamma * e.variability(x) if gamma else e.latency(x)
                     for e, x in zip(inst.edges, flow.tolist())]
            assert total == float(flow @ np.array(costs)), k
            table = solver._edge_table(inst, gamma)
            assert gap == solver._edge_gap(inst, flow, table.cost, inst.demand)[0], k
            seen.append(k)

        res = solve(inst, callback=check)
        assert seen == list(range(res.iterations + 1))


def test_cyclic_graph_falls_back_to_dijkstra():
    # Braess graph plus a bottom->top back edge (id 5); at equilibrium a
    # quarter of the demand takes the path that uses it
    edges = (rr.Edge(0, 1, rr.Affine(1.0, 0.5), rr.Constant(0.0)),
             rr.Edge(1, 3, rr.Affine(1.0, 0.0), rr.Constant(0.0)),
             rr.Edge(0, 2, rr.Affine(1.0, 0.0), rr.Constant(0.0)),
             rr.Edge(2, 3, rr.Affine(1.0, 0.5), rr.Constant(0.0)),
             rr.Edge(1, 2, rr.Affine(1.0, 1.0), rr.Constant(0.0)),
             rr.Edge(2, 1, rr.Affine(1.0, 0.0), rr.Constant(0.0)))
    inst = rr.NetworkInstance(4, edges, 0, 3, 1.0, 0.0, rr.RiskModel.MEAN_VAR)
    assert inst.topological_in_edges is None
    res = rr.solve_rnwe(inst, CFG)
    bf = rr.brute_force_equilibrium(inst)
    assert res.converged and bf.converged
    assert np.max(np.abs(bf.flow - res.flow)) <= 1e-4
    assert np.allclose(res.flow, [0.375, 0.625, 0.625, 0.375, 0.0, 0.25], atol=1e-8)


@pytest.mark.parametrize("level, variant, rawe_iterations, rnwe_iterations", [
    (5, Variant.STRUCTURAL, 1236, 881),
    (4, Variant.FUNCTIONAL, 2048, 199),
])
def test_family_iteration_counts_are_pinned(level, variant, rawe_iterations,
                                            rnwe_iterations):
    # the solver's trajectory on the recursive family; a change to the step
    # or the tie-breaking shows here first.  The level-4 functional
    # risk-averse solve ends in the first Newton finish, at pair step 2048
    inst, _ = build_recursive(RecursiveFamilySpec(level=level, gamma_kappa=1.0,
                                                  variant=variant))
    assert rr.solve_rawe_meanvar(inst).iterations == rawe_iterations
    assert rr.solve_rnwe(inst).iterations == rnwe_iterations


@pytest.mark.parametrize("make, rnwe_iterations, rawe_iterations", [
    (synthetic.random_affine_instance, [1, 1, 1, 30, 30], [1, 1, 24, 34, 25]),
    (lambda seed: synthetic.random_polynomial_instance(seed, 3),
     [16, 1, 53, 1, 22], [20, 1, 1, 28, 0]),
], ids=["affine", "poly3"])
def test_sweep_iteration_counts_are_pinned(make, rnwe_iterations, rawe_iterations):
    # branches the recursive family never takes: the affine instances weigh
    # in `Affine` variances, which the edge table does not fold, and the
    # cubic ones step on curved pieces, where Anderson-Bjorck starts from
    # the derivative at 0 the loop already holds
    got = [(rr.solve_rnwe(make(seed)).iterations, rr.solve_rawe_meanvar(make(seed)).iterations)
           for seed in range(5)]
    assert got == list(zip(rnwe_iterations, rawe_iterations))


_SWEEP_MAKERS = {
    "affine": synthetic.random_affine_instance,
    "poly3": lambda seed: synthetic.random_polynomial_instance(seed, 3),
    "series-parallel": synthetic.random_series_parallel_instance,
    "braess": synthetic.random_braess_instance,
    "domino": synthetic.random_domino_instance,
}


@pytest.mark.parametrize("what", sorted(_SWEEP_MAKERS))
def test_converged_bounds_the_vi_residual(what):
    # what `EquilibriumResult` promises: converged=True from either loop
    # means vi_residual <= tolerance, and the mean-stdev path loop also keeps
    # every listed path within tolerance * min(1, common_cost) of common_cost
    tol = SolverConfig().tolerance
    for seed in range(10):
        inst = _SWEEP_MAKERS[what](seed)
        rawe = rr.solve_rawe(inst)
        for res in (rr.solve_rnwe(inst), rawe):
            assert res.converged and res.vi_residual <= tol, seed
        if not inst.edge_additive:
            cap = rawe.common_cost + tol * min(1.0, rawe.common_cost)
            assert all(rr.path_cost(inst, p, rawe.flow) <= cap for p, _ in rawe.path_flow), seed


def _compensated_sum(items, start=0):
    """sum() as Python 3.12 computes it over floats (Neumaier compensation)."""
    items = list(items)
    if not all(type(x) is float for x in items):
        return builtins.sum(items, start)
    total, comp = start, 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_iterates_do_not_depend_on_the_python_sum(monkeypatch):
    # the solver's float sums are plain loops, so the compensated sum() of
    # Python 3.12 on leaves the pair-step trajectory as it is
    monkeypatch.setattr(solver, "sum", _compensated_sum, raising=False)
    monkeypatch.setattr(solver, "_additive_finish", lambda *args: None)
    inst, _ = build_recursive(RecursiveFamilySpec(level=4, gamma_kappa=1.0,
                                                  variant=Variant.FUNCTIONAL))
    assert rr.solve_rawe_meanvar(inst).iterations == 3472
    assert rr.solve_rnwe(inst).iterations == 199


@pytest.mark.parametrize("level, iterations", [(4, 3472), (5, 15110)])
def test_additive_pair_steps_alone_keep_their_trajectory(monkeypatch, level, iterations):
    # with every Newton finish failing, the solve is the pair loop alone,
    # step for step
    monkeypatch.setattr(solver, "_additive_finish", lambda *args: None)
    inst, _ = build_recursive(RecursiveFamilySpec(level=level, gamma_kappa=1.0,
                                                  variant=Variant.FUNCTIONAL))
    res = rr.solve_rawe_meanvar(inst)
    assert res.converged and res.iterations == iterations


@pytest.mark.parametrize("level", [4, 5])
def test_additive_finish_matches_the_oracle(level):
    # the pair steps alone reach the oracle's social cost to about 1e-10
    inst, oracle = build_recursive(RecursiveFamilySpec(level=level, gamma_kappa=1.0,
                                                       variant=Variant.FUNCTIONAL))
    res = rr.solve_rawe_meanvar(inst)
    expected = network.social_cost(inst, network.induced_edge_flow(inst, oracle.rawe))
    assert res.converged and res.iterations == 2048
    assert network.social_cost(inst, res.flow) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("variant", list(Variant))
def test_level6_family_converges_to_its_bound(variant):
    # the first family level beyond the benchmark; the structural solves end
    # in the Newton finish, where the pair steps alone take 75,519 steps
    inst, oracle = build_recursive(RecursiveFamilySpec(level=6, gamma_kappa=1.0,
                                                       variant=variant))
    rawe, rnwe = rr.solve_rawe_meanvar(inst), rr.solve_rnwe(inst)
    assert rawe.converged and rnwe.converged
    assert oracle.expected_pra == 1.0 + 2.0 ** 6
    assert rr.compute_pra(inst, rawe, rnwe) == pytest.approx(oracle.expected_pra, rel=1e-8)


def test_kkt_step_solves_a_singular_system_by_least_squares():
    # two parallel pairs in series: the four paths' incidence rows are
    # dependent (p00 + p11 = p01 + p10), so the Jacobian has rank 3 and the
    # KKT matrix is singular; slopes 1 and 2 keep the elimination exact
    edges = tuple(rr.Edge(t, h, rr.Affine(m, b), rr.Constant(0.0))
                  for t, h, m, b in [(0, 1, 1.0, 0.0), (0, 1, 1.0, 0.5),
                                     (1, 2, 2.0, 0.0), (1, 2, 2.0, 0.5)])
    inst = rr.NetworkInstance(3, edges, 0, 2, 1.0, 0.0, rr.RiskModel.MEAN_VAR)
    paths = rr.enumerate_paths(inst)
    assert len(paths) == 4
    a = np.zeros((4, 4))
    for i, p in enumerate(paths):
        a[i, list(p)] = 1.0
    flow = [0.5] * 4
    jac = solver._cost_jacobian(inst, a, flow, 0.0)
    kkt = np.block([[jac, -np.ones((4, 1))], [np.ones((1, 4)), np.zeros((1, 1))]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(kkt, np.ones(5))
    q = np.array([rr.path_cost(inst, p, np.array(flow)) for p in paths])
    step = solver._kkt_step(jac, np.full(4, 0.25), q, 1.0, iter(range(16)))
    assert step is not None
    keep, new = step
    assert keep.all() and np.all(np.isfinite(new)) and np.all(new >= 0.0)
    assert new.sum() == pytest.approx(1.0)
    # the least-squares step lands on equal costs: the linear system is exact
    amounts = np.zeros(4)
    amounts[keep] = new
    costs = [rr.path_cost(inst, p, a.T @ amounts) for p in paths]
    assert max(costs) - min(costs) == pytest.approx(0.0, abs=1e-12)


def _routes_its_demand(inst, res):
    return abs(network.flow_demand(inst, res.flow) - inst.demand) <= 1e-12 * inst.demand


def test_finishes_reject_a_candidate_that_does_not_route_the_demand(monkeypatch):
    # a KKT step solved for 1e-3 less than the demand equalizes the costs of
    # an under-routed flow, whose gap clamps to 0, so it passes both loops'
    # convergence tests; both finishes must reject it, and the pair steps go
    # on to a flow that routes the demand
    kkt_step = solver._kkt_step
    monkeypatch.setattr(solver, "_kkt_step", lambda jac, h, q, demand, budget:
                        kkt_step(jac, h, q, demand - 1e-3, budget))
    finishes = {"_additive_finish": [], "_newton_finish": []}
    for name, landed in finishes.items():
        def counted(*args, finish=getattr(solver, name), landed=landed):
            found = finish(*args)
            landed.append(found is not None)
            return found
        monkeypatch.setattr(solver, name, counted)
    inst, _ = build_recursive(RecursiveFamilySpec(level=4, gamma_kappa=1.0,
                                                  variant=Variant.FUNCTIONAL))
    ms = synthetic.random_series_parallel_instance(24)
    # with a step that routes the demand, the additive finish lands at pair
    # step 2048 and the Newton finish at 8; the pair steps alone take 3472
    # and 1091, as the tests of the pair loops alone pin
    for instance, res, iterations in ((inst, rr.solve_rawe_meanvar(inst), 3472),
                                      (ms, rr.solve_rawe_meanstdev(ms), 1091)):
        assert res.converged and res.iterations == iterations
        assert _routes_its_demand(instance, res)
    assert finishes["_additive_finish"] == [False]
    assert finishes["_newton_finish"] and not any(finishes["_newton_finish"])


def test_converged_results_route_their_demand():
    # what `EquilibriumResult` promises: a converged flow routes the demand,
    # from the pair steps and from either Newton finish
    solves = []
    for variant in Variant:
        for level in range(1, 7):
            inst, _ = build_recursive(RecursiveFamilySpec(level=level, gamma_kappa=1.0,
                                                          variant=variant))
            ms = rr.with_risk_model(inst, rr.RiskModel.MEAN_STDEV)
            solves += [(inst, rr.solve_rnwe), (inst, rr.solve_rawe_meanvar),
                       (ms, rr.solve_rawe_meanstdev)]
    # the seven families of `riskroute sweep --what`
    sweep_families = (synthetic.random_affine_instance,
                      *(lambda seed, d=d: synthetic.random_polynomial_instance(seed, d)
                        for d in (2, 3, 4)),
                      synthetic.random_series_parallel_instance,
                      synthetic.random_braess_instance, synthetic.random_domino_instance)
    for make in sweep_families:
        for seed in range(20):
            inst = make(seed)
            solves += [(inst, rr.solve_rnwe), (inst, rr.solve_rawe)]
    for inst, solve in solves:
        res = solve(inst)
        assert res.converged
        assert _routes_its_demand(inst, res)


def test_oracle_checks_do_not_depend_on_the_python_sum(monkeypatch):
    # PathFlow.total and flow_demand sum left to right: the risk-averse
    # oracle of demand 0.3 totals 0.30000000000000004, where a compensated
    # sum gives 0.3
    inst, oracle = build_recursive(RecursiveFamilySpec(level=3, r_a=0.3, r_n=0.3))
    neutral = rr.with_gamma(inst, 0.0)

    def outputs():
        results = [rr.result_from_paths(inst, oracle.rawe),
                   rr.result_from_paths(neutral, oracle.rnwe)]
        return ([(r.flow.tolist(), r.path_flow, r.common_cost, r.vi_residual,
                  r.converged) for r in results],
                rr.closed_form_check(inst, oracle),
                network.flow_demand(inst, results[0].flow))

    builtin = outputs()
    monkeypatch.setattr(network, "sum", _compensated_sum, raising=False)
    assert outputs() == builtin


def _family_meanstdev(level, variant):
    inst, oracle = build_recursive(RecursiveFamilySpec(level=level, gamma_kappa=1.0,
                                                       variant=variant))
    return rr.with_risk_model(inst, rr.RiskModel.MEAN_STDEV), oracle


@pytest.mark.parametrize("level, variant, iterations", [
    (3, Variant.FUNCTIONAL, 8),
    (4, Variant.STRUCTURAL, 13),
    (5, Variant.STRUCTURAL, 24),
])
def test_meanstdev_iteration_counts_are_pinned(level, variant, iterations):
    # the path solver's trajectory on the family read under mean-stdev: a
    # Newton finish at the first pair step that leaves the used paths as
    # they were, from step 8 on, ends each of these solves
    ms, _ = _family_meanstdev(level, variant)
    assert rr.solve_rawe_meanstdev(ms).iterations == iterations


@pytest.mark.parametrize("level, variant, iterations", [
    (3, Variant.FUNCTIONAL, 754),
    (4, Variant.STRUCTURAL, 470),
    (5, Variant.STRUCTURAL, 1391),
])
def test_meanstdev_pair_steps_alone_keep_their_trajectory(monkeypatch, level, variant,
                                                          iterations):
    # with every Newton finish failing, the solve is the pair loop alone,
    # step for step
    monkeypatch.setattr(solver, "_newton_finish", lambda *args: None)
    ms, _ = _family_meanstdev(level, variant)
    res = rr.solve_rawe_meanstdev(ms)
    assert res.converged and res.iterations == iterations


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
def test_meanstdev_family_social_cost_matches_the_oracle(level, variant):
    ms, oracle = _family_meanstdev(level, variant)
    res = rr.solve_rawe_meanstdev(ms)
    expected = network.social_cost(ms, network.induced_edge_flow(ms, oracle.rawe))
    assert res.converged
    assert network.social_cost(ms, res.flow) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("generate", [synthetic.random_series_parallel_instance,
                                      synthetic.random_braess_instance,
                                      synthetic.random_domino_instance])
def test_meanstdev_sweep_generators_converge_and_match_brute_force(monkeypatch, generate):
    landed = []
    newton_finish = solver._newton_finish

    def counted(*args):
        amounts = newton_finish(*args)
        landed.append(amounts is not None)
        return amounts

    monkeypatch.setattr(solver, "_newton_finish", counted)
    for seed in range(50):
        inst = generate(seed)
        res = rr.solve_rawe_meanstdev(inst)
        assert res.converged, f"seed {seed}"
        # the result keeps the solver's contract: every used path costs
        # within tolerance of the common cost
        costs = [rr.path_cost(inst, p, res.flow) for p, _ in res.path_flow]
        assert max(costs) - res.common_cost <= 1e-8 * max(1.0, res.common_cost)
        if len(rr.enumerate_paths(inst)) <= 4:
            bf = rr.brute_force_equilibrium(inst)
            assert bf.converged, f"seed {seed}"
            assert np.max(np.abs(bf.flow - res.flow)) <= 1e-4, f"seed {seed}"
    # the solves a Newton finish ended (a finish that lands ends its solve),
    # at pair step 8, series-parallel seed 35 at 9; among them seeds 24 and
    # 35, which take 1,091 and 186 pair steps without the finish
    assert sum(landed) == {synthetic.random_series_parallel_instance: 8,
                     synthetic.random_braess_instance: 10,
                     synthetic.random_domino_instance: 31}[generate]


@pytest.mark.parametrize("seed, iterations", [(24, 8), (35, 9), (62, 8), (101, 8), (125, 9)])
def test_newton_finish_agrees_with_the_pair_steps(monkeypatch, seed, iterations):
    # series-parallel instances where the finish ends the solve: the pair
    # loop alone reaches the same flow.  All but seed 125 have five or more
    # paths, beyond brute force.  Seed 125's four paths are dependent, so
    # the equal-cost system on all four is singular: its finish solves that
    # by least squares, drops the path whose amount turns negative and
    # lands on the equilibrium's three
    inst = synthetic.random_series_parallel_instance(seed)
    finished = rr.solve_rawe_meanstdev(inst)
    monkeypatch.setattr(solver, "_newton_finish", lambda *args: None)
    paired = rr.solve_rawe_meanstdev(inst)
    assert finished.converged and paired.converged
    assert finished.iterations == iterations < paired.iterations
    assert np.max(np.abs(finished.flow - paired.flow)) <= 1e-6


_param = st.floats(0.0, 10.0)


@st.composite
def _piecewise_linear(draw):
    steps = draw(st.lists(st.tuples(st.floats(0.01, 3.0), _param), min_size=1, max_size=4))
    x, y, points = draw(st.floats(0.0, 1.0)), 0.0, []
    for dx, dy in steps:
        points.append((x, y))
        x, y = x + dx, y + dy
    return rr.PiecewiseLinear(tuple(points))


@st.composite
def _functions(draw):
    kind = draw(st.sampled_from(["const", "affine", "poly", "pwl"]))
    if kind == "const":
        return rr.Constant(draw(_param))
    if kind == "affine":
        return rr.Affine(draw(_param), draw(_param))
    if kind == "poly":
        return rr.Polynomial(tuple(draw(st.lists(_param, min_size=1, max_size=4))))
    return draw(_piecewise_linear())


@st.composite
def _instances_with_flows(draw):
    """Small DAGs with every function kind, either risk model, gamma 0 or
    positive, and an arbitrary nonnegative edge flow."""
    n = draw(st.integers(2, 5))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 2), st.integers(1, n - 1))
                         .filter(lambda a: a[0] < a[1]), max_size=8))
    arcs.append((0, n - 1))
    edges = tuple(rr.Edge(a, b, draw(_functions()), draw(_functions())) for a, b in arcs)
    gamma = draw(st.one_of(st.just(0.0), st.floats(0.01, 5.0)))
    inst = rr.NetworkInstance(n, edges, 0, n - 1, 1.0, gamma,
                              draw(st.sampled_from(list(rr.RiskModel))))
    flow = np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=len(edges),
                                  max_size=len(edges))))
    return inst, flow


@settings(max_examples=300, deadline=None)
@given(_instances_with_flows())
def test_path_costs_match_path_cost_bit_for_bit(case):
    inst, flow = case
    paths = rr.enumerate_paths(inst)
    moments = solver._moments_at(*solver._moment_fns(inst), flow.tolist())
    assert solver._path_costs(inst, paths, *moments) == [
        rr.path_cost(inst, p, flow) for p in paths]


_latencies = st.one_of(
    st.builds(rr.Affine, _param, _param), _piecewise_linear(),
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4).map(
        lambda coeffs: rr.Polynomial(tuple(coeffs))))
_variances = st.one_of(_param.map(rr.Constant),
                       st.builds(rr.Affine, st.floats(0.0, 2.0), st.floats(0.0, 2.0)))

# slope of every step function `_steps` draws is at least this
_MIN_SLOPE = 0.5


@st.composite
def _steps(draw):
    """One step of either solver on two disjoint source->sink chains: moving
    t in [0, t_max] off the worst chain onto the best.  Returns the step
    function t -> (best cost - worst cost) or the potential's derivative,
    its knots and linearity as the solver sees them, t_max, the size of the
    costs it subtracts at 0 and at t_max, and their number."""
    gamma = draw(st.one_of(st.just(0.0), st.floats(0.01, 3.0)))
    model = draw(st.sampled_from(list(rr.RiskModel)))
    t_max = draw(st.floats(0.01, 2.0))
    best = [(draw(_latencies), draw(_variances)) for _ in range(draw(st.integers(1, 3)))]
    worst = [(draw(_latencies), draw(_variances)) for _ in range(draw(st.integers(1, 3)))]
    best[0] = (rr.Affine(draw(st.floats(_MIN_SLOPE, 2.0)), draw(_param)), best[0][1])
    # a constant head start on the worst chain makes most steps cross zero inside
    worst.append((rr.Constant(draw(st.floats(0.0, 6.0))), rr.Constant(0.0)))
    edges, paths, n = [], [], 2
    for chain in (best, worst):
        stops = [0, *range(n, n + len(chain) - 1), 1]
        n += len(chain) - 1
        paths.append(tuple(range(len(edges), len(edges) + len(chain))))
        edges += [rr.Edge(tail, head, lat, var)
                  for tail, head, (lat, var) in zip(stops, stops[1:], chain)]
    inst = rr.NetworkInstance(n, tuple(edges), 0, 1, 1.0, gamma, model)
    moves = ([(eid, draw(st.floats(0.0, 2.0)), 1.0) for eid in paths[0]]
             + [(eid, t_max + draw(st.floats(0.0, 2.0)), -1.0) for eid in paths[1]])

    if model is rr.RiskModel.MEAN_VAR or gamma == 0.0:
        cost_of = solver._edge_table(inst, gamma).cost

        def costs(t):
            return [d * cost_of[eid](f + d * t) for eid, f, d in moves]

        def fn(t):
            acc = 0.0
            for c in costs(t):
                acc += c
            return acc

        def size(t):
            return math.fsum(abs(c) for c in costs(t))
    else:
        moments = solver._moment_fns(inst)

        def pair(t):
            flow = [f + d * t for _, f, d in moves]
            return solver._path_costs(inst, paths[::-1], *solver._moments_at(*moments, flow))

        def fn(t):
            cw, cb = pair(t)
            return cb - cw

        def size(t):
            return math.fsum(pair(t))
    knots, linear = solver._slope_knots(*solver._edge_knots(inst, gamma), moves, t_max)
    return fn, knots, linear, t_max, size(0.0), size(t_max), len(moves)


def _bisection_root(fn, t_max):
    """Reference root: bisection on the sign of fn, run down to adjacent floats."""
    if fn(0.0) >= 0.0:
        return 0.0
    if fn(t_max) <= 0.0:
        return t_max
    lo, hi = 0.0, t_max
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


@settings(max_examples=400, deadline=None)
@given(_steps())
def test_step_root_matches_bisection(step):
    # the walk alone: the bracket search returns its bits (tests below)
    fn, knots, linear, t_max, size, size_max, terms = step
    with mock.patch.object(solver, "_SEARCH_FROM", math.inf):
        got = solver._step_root(fn, t_max, knots, linear, fn(0.0), size, terms)
    ref = _bisection_root(fn, t_max)
    # the step function is known to a few rounding errors of the costs it
    # subtracts, which fixes its root to that over its slope; beyond that
    # the two agree to a few ulps
    assert abs(got - ref) <= (4 * math.ulp(t_max)
                              + 16 * 2.0 ** -52 * max(size, size_max) / _MIN_SLOPE)


@settings(max_examples=300, deadline=None)
@given(_steps(), st.lists(st.floats(0.0, 2.0), max_size=150),
       st.sampled_from([1, 2, 3, 5, 8, 60, 100]), st.booleans())
def test_step_root_keeps_its_call_cap(step, extra_knots, cap, linear):
    fn, knots, _, t_max, size, _, terms = step
    calls = []

    def counted(t):
        calls.append(t)
        return fn(t)

    with mock.patch.object(solver, "_SEARCH_FROM", math.inf), \
            mock.patch.object(solver, "_STEP_CALLS", cap):
        t = solver._step_root(counted, t_max, set(knots) | set(extra_knots), linear,
                              fn(0.0), size, terms)
    assert len(calls) <= cap
    # an interpolation next to t_max may round a few ulps past it
    assert 0.0 <= t <= t_max + 4 * math.ulp(t_max)


def test_curved_steps_spend_few_calls(monkeypatch):
    # Anderson-Bjorck, stopping once fn is within its rounding noise of 0:
    # over both solves of poly3 seeds 0-199 a curved step calls fn 4.98
    # times on average (Illinois to a 4-ulp bracket: 7.29)
    steps, calls = [], []
    step_root = solver._step_root

    def counted(fn, t_max, knots, linear, *rest):
        if linear:
            return step_root(fn, t_max, knots, linear, *rest)
        steps.append(t_max)

        def call(t):
            calls.append(t)
            return fn(t)
        return step_root(call, t_max, knots, linear, *rest)

    monkeypatch.setattr(solver, "_step_root", counted)
    for seed in range(200):
        inst = synthetic.random_polynomial_instance(seed, 3)
        rr.solve_rnwe(inst)
        rr.solve_rawe(inst)
    assert len(calls) <= 5.0 * len(steps)


def test_curved_steps_keep_their_precision_at_tiny_scale():
    # costs x^3 and 2 x^3: at demand 1e-60 the step function's values are
    # near 1e-180, and products of two of them underflow to 0; the split is
    # the one at demand 1, x1 / x2 = 2^(1/3), scaled
    def instance(demand):
        return rr.NetworkInstance(
            2, (rr.Edge(0, 1, rr.Polynomial((0.0, 0.0, 0.0, 1.0)), rr.Constant(1.0)),
                rr.Edge(0, 1, rr.Polynomial((0.0, 0.0, 0.0, 2.0)), rr.Constant(1.0))),
            0, 1, demand, 1.0, network.RiskModel.MEAN_VAR)

    tiny, unit = rr.solve_rnwe(instance(1e-60)), rr.solve_rnwe(instance(1.0))
    assert tiny.converged and unit.converged
    assert tiny.flow[0] / tiny.flow[1] == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)
    assert list(tiny.flow / 1e-60) == pytest.approx(list(unit.flow), rel=1e-12)


def _walked_root(fn, t_max, knots, cap, v0):
    """Reference for a linear step: the ordered walk alone, every knot in
    (0, t_max), then t_max, evaluated in ascending order until fn reads
    nonnegative, and one interpolation there."""
    if v0 >= 0.0:
        return 0.0
    a, fa, calls = 0.0, v0, 0
    for b in sorted(k for k in knots if 0.0 < k < t_max) + [t_max]:
        if calls >= cap:
            return a
        fb = fn(b)
        calls += 1
        if fb < 0.0:
            a, fa = b, fb
        elif fb == 0.0 and b == t_max:
            return b
        else:
            return a + (0.0 - fa) * (b - a) / (fb - fa)
    return t_max


def _near(x):
    """x >= 0, or a nonnegative float next to it."""
    return st.sampled_from([x, max(math.nextafter(x, -math.inf), 0.0),
                            math.nextafter(x, math.inf)])


@st.composite
def _linear_steps(draw):
    """A linear step of either solver, as `_steps` draws it, shaped for the
    bracket search's hard cases.  Latencies are piecewise-linear, from a
    few shapes that several edges share so that their knots coincide, or
    affine; variances Constant, or Affine where the cost stays linear
    (mean-var).  Flows sit on a breakpoint, a float beside one, or
    anywhere.  A third of the draws put the root on a knot: one
    piecewise-linear edge from flow 0 against a constant equal to, or a
    float beside, its value at a breakpoint, which may be t_max itself.
    Returns (fn, v0, knots, t_max, size, terms) as the solver passes them."""
    gamma = draw(st.one_of(st.just(0.0), st.floats(0.01, 3.0)))
    model = draw(st.sampled_from(list(rr.RiskModel)))
    stdev = gamma != 0.0 and model is rr.RiskModel.MEAN_STDEV
    shapes = draw(st.lists(_piecewise_linear(), min_size=1, max_size=3))
    latency = st.one_of(st.sampled_from(shapes), st.builds(rr.Affine, _param, _param))
    variance = st.builds(rr.Constant, _param)
    if not stdev:
        variance = st.one_of(variance, st.builds(rr.Affine, _param, _param))
    if draw(st.integers(0, 2)) == 0:
        fn = draw(st.sampled_from(shapes))
        x, y = draw(st.sampled_from(fn.points))
        best = [(fn, rr.Constant(0.0))]
        worst = [(rr.Constant(draw(_near(y))), rr.Constant(0.0))]
        t_max = draw(st.one_of(_near(x), st.floats(0.01, 4.0))) if x > 0.0 else 1.0
        flows = [0.0, t_max]
    else:
        best = [(draw(latency), draw(variance)) for _ in range(draw(st.integers(1, 6)))]
        worst = [(draw(latency), draw(variance)) for _ in range(draw(st.integers(1, 6)))]
        t_max = draw(st.floats(0.01, 4.0))
        flows, lead = [], 0.0
        for d, chain in ((1.0, best), (-1.0, worst)):
            for lat, var in chain:
                breaks = [x for x, _ in lat.points] if isinstance(lat, rr.PiecewiseLinear) else []
                # a worst edge carries at least t_max
                breaks = [x for x in breaks if d > 0 or x >= t_max]
                f = draw(st.one_of(st.floats(0.0, 4.0), *(_near(x) for x in breaks)))
                flows.append(max(f, 0.0) if d > 0 else max(f, t_max))
                lead += d * (lat(flows[-1]) + gamma * var(flows[-1]))
        # a constant head start on the worst chain, about the best chain's
        # lead and a margin: most steps cross zero inside, a large margin none
        worst.append((rr.Constant(max(lead, 0.0) + draw(st.floats(0.0, 20.0))),
                      rr.Constant(0.0)))
        flows.append(t_max)
    edges, paths, n = [], [], 2
    for chain in (best, worst):
        stops = [0, *range(n, n + len(chain) - 1), 1]
        n += len(chain) - 1
        paths.append(tuple(range(len(edges), len(edges) + len(chain))))
        edges += [rr.Edge(tail, head, lat, var)
                  for tail, head, (lat, var) in zip(stops, stops[1:], chain)]
    inst = rr.NetworkInstance(n, tuple(edges), 0, 1, 1.0, gamma, model)
    moves = ([(eid, flows[eid], 1.0) for eid in paths[0]]
             + [(eid, flows[eid], -1.0) for eid in paths[1]])
    knots, linear = solver._slope_knots(*solver._edge_knots(inst, gamma), moves, t_max)
    assert linear
    if stdev:
        # the path loop's pair step: best path's cost minus the worst's
        moments = solver._moment_fns(inst)

        def pair(t):
            flow = [f + d * t for _, f, d in moves]
            return solver._path_costs(inst, paths[::-1], *solver._moments_at(*moments, flow))

        def fn(t):
            cw, cb = pair(t)
            return cb - cw

        cw, cb = pair(0.0)
        return fn, cb - cw, knots, t_max, cb + cw, len(moves)

    # the additive loop's potential derivative, summed left to right
    cost_of = solver._edge_table(inst, gamma).cost

    def fn(t):
        acc = 0.0
        for eid, f, d in moves:
            acc += d * cost_of[eid](f + d * t)
        return acc

    size = 0.0
    for eid, f, _ in moves:
        size += cost_of[eid](f)
    return fn, fn(0.0), knots, t_max, size, len(moves)


@settings(max_examples=400, deadline=None)
@given(_linear_steps(), st.integers(0, 40).flatmap(
    lambda n: st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n)),
       st.one_of(st.just(99), st.sampled_from([2, 5, 8, 20])), st.sampled_from([2, 10]))
def test_bracket_search_returns_the_walks_step_bit_for_bit(step, extra_knots, cap, search_from):
    # the search certifies the walk's bracket or hands back to the walk, so
    # the step is the walk's to the bit, whichever steps search.  Extra
    # knots, where fn does not change slope, make long walks, and more
    # points than the cap leave the walk alone; each point is evaluated at
    # most once
    fn, v0, knots, t_max, size, terms = step
    knots = set(knots) | set(extra_knots)
    calls = []

    def counted(t):
        calls.append(t)
        return fn(t)

    with mock.patch.object(solver, "_SEARCH_FROM", search_from), \
            mock.patch.object(solver, "_STEP_CALLS", cap):
        got = solver._step_root(counted, t_max, knots, True, v0, size, terms)
    assert _bits(got) == _bits(_walked_root(fn, t_max, knots, cap, v0))
    assert len(calls) <= cap and len(set(calls)) == len(calls)


def test_bracket_search_spends_few_calls_and_falls_back_near_a_zero(monkeypatch):
    # 40 knots of one piecewise-linear edge, x^2 at the integers, from flow
    # 0 against a constant.  The search finds the root's piece in 6 calls
    # where the walk calls fn at every knot up to it, 27 of them.  A
    # constant one ulp above the cost at 30 leaves fn one ulp below 0 there,
    # too close to 0 to certify, and the walk takes over: it reads the 6
    # values the search knows and calls fn at its other 26 points, to the
    # same bits
    searches = []
    search_bracket = solver._search_bracket

    def recorded(*args):
        found = search_bracket(*args)
        searches.append(found)
        return found

    monkeypatch.setattr(solver, "_search_bracket", recorded)
    points = tuple((float(x), float(x * x)) for x in range(41))
    best = rr.Edge(0, 1, rr.PiecewiseLinear(points), rr.Constant(0.0))
    for head_start, walked, searched, found in (
            (700.5, 27, 6, (26.0, -24.5, 27.0, 28.5)),
            (math.nextafter(900.0, math.inf), 31, 32, None)):
        worst = rr.Edge(0, 1, rr.Constant(head_start), rr.Constant(0.0))
        inst = rr.NetworkInstance(2, (best, worst), 0, 1, 1.0, 0.0, rr.RiskModel.MEAN_VAR)
        cost_of = solver._edge_table(inst, 0.0).cost
        moves = [(0, 0.0, 1.0), (1, 40.0, -1.0)]
        calls = []

        def fn(t):
            calls.append(t)
            return cost_of[0](t) - cost_of[1](40.0 - t)

        knots, linear = solver._slope_knots(*solver._edge_knots(inst, 0.0), moves, 40.0)
        v0 = -head_start
        reference = _walked_root(fn, 40.0, knots, solver._STEP_CALLS, v0)
        assert len(calls) == walked
        del calls[:]
        got = solver._step_root(fn, 40.0, knots, linear, v0, head_start, 2)
        assert _bits(got) == _bits(reference)
        assert len(calls) == searched and len(set(calls)) == searched
        assert searches.pop() == found


def _result_fields(res):
    return (res.flow.tobytes(), res.path_flow, res.common_cost, res.vi_residual,
            res.iterations, res.converged)


def _searched_and_walked(monkeypatch, solves):
    """Each solve's result fields with the bracket search and with the walk
    alone, and the counts of searched steps and of those the walk took
    over because the certificate failed."""
    counts = {"searched": 0, "fallbacks": 0}
    search_bracket = solver._search_bracket

    def counted(*args):
        found = search_bracket(*args)
        counts["searched"] += 1
        counts["fallbacks"] += found is None
        return found

    monkeypatch.setattr(solver, "_search_bracket", counted)
    searched = [_result_fields(solve()) for solve in solves]
    monkeypatch.setattr(solver, "_SEARCH_FROM", math.inf)
    walked = [_result_fields(solve()) for solve in solves]
    return searched, walked, counts


@pytest.mark.parametrize("variant", list(Variant))
def test_bracket_search_keeps_every_family_solve_bit_for_bit(monkeypatch, variant):
    # both loops on the recursive family: the risk-neutral and mean-var
    # additive solves and the mean-stdev path solve.  Long steps search, and
    # the certificate fails only on a few, next to a zero at a knot
    solves = []
    for level in range(1, 7):
        inst, _ = build_recursive(RecursiveFamilySpec(level=level, gamma_kappa=1.0,
                                                      variant=variant))
        ms = rr.with_risk_model(inst, rr.RiskModel.MEAN_STDEV)
        solves += [lambda inst=inst: rr.solve_rnwe(inst),
                   lambda inst=inst: rr.solve_rawe_meanvar(inst),
                   lambda ms=ms: rr.solve_rawe_meanstdev(ms)]
    searched, walked, counts = _searched_and_walked(monkeypatch, solves)
    assert searched == walked
    assert counts["searched"] > 1000
    assert counts["fallbacks"] <= 0.01 * counts["searched"]


def test_bracket_search_keeps_every_sweep_solve_bit_for_bit(monkeypatch):
    solves = []
    for make in _SWEEP_MAKERS.values():
        for seed in range(20):
            inst = make(seed)
            solves += [lambda inst=inst: rr.solve_rnwe(inst),
                       lambda inst=inst: rr.solve_rawe(inst)]
    searched, walked, _ = _searched_and_walked(monkeypatch, solves)
    assert searched == walked


@pytest.mark.parametrize("variant", list(Variant))
def test_solve_rawe_dispatches_on_risk_model(variant):
    inst, _ = build_recursive(RecursiveFamilySpec(level=2, variant=variant))
    ms = rr.with_risk_model(inst, rr.RiskModel.MEAN_STDEV)
    for instance, direct in ((inst, rr.solve_rawe_meanvar(inst)),
                             (ms, rr.solve_rawe_meanstdev(ms))):
        got = rr.solve_rawe(instance)
        assert np.array_equal(got.flow, direct.flow)
        assert (got.path_flow, got.common_cost, got.vi_residual, got.iterations,
                got.converged) == (direct.path_flow, direct.common_cost,
                                   direct.vi_residual, direct.iterations,
                                   direct.converged)



def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _cost_reference(lat, var, gamma):
    """The edge cost as the solver defined it before the edge table."""
    if gamma == 0.0:
        return lat
    return lambda x: lat(x) + gamma * var(x)


def _pwl_reference(fn, x):
    """`PiecewiseLinear.__call__` before its pieces were precomputed."""
    x = max(x, 0.0)
    pts = fn.points
    i = bisect_right([p[0] for p in pts], x)
    if i == 0:
        return pts[0][1]
    if i == len(pts):
        xk, yk = pts[-1]
        (x0, y0), (x1, y1) = pts[-2:] if len(pts) > 1 else ((0.0, 0.0), (1.0, 0.0))
        return yk + (y1 - y0) / (x1 - x0) * (x - xk)
    (xa, ya), (xb, yb) = pts[i - 1], pts[i]
    return ya + (yb - ya) * (x - xa) / (xb - xa)


# flows at which the table must match the definition besides random ones:
# a signed zero and tiny negative underflows, which every function clamps
_EDGE_FLOWS = [0.0, -0.0, -5e-324, -1e-300, -1e-12]


@settings(max_examples=400, deadline=None)
@given(_functions(), _functions(), st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
       st.sampled_from(list(rr.RiskModel)), st.lists(st.floats(0.0, 20.0), max_size=6),
       st.floats(0.0, 20.0), st.floats(0.0, 20.0))
def test_edge_table_is_the_cost_definition_bit_for_bit(lat, var, gamma, model, xs, lo, width):
    inst = rr.NetworkInstance(2, (rr.Edge(0, 1, lat, var),), 0, 1, 1.0, gamma, model)
    table = solver._edge_table(inst, gamma)
    cost, constant, knots, curved = (column[0] for column in table)
    reference = _cost_reference(lat, var, gamma)
    breaks = [x for fn in (lat, var) if isinstance(fn, rr.PiecewiseLinear)
              for x, _ in fn.points]
    values = {_bits(cost(x)) for x in [*xs, *breaks, *_EDGE_FLOWS]}
    for x in [*xs, *breaks, *_EDGE_FLOWS]:
        assert _bits(cost(x)) == _bits(reference(x)), x
    # flagged constant by kind: a Constant latency, and a Constant variance
    # unless gamma is 0; such a cost does not move.  A flat function of
    # another kind (slope 0) is evaluated as any other, with the same bits
    assert constant == (isinstance(lat, rr.Constant)
                        and (gamma == 0.0 or isinstance(var, rr.Constant)))
    if constant:
        assert len(values) == 1
    # the table's knots inside (lo, hi) are those the functions report
    hi = lo + width
    fns = (lat,) if gamma == 0.0 else (lat, var)
    found = [fn.knots_between(lo, hi) for fn in fns]
    assert [x for x in knots if lo < x < hi] == sorted(
        {x for ks in found if ks is not None for x in ks})
    stdev = gamma != 0.0 and model is rr.RiskModel.MEAN_STDEV
    assert curved == any(fn.knots_between(0.0, math.inf) is None for fn in fns) or (
        stdev and not isinstance(var, rr.Constant))


@settings(max_examples=300, deadline=None)
@given(_piecewise_linear(), st.lists(st.floats(-1.0, 20.0), max_size=8))
def test_piecewise_linear_call_matches_its_reference(fn, xs):
    points = [x for x, _ in fn.points]
    for x in [*xs, *points, *_EDGE_FLOWS, math.nan, math.inf]:
        assert _bits(fn(x)) == _bits(_pwl_reference(fn, x)), x


def _slope_knots_reference(inst, moves, t_max, gamma_eff):
    """`solver._slope_knots` before the per-edge knot tuples: every step
    asked each moved function for its knots."""
    knots = set()
    linear = True
    for eid, f, d in moves:
        e = inst.edges[eid]
        lo, hi = (f, f + t_max) if d > 0 else (f - t_max, f)
        for fn in (e.latency,) if gamma_eff == 0.0 else (e.latency, e.variability):
            ks = fn.knots_between(max(lo, 0.0), hi)
            if ks is None:
                linear = False
            else:
                for x in ks:
                    knots.add((x - f) / d)
    if linear and gamma_eff != 0.0 and inst.risk_model is rr.RiskModel.MEAN_STDEV:
        linear = all(isinstance(inst.edges[eid].variability, rr.Constant)
                     for eid, _, _ in moves)
    return knots, linear


@settings(max_examples=300, deadline=None)
@given(_instances_with_flows(), st.floats(0.01, 5.0), st.data())
def test_slope_knots_from_the_table_match_the_functions(case, t_max, data):
    inst, flow = case
    moves = [(eid, float(flow[eid]), data.draw(st.sampled_from([1.0, -1.0])))
             for eid in range(len(inst.edges)) if data.draw(st.booleans())]
    for gamma_eff in {0.0, inst.gamma}:
        got = solver._slope_knots(*solver._edge_knots(inst, gamma_eff), moves, t_max)
        assert got == _slope_knots_reference(inst, moves, t_max, gamma_eff)
