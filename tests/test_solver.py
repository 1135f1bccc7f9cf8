"""Equilibrium solvers: frozen reference values and cross-method checks."""

import builtins
import math

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
    order = inst.topological_order
    assert order is not None
    assert solver._dag_shortest_path(inst, costs, order) == solver._dijkstra(inst, costs)


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
    assert inst.topological_order is None
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
    (3, Variant.FUNCTIONAL, 64),
    (4, Variant.STRUCTURAL, 64),
    (5, Variant.STRUCTURAL, 64),
])
def test_meanstdev_iteration_counts_are_pinned(level, variant, iterations):
    # the path solver's trajectory on the family read under mean-stdev: the
    # first Newton finish, after 64 pair steps, ends each of these solves
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
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_meanstdev_family_social_cost_matches_the_oracle(level, variant):
    ms, oracle = _family_meanstdev(level, variant)
    res = rr.solve_rawe_meanstdev(ms)
    expected = network.social_cost(ms, network.induced_edge_flow(ms, oracle.rawe))
    assert res.converged
    assert network.social_cost(ms, res.flow) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("generate", [synthetic.random_series_parallel_instance,
                                      synthetic.random_braess_instance,
                                      synthetic.random_domino_instance])
def test_meanstdev_sweep_generators_converge_and_match_brute_force(generate):
    finished = 0
    for seed in range(50):
        inst = generate(seed)
        res = rr.solve_rawe_meanstdev(inst)
        assert res.converged, f"seed {seed}"
        # the result keeps the solver's contract: every used path costs
        # within tolerance of the common cost
        costs = [rr.path_cost(inst, p, res.flow) for p, _ in res.path_flow]
        assert max(costs) - res.common_cost <= 1e-8 * max(1.0, res.common_cost)
        finished += res.iterations == 64
        if len(rr.enumerate_paths(inst)) <= 4:
            bf = rr.brute_force_equilibrium(inst)
            assert bf.converged, f"seed {seed}"
            assert np.max(np.abs(bf.flow - res.flow)) <= 1e-4, f"seed {seed}"
    if generate is synthetic.random_series_parallel_instance:
        # seeds 24 and 35 take 1,166 and 180 pair steps without the finish
        assert finished == 2


@pytest.mark.parametrize("seed", [24, 35, 62, 101])
def test_newton_finish_agrees_with_the_pair_steps(monkeypatch, seed):
    # series-parallel instances with five or more paths, beyond brute force,
    # where the finish ends the solve: the pair loop alone reaches the same
    # flow
    inst = synthetic.random_series_parallel_instance(seed)
    finished = rr.solve_rawe_meanstdev(inst)
    monkeypatch.setattr(solver, "_newton_finish", lambda *args: None)
    paired = rr.solve_rawe_meanstdev(inst)
    assert finished.converged and paired.converged
    assert finished.iterations == 64 < paired.iterations
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
    its knots and linearity as the solver sees them, t_max, and the size of
    the costs it subtracts."""
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
        cost_of = solver._edge_cost_fns(inst, gamma)

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
    knots, linear = solver._slope_knots(inst, moves, t_max, gamma)
    return fn, knots, linear, t_max, max(size(0.0), size(t_max))


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
    fn, knots, linear, t_max, size = step
    got = solver._step_root(fn, t_max, knots, linear, 100)
    ref = _bisection_root(fn, t_max)
    # the step function is known to a few rounding errors of the costs it
    # subtracts, which fixes its root to that over its slope; beyond that
    # the two agree to a few ulps
    assert abs(got - ref) <= 4 * math.ulp(t_max) + 16 * 2.0 ** -52 * size / _MIN_SLOPE


@settings(max_examples=300, deadline=None)
@given(_steps(), st.lists(st.floats(0.0, 2.0), max_size=150),
       st.sampled_from([1, 2, 3, 5, 8, 60, 100]), st.booleans())
def test_step_root_keeps_its_call_cap(step, extra_knots, cap, linear):
    fn, knots, _, t_max, _ = step
    calls = []

    def counted(t):
        calls.append(t)
        return fn(t)

    t = solver._step_root(counted, t_max, set(knots) | set(extra_knots), linear, cap)
    assert len(calls) <= cap
    # an interpolation next to t_max may round a few ulps past it
    assert 0.0 <= t <= t_max + 4 * math.ulp(t_max)


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

