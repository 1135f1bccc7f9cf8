"""Partitions, alternating paths, smoothness and the cost-ratio bounds."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import riskroute as rr
from riskroute import analysis, synthetic
from riskroute.analysis import smoothness_mu_at_flow
from riskroute.instances import RecursiveFamilySpec, Variant, build_recursive
from riskroute.solver import SolverConfig

CFG = SolverConfig(tolerance=1e-10)


def _oracle_flows(level, variant=Variant.STRUCTURAL, gk=1.0):
    inst, oracle = build_recursive(
        RecursiveFamilySpec(level=level, gamma_kappa=gk, variant=variant))
    x = rr.induced_edge_flow(inst, oracle.rawe)
    z = rr.induced_edge_flow(inst, oracle.rnwe)
    return inst, oracle, x, z


def test_partition_on_level1():
    inst, _, x, z = _oracle_flows(1)
    part = rr.partition_edges(inst, x, z)
    assert part.set_a == frozenset({1, 2})  # the two risky edges
    assert part.set_b == frozenset({0, 3, 4})


def test_partition_ignores_unused_edges():
    inst, _, x, z = _oracle_flows(1)
    # knock one edge out of both flows
    x2, z2 = x.copy(), z.copy()
    x2[1] = z2[1] = 0.0
    part = rr.partition_edges(inst, x2, z2)
    assert 1 not in part.set_a and 1 not in part.set_b


def test_alternating_path_on_level1():
    inst, _, x, z = _oracle_flows(1)
    alt = rr.find_alternating_path(inst, rr.partition_edges(inst, x, z))
    assert alt.segments == (("forward", (2,)), ("backward", (4,)),
                            ("forward", (1,)))
    assert alt.forward_subpath_count == 2
    assert alt.vertices == (0, 3, 2, 1)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_alternating_path_counts_scale_with_level(level):
    inst, _, x, z = _oracle_flows(level)
    tags = rr.recursive_edge_tags(level)
    part = rr.partition_edges(inst, x, z)
    assert part.set_a == frozenset(
        eid for eid, t in enumerate(tags) if t == "risky")
    alt = rr.find_alternating_path(inst, part)
    assert alt.forward_subpath_count == 2 ** level
    assert len(alt.vertices) == 2 ** (level + 1)
    assert len(set(alt.vertices)) == len(alt.vertices)  # visits each vertex once


def test_alternating_path_needs_tie_edges_across_equal_cuts():
    # single mandatory first edge, then a risky/safe parallel pair: both
    # equilibria push everything through edge 0, so the strict search is
    # blocked at the source and the tie rescue must kick in
    inst = rr.NetworkInstance(
        3,
        (rr.Edge(0, 1, rr.Constant(0.5), rr.Constant(0.0)),
         rr.Edge(1, 2, rr.Affine(1.0, 0.1), rr.Constant(1.0)),
         rr.Edge(1, 2, rr.Affine(1.0, 0.1), rr.Constant(0.0))),
        0, 2, 1.0, 1.0, rr.RiskModel.MEAN_VAR)
    rawe = rr.solve_rawe_meanvar(inst, CFG)
    rnwe = rr.solve_rnwe(inst, CFG)
    part = rr.partition_edges(inst, rawe.flow, rnwe.flow)
    assert part.set_a == frozenset({1})
    with pytest.raises(rr.AlternatingPathNotFound):
        rr.find_alternating_path(inst, part)
    alt = rr.find_alternating_path(inst, part, tie_forward={0})
    assert alt.forward_subpath_count == 1
    assert alt.segments == (("forward", (0, 1)),)
    report = rr.check_bound(inst, rawe, rnwe, rr.BoundKind.TOPOLOGICAL_ETA)
    assert report.satisfied
    assert report.eta == 1


def test_compute_kappa_meanvar_and_meanstdev():
    inst, _, x, _ = _oracle_flows(1, gk=2.0)
    # variances are scaled so kappa is one regardless of gamma*kappa
    assert rr.compute_kappa(inst, x) == pytest.approx(1.0, abs=1e-12)
    ms = rr.NetworkInstance(
        2, (rr.Edge(0, 1, rr.Constant(2.0), rr.Constant(4.0)),),
        0, 1, 1.0, 1.0, rr.RiskModel.MEAN_STDEV)
    # stdev/mean = 2/2
    assert rr.compute_kappa(ms, np.array([1.0])) == pytest.approx(1.0)
    # variance/mean = 4/2 under the mean-var reading
    mv = rr.with_risk_model(ms, rr.RiskModel.MEAN_VAR)
    assert rr.compute_kappa(mv, np.array([1.0])) == pytest.approx(2.0)


def test_compute_kappa_zero_mean_positive_variance_is_infinite():
    inst = rr.NetworkInstance(
        2, (rr.Edge(0, 1, rr.Constant(0.0), rr.Constant(1.0)),),
        0, 1, 1.0, 1.0, rr.RiskModel.MEAN_VAR)
    assert rr.compute_kappa(inst, np.array([1.0])) == math.inf


def test_smoothness_closed_forms():
    assert rr.estimate_smoothness_mu(rr.Constant(3.0), 2.0) == 0.0
    # affine through the origin peaks at y = x/2 with value 1/4
    assert rr.estimate_smoothness_mu(rr.Affine(1.0, 0.0), 5.0) == pytest.approx(0.25)
    # positive intercept shrinks it to ax / (4(ax+b))
    assert rr.estimate_smoothness_mu(rr.Affine(1.0, 1.0), 2.0) == pytest.approx(
        2.0 / 12.0, abs=1e-12)


def test_smoothness_polynomial_matches_analytic_value():
    # for l(y) = y^2 the supremum sits at y = x/sqrt(3): mu = 2/(3*sqrt(3))
    got = rr.estimate_smoothness_mu(rr.Polynomial((0.0, 0.0, 1.0)), 1.7)
    assert got == pytest.approx(2.0 / (3.0 * math.sqrt(3.0)), abs=1e-8)


def _golden_section_mu(fn, x):
    """Reference smoothness of a polynomial: golden-section search for the
    maximum of y * (fn(x) - fn(y)) / (x * fn(x)), concave on [0, x], to a
    bracket 1e-10 * x wide.  The ratio is evaluated exactly, in fractions,
    since in floats fn(x) - fn(y) cancels at small flows; the bracket is
    relative, since an absolute one leaves mu off by (1e-10 / x)^2
    relative."""
    coeffs = [Fraction(c) for c in fn.coeffs]

    def value(y):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * Fraction(y) + c
        return acc

    fx = value(x)

    def ratio(y):
        return Fraction(y) * (fx - value(y)) / (Fraction(x) * fx)

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, x
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = ratio(c), ratio(d)
    while hi - lo > 1e-10 * x:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = ratio(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = ratio(d)
    return float(max(0, ratio(0.5 * (lo + hi))))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=1, max_size=6)
       .filter(any),
       st.floats(1e-6, 1e3))
@example([1.0, 1.0], 1e-6)
@example([5.0, 0.0, 2.0], 1e-5)
@example([1e3, 1e-3], 1e-6)
def test_smoothness_of_polynomials_matches_golden_section(coeffs, x):
    # Newton's method on g' against the golden-section reference, on
    # polynomials of 1-6 coefficients, inner zeros included.  The examples
    # have a constant term that fn(x) - fn(y) would cancel: mu computed
    # that way is off by 3e-10 to 1e-5 relative
    fn = rr.Polynomial(tuple(coeffs))
    assert rr.estimate_smoothness_mu(fn, x) == pytest.approx(_golden_section_mu(fn, x),
                                                             rel=1e-12, abs=0.0)


def _exact_linear_mu(fn, x):
    """Reference smoothness of a piecewise-linear function, in fractions.

    The function is rebuilt from its parameters as breakpoints, constant
    left of the first and extended along the last segment past the last.
    On each segment y * (fn(x) - fn(y)) is a quadratic in y, so its
    supremum over [0, x] sits at 0, x, a breakpoint, or a segment line's
    stationary point; the ratio is the largest at any of those in [0, x].
    """
    if isinstance(fn, rr.PiecewiseLinear):
        pts = [(Fraction(a), Fraction(b)) for a, b in fn.points]
    elif isinstance(fn, rr.Constant):
        pts = [(Fraction(0), Fraction(fn.value))]
    else:
        intercept, slope = ((fn.intercept, fn.slope) if isinstance(fn, rr.Affine)
                            else (*fn.coeffs, 0.0)[:2])
        pts = [(Fraction(0), Fraction(intercept)),
               (Fraction(1), Fraction(intercept) + Fraction(slope))]
    segments = list(zip(pts, pts[1:]))

    def value(y):
        if y <= pts[0][0] or not segments:
            return pts[0][1]
        (xa, ya), (xb, yb) = next((s for s in segments if y <= s[1][0]), segments[-1])
        return ya + (yb - ya) * (y - xa) / (xb - xa)

    x = Fraction(x)
    fx = value(x)
    candidates = {Fraction(0), x} | {a for a, _ in pts if a < x}
    for (xa, ya), (xb, yb) in segments:
        m = (yb - ya) / (xb - xa)
        if m > 0:
            # fx - (ya + m * (y - xa)) times y peaks where its derivative is 0
            stationary = (fx - ya + m * xa) / (2 * m)
            if 0 < stationary < x:
                candidates.add(stationary)
    return float(max(y * (fx - value(y)) for y in candidates) / (x * fx))


def _linear_latencies():
    """Constant, Affine, Polynomial of degree <= 1 and PiecewiseLinear of
    1-5 breakpoints, the first at 0 or above, flat pieces included."""
    coeff = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    steps = st.lists(st.tuples(st.floats(1e-3, 1e2), st.one_of(st.just(0.0), coeff)),
                     max_size=4)

    def piecewise(x0, y0, rest):
        pts = [(x0, y0)]
        for dx, dy in rest:
            pts.append((pts[-1][0] + dx, pts[-1][1] + dy))
        return rr.PiecewiseLinear(tuple(pts))

    return st.one_of(
        st.builds(rr.Constant, coeff),
        st.builds(rr.Affine, coeff, coeff),
        st.builds(lambda c: rr.Polynomial(tuple(c)), st.lists(coeff, min_size=1, max_size=2)),
        st.builds(piecewise, st.one_of(st.just(0.0), st.floats(1e-6, 1e2)), coeff, steps))


@settings(max_examples=500, deadline=None)
@given(_linear_latencies(), st.floats(1e-6, 1e3), st.data())
@example(rr.Affine(1.0, 1.0), 1e-6, None)
@example(rr.Affine(2.0, 0.0), 3.0, None)
@example(rr.PiecewiseLinear(((0.0, 0.0), (0.9, 0.0), (1.0, 10.0))), 0.95, None)
def test_smoothness_of_linear_pieces_is_exact(fn, x, data):
    # the piece walk against the fraction-exact reference, x on a breakpoint
    # or between; mu taken from fn(x) - fn(y) by subtraction is off by up to
    # 5e-5 relative on affine functions at small flows
    if data is not None and isinstance(fn, rr.PiecewiseLinear):
        x = data.draw(st.one_of(st.just(x), st.sampled_from([p[0] for p in fn.points])))
    assume(x > 0.0 and fn(x) > 0.0)
    assert rr.estimate_smoothness_mu(fn, x) == pytest.approx(_exact_linear_mu(fn, x),
                                                             rel=1e-12, abs=0.0)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_smoothness_of_functional_family_is_exact(level):
    inst, _, x, _ = _oracle_flows(level, variant=Variant.FUNCTIONAL)
    assert smoothness_mu_at_flow(inst, x) == pytest.approx(
        1.0 - 2.0 ** -level, abs=1e-12)


def test_smoothness_rejects_degenerate_arguments():
    with pytest.raises(ValueError):
        rr.estimate_smoothness_mu(rr.Affine(1.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        rr.estimate_smoothness_mu(rr.Constant(0.0), 1.0)


def test_compute_pra_rejects_zero_reference_cost():
    inst = rr.NetworkInstance(
        2, (rr.Edge(0, 1, rr.Constant(0.0), rr.Constant(0.0)),),
        0, 1, 1.0, 0.0, rr.RiskModel.MEAN_VAR)
    res = rr.solve_rnwe(inst, CFG)
    with pytest.raises(ValueError):
        rr.compute_pra(inst, res, res)


@pytest.mark.parametrize("level,gk", [(1, 1.0), (2, 0.5), (3, 2.0)])
def test_eta_bound_is_tight_on_structural_family(level, gk):
    inst, oracle = build_recursive(
        RecursiveFamilySpec(level=level, gamma_kappa=gk))
    rawe = rr.result_from_paths(inst, oracle.rawe)
    rnwe = rr.result_from_paths(rr.with_gamma(inst, 0.0), oracle.rnwe)
    report = rr.check_bound(inst, rawe, rnwe, rr.BoundKind.TOPOLOGICAL_ETA)
    assert report.satisfied
    assert report.eta == 2 ** level
    assert report.bound_value == pytest.approx(1.0 + 2 ** level * gk, rel=1e-12)
    assert report.slack == pytest.approx(0.0, abs=1e-9)


def test_eta_search_retries_a_noisy_partition_at_the_coarse_tolerance():
    # two parallel pairs in series, 0 -> 1 twice and 1 -> 2 twice.  Noise of
    # 1e-6 on the risk-averse flow's first stage puts both of its edges in
    # B with no tie at 1e-7, which blocks every alternating path; at 1e-4
    # they tie, and the path is the one forward subpath across the second
    # stage
    edge = rr.Affine(1.0, 1.0), rr.Constant(1.0)
    inst = rr.NetworkInstance(3, tuple(rr.Edge(a, b, *edge) for a, b in
                                       ((0, 1), (0, 1), (1, 2), (1, 2))),
                              0, 2, 1.0, 1.0, rr.RiskModel.MEAN_VAR)

    def result(flow):
        return rr.EquilibriumResult(np.array(flow), rr.PathFlow.of([]), 0.0, 0.0, 0, True)

    rawe = result([0.6 + 1e-6, 0.4 + 1e-6, 0.3, 0.7])
    rnwe = result([0.6, 0.4, 0.5, 0.5])
    with pytest.raises(rr.AlternatingPathNotFound):
        rr.find_alternating_path(inst, rr.partition_edges(inst, rawe.flow, rnwe.flow))
    report = rr.analyze(inst, rawe, rnwe, (rr.BoundKind.TOPOLOGICAL_ETA,))[
        rr.BoundKind.TOPOLOGICAL_ETA]
    assert report.eta == 1
    assert report.note == "partition retried at coarse tie tolerance"


def test_vertex_bound_matches_eta_bound_on_family():
    # 2^(level+1) vertices: ceil((n-1)/2) = 2^level, same bound value
    inst, oracle = build_recursive(RecursiveFamilySpec(level=2))
    rawe = rr.result_from_paths(inst, oracle.rawe)
    rnwe = rr.result_from_paths(rr.with_gamma(inst, 0.0), oracle.rnwe)
    report = rr.check_bound(inst, rawe, rnwe,
                            rr.BoundKind.TOPOLOGICAL_VERTICES)
    assert report.satisfied
    assert report.bound_value == pytest.approx(5.0)
    assert report.slack == pytest.approx(0.0, abs=1e-9)


def test_analyze_rejects_zero_demand():
    # both equilibria route nothing, so the cost ratio is 0 / 0
    inst = dataclasses.replace(synthetic.random_affine_instance(0), demand=0.0)
    rawe, rnwe = _solved(inst)
    assert rawe.converged and rnwe.converged
    assert not rawe.flow.any() and not rnwe.flow.any()
    with pytest.raises(ValueError, match="ratio is undefined"):
        analysis.analyze(inst, rawe, rnwe)


def test_functional_smooth_bound_value():
    inst, oracle = build_recursive(
        RecursiveFamilySpec(level=2, variant=Variant.FUNCTIONAL))
    rawe = rr.result_from_paths(inst, oracle.rawe)
    rnwe = rr.result_from_paths(rr.with_gamma(inst, 0.0), oracle.rnwe)
    report = rr.check_bound(inst, rawe, rnwe, rr.BoundKind.FUNCTIONAL_SMOOTH)
    assert report.satisfied
    assert report.mu == pytest.approx(0.75, abs=1e-12)
    assert report.bound_value == pytest.approx(8.0, rel=1e-9)


def test_near_unit_smoothness_inflates_the_bound():
    # flat-then-cliff latency: the best deviation waits at the end of the
    # flat stretch, mu = 0.9 exactly, and the smoothness bound balloons
    cliff = rr.PiecewiseLinear(((0.0, 0.0), (0.9, 0.0), (1.0, 10.0)))
    inst = rr.NetworkInstance(
        2,
        (rr.Edge(0, 1, cliff, rr.Constant(1.0)),
         rr.Edge(0, 1, rr.Constant(11.0), rr.Constant(0.0))),
        0, 1, 1.0, 0.1, rr.RiskModel.MEAN_VAR)
    rawe = rr.solve_rawe_meanvar(inst, CFG)
    rnwe = rr.solve_rnwe(inst, CFG)
    report = rr.check_bound(inst, rawe, rnwe, rr.BoundKind.FUNCTIONAL_SMOOTH)
    assert report.mu == pytest.approx(0.9, abs=1e-12)
    assert report.kappa == pytest.approx(0.1, abs=1e-12)  # variance 1, mean 10
    assert report.bound_value == pytest.approx(10.1, rel=1e-9)
    assert report.satisfied


def test_stdev_bounds_tight_on_reinterpreted_level1():
    inst, _ = build_recursive(RecursiveFamilySpec(level=1))
    ms = rr.with_risk_model(inst, rr.RiskModel.MEAN_STDEV)
    rawe = rr.solve_rawe_meanstdev(ms, CFG)
    rnwe = rr.solve_rnwe(ms, CFG)
    one_alt = rr.check_bound(ms, rawe, rnwe, rr.BoundKind.STDEV_ONE_ALT)
    assert one_alt.satisfied
    assert one_alt.bound_value == pytest.approx(3.0)
    assert one_alt.slack == pytest.approx(0.0, abs=1e-8)
    # the zero-alternation bound does not apply here and says so
    zero_alt = rr.check_bound(ms, rawe, rnwe, rr.BoundKind.STDEV_ZERO_ALT)
    assert not zero_alt.satisfied
    assert "inapplicable" in zero_alt.note


def test_coinciding_flows_give_eta_zero():
    inst = rr.NetworkInstance(
        2, (rr.Edge(0, 1, rr.Affine(1.0, 0.1), rr.Constant(1.0)),),
        0, 1, 1.0, 1.0, rr.RiskModel.MEAN_VAR)
    rawe = rr.solve_rawe_meanvar(inst, CFG)
    rnwe = rr.solve_rnwe(inst, CFG)
    report = rr.check_bound(inst, rawe, rnwe, rr.BoundKind.TOPOLOGICAL_ETA)
    assert report.eta == 0
    assert report.satisfied
    assert "coincide" in report.note


def test_vertex_bound_gap_values():
    assert rr.vertex_bound_gap_ratio(6, 1.0) == pytest.approx(0.8)
    assert rr.vertex_bound_gap_ratio(9, 1.0) == pytest.approx(5.0 / 9.0)
    with pytest.raises(ValueError):
        rr.vertex_bound_gap_ratio(2, 1.0)


def test_vertex_bound_gap_stays_below_two():
    assert rr.vertex_bound_gap_below_two(10_000, (0.1, 1.0, 10.0))


def _family_instance(level, variant, model):
    inst, _ = build_recursive(RecursiveFamilySpec(level=level, variant=variant))
    return rr.with_risk_model(inst, model)


_SWEEP_MAKERS = {
    "affine": synthetic.random_affine_instance,
    "poly3": lambda seed: synthetic.random_polynomial_instance(seed, 3),
    "series-parallel": synthetic.random_series_parallel_instance,
    "braess": synthetic.random_braess_instance,
    "domino": synthetic.random_domino_instance,
}


def _solved(inst):
    return rr.solve_rawe(inst), rr.solve_rnwe(inst)


def _assert_analyze_matches_check_bound(inst):
    rawe, rnwe = _solved(inst)
    reports = rr.analyze(inst, rawe, rnwe)
    assert list(reports) == list(rr.BoundKind)
    for kind in rr.BoundKind:
        assert reports[kind] == rr.check_bound(inst, rawe, rnwe, kind)


@pytest.mark.parametrize("model", list(rr.RiskModel))
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_analyze_matches_check_bound_on_family(level, variant, model):
    _assert_analyze_matches_check_bound(_family_instance(level, variant, model))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("what", sorted(_SWEEP_MAKERS))
def test_analyze_matches_check_bound_on_sweep_families(what, seed):
    _assert_analyze_matches_check_bound(_SWEEP_MAKERS[what](seed))


def test_analyze_computes_shared_quantities_once(monkeypatch):
    inst = _family_instance(3, Variant.STRUCTURAL, rr.RiskModel.MEAN_VAR)
    rawe, rnwe = _solved(inst)
    calls = {"compute_pra": 0, "find_alternating_path": 0, "estimate_smoothness_mu": 0}

    def counting(name):
        original = getattr(analysis, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(analysis, name, counting(name))

    analysis.analyze(inst, rawe, rnwe)
    # one eta search, and mu over the used edges once: as many estimates as
    # the smooth bound alone makes
    assert calls["compute_pra"] == 1
    assert calls["find_alternating_path"] == 1
    mu_all = calls["estimate_smoothness_mu"]
    calls.update(dict.fromkeys(calls, 0))
    analysis.check_bound(inst, rawe, rnwe, rr.BoundKind.FUNCTIONAL_SMOOTH)
    assert calls["estimate_smoothness_mu"] == mu_all > 0
    assert calls["find_alternating_path"] == 0

    calls.update(dict.fromkeys(calls, 0))
    analysis.analyze(inst, rawe, rnwe, (rr.BoundKind.TOPOLOGICAL_VERTICES,))
    assert calls == {"compute_pra": 1, "find_alternating_path": 0,
                     "estimate_smoothness_mu": 0}


def _fields(res):
    return (res.flow.tobytes(), res.path_flow, res.common_cost, res.vi_residual,
            res.iterations, res.converged)


@pytest.mark.parametrize("what", ["series-parallel", "braess", "domino", "affine"])
def test_gamma_zero_equilibria_coincide_and_meet_every_bound(what):
    # At gamma 0 the risk-averse equilibrium is the risk-neutral one, so the
    # PRA is exactly 1 and meets each bound 1 + eta * gamma * kappa = 1 with
    # equality: the two solves must be the same bits, or solver noise flips
    # the verdict.  The first three families are mean-stdev, affine is mean-var.
    for seed in range(200):
        inst = rr.with_gamma(_SWEEP_MAKERS[what](seed), 0.0)
        rawe, rnwe = _solved(inst)
        assert _fields(rawe) == _fields(rnwe), seed
        assert analysis.compute_pra(inst, rawe, rnwe) == 1.0, seed
        for rep in rr.analyze(inst, rawe, rnwe).values():
            assert rep.satisfied or "inapplicable" in rep.note, (seed, rep)


@pytest.mark.parametrize("what", ["series-parallel", "braess", "domino"])
def test_zero_variance_equilibria_coincide_and_meet_every_bound(what):
    # A mean-stdev instance whose variances are all Constant(0.0) has kappa
    # 0 and edge-additive costs at any gamma: both equilibria come from the
    # additive loop, the same bits, so the PRA is exactly 1 and meets every
    # bound.  With the risk-averse side on the path loop, 50 of these 600
    # instances had an applicable bound violated by solver noise.
    for seed in range(200):
        inst = _SWEEP_MAKERS[what](seed)
        inst = rr.with_edge_functions(inst, {eid: (e.latency, rr.Constant(0.0))
                                             for eid, e in enumerate(inst.edges)})
        assert inst.gamma > 0.0 and inst.risk_model is rr.RiskModel.MEAN_STDEV
        rawe, rnwe = _solved(inst)
        assert _fields(rawe) == _fields(rnwe), seed
        assert analysis.compute_pra(inst, rawe, rnwe) == 1.0, seed
        for rep in rr.analyze(inst, rawe, rnwe).values():
            assert rep.satisfied or "inapplicable" in rep.note, (seed, rep)
