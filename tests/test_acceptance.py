"""End-to-end certification suite.

Each test here checks one headline guarantee of the package and prints a
single PASS/FAIL line so the whole certification can be read off a plain
pytest run.  Expected values are closed forms from the instance builders
or bounds computed by the analysis module; tolerances are stated inline.
"""

import math
import time

import numpy as np
import pytest

from riskroute.analysis import (
    BoundKind,
    check_bound,
    compute_kappa,
    compute_pra,
    estimate_smoothness_mu,
    find_alternating_path,
    partition_edges,
    smoothness_mu_at_flow,
    vertex_bound_gap_ratio,
)
from riskroute.instances import (
    RecursiveFamilySpec,
    Variant,
    build_recursive,
    closed_form_check,
    recursive_edge_tags,
)
from riskroute.network import RiskModel, social_cost, with_gamma, with_risk_model
from riskroute.solver import (
    SolverConfig,
    result_from_paths,
    solve_rawe_meanstdev,
    solve_rawe_meanvar,
    solve_rnwe,
)
from riskroute.synthetic import (
    random_affine_instance,
    random_braess_instance,
    random_domino_instance,
    random_polynomial_instance,
    random_series_parallel_instance,
)

from reference import brute_force_equilibrium, random_small_instance

CFG = SolverConfig(tolerance=1e-8)

_SMOOTH_CAP = {
    1: 0.25,
    2: 2.0 * (3.0 ** -1.5),
    3: 3.0 * (4.0 ** (-4.0 / 3.0)),
    4: 4.0 * (5.0 ** -1.25),
}


def _certify(label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _solve_rawe(instance, config=CFG):
    if instance.risk_model is RiskModel.MEAN_STDEV:
        return solve_rawe_meanstdev(instance, config)
    return solve_rawe_meanvar(instance, config)


def _solve_pair(instance, config=CFG):
    rawe = _solve_rawe(instance, config)
    rnwe = solve_rnwe(instance, config)
    assert rawe.converged and rnwe.converged
    return rawe, rnwe


def test_structural_family_attains_its_bound():
    """Solved PRA on the recursive family matches 1 + 2^i * gamma*kappa."""
    t0 = time.perf_counter()
    worst = 0.0
    for level in (1, 2, 3, 4):
        for gamma_kappa in (0.5, 1.0, 2.0):
            spec = RecursiveFamilySpec(level=level, gamma_kappa=gamma_kappa)
            instance, oracle = build_recursive(spec)
            assert closed_form_check(instance, oracle).passed
            rawe, rnwe = _solve_pair(instance)
            pra = compute_pra(instance, rawe, rnwe)
            target = 1.0 + 2.0**level * gamma_kappa
            worst = max(worst, abs(pra - target) / target)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 5.0
    _certify(
        "structural tightness",
        ok,
        f"levels 1-4 x 3 risk weights, worst rel err {worst:.2e} "
        f"(tol 1e-5), {elapsed:.2f}s (budget 5s)",
    )


def test_alternating_path_on_structural_instances():
    """At the oracle flows the A-side is exactly the risky edges and the
    alternating path makes 2^i forward runs over 2^(i+1) vertices."""
    failures = []
    for level in (1, 2, 3, 4):
        instance, oracle = build_recursive(RecursiveFamilySpec(level=level))
        rawe = result_from_paths(instance, oracle.rawe)
        rnwe = result_from_paths(with_gamma(instance, 0.0), oracle.rnwe)
        partition = partition_edges(instance, rawe.flow, rnwe.flow)
        risky = frozenset(
            eid
            for eid, tag in enumerate(recursive_edge_tags(level))
            if tag == "risky"
        )
        if partition.set_a != risky:
            failures.append(f"level {level}: A side is not the risky edges")
            continue
        path = find_alternating_path(instance, partition)
        if path.forward_subpath_count != 2**level:
            failures.append(
                f"level {level}: eta {path.forward_subpath_count} != {2 ** level}"
            )
        if len(set(path.vertices)) != 2 ** (level + 1):
            failures.append(
                f"level {level}: visited {len(set(path.vertices))} vertices, "
                f"expected {2 ** (level + 1)}"
            )
    _certify(
        "alternating path structure",
        not failures,
        "; ".join(failures) if failures else
        "levels 1-4: A = risky edges, eta = 2^i, 2^(i+1) vertices",
    )


def test_functional_family_smoothness_and_tightness():
    """Functional variant: mu equals 1 - 2^-i at every bypass edge's RAWE
    flow (and at the network level) and the solved PRA matches the closed
    form."""
    t0 = time.perf_counter()
    worst_mu = 0.0
    worst_pra = 0.0
    for level in (1, 2, 3, 4):
        spec = RecursiveFamilySpec(level=level, variant=Variant.FUNCTIONAL)
        instance, oracle = build_recursive(spec)
        rawe_oracle = result_from_paths(instance, oracle.rawe)
        target_mu = 1.0 - 2.0**-level
        for eid, tag in enumerate(recursive_edge_tags(level)):
            if not tag.startswith("a:"):
                continue
            edge_mu = estimate_smoothness_mu(
                instance.edges[eid].latency, float(rawe_oracle.flow[eid])
            )
            worst_mu = max(worst_mu, abs(edge_mu - target_mu))
        mu = smoothness_mu_at_flow(instance, rawe_oracle.flow)
        worst_mu = max(worst_mu, abs(mu - target_mu))
        rawe, rnwe = _solve_pair(instance)
        pra = compute_pra(instance, rawe, rnwe)
        target = oracle.expected_pra
        worst_pra = max(worst_pra, abs(pra - target) / target)
    elapsed = time.perf_counter() - t0
    ok = worst_mu <= 1e-9 and worst_pra <= 1e-5
    _certify(
        "functional family",
        ok,
        f"worst |mu - (1 - 2^-i)| {worst_mu:.2e} (tol 1e-9), "
        f"worst PRA rel err {worst_pra:.2e} (tol 1e-5), {elapsed:.2f}s",
    )


def _random_pool():
    pool = []
    for seed in range(200):
        pool.append((f"affine-{seed}", 1, random_affine_instance(seed)))
    for degree in (2, 3, 4):
        for seed in range(60):
            pool.append(
                (
                    f"poly{degree}-{seed}",
                    degree,
                    random_polynomial_instance(seed, degree),
                )
            )
    return pool


@pytest.fixture(scope="module")
def solved_pool():
    solved = []
    for name, degree, instance in _random_pool():
        rawe, rnwe = _solve_pair(instance)
        solved.append((name, degree, instance, rawe, rnwe))
    return solved


def test_degree_capped_smoothness_bounds(solved_pool):
    """Random instances with degree-p latencies stay under the degree cap
    on mu and under the matching constant-factor PRA bound."""
    t0 = time.perf_counter()
    failures = []
    worst_mu = {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}
    for name, degree, instance, rawe, rnwe in solved_pool:
        mu = smoothness_mu_at_flow(instance, rawe.flow)
        worst_mu[degree] = max(worst_mu[degree], mu)
        if mu > _SMOOTH_CAP[degree] + 1e-9:
            failures.append(f"{name}: mu {mu:.4f} over cap {_SMOOTH_CAP[degree]:.4f}")
        pra = compute_pra(instance, rawe, rnwe)
        kappa = compute_kappa(instance, rawe.flow)
        limit = (1.0 + instance.gamma * kappa) / (1.0 - _SMOOTH_CAP[degree])
        if pra > limit + 1e-5:
            failures.append(f"{name}: PRA {pra:.4f} over degree bound {limit:.4f}")
    elapsed = time.perf_counter() - t0
    caps = ", ".join(
        f"deg {d}: {worst_mu[d]:.4f}/{_SMOOTH_CAP[d]:.4f}" for d in sorted(worst_mu)
    )
    ok = not failures and elapsed < 60.0
    _certify(
        "degree-capped smoothness",
        ok,
        "; ".join(failures) if failures else
        f"380 instances, worst mu vs cap: {caps}, {elapsed:.2f}s (budget 60s)",
    )


def test_eta_bound_holds_on_random_pool(solved_pool):
    """1 + eta * gamma * kappa upper-bounds the PRA on every random instance."""
    t0 = time.perf_counter()
    failures = []
    min_slack = math.inf
    for name, _, instance, rawe, rnwe in solved_pool:
        report = check_bound(instance, rawe, rnwe, BoundKind.TOPOLOGICAL_ETA)
        if not report.satisfied and report.pra_observed > report.bound_value + 1e-5:
            failures.append(
                f"{name}: PRA {report.pra_observed:.6f} > bound {report.bound_value:.6f}"
            )
        min_slack = min(min_slack, report.slack)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _certify(
        "eta bound on random pool",
        ok,
        "; ".join(failures) if failures else
        f"380 instances, min slack {min_slack:.2e}, {elapsed:.2f}s (budget 60s)",
    )


def test_mean_stdev_alternation_bounds():
    """Mean-stdev classes: series-parallel stays under 1 + gamma*kappa,
    Braess and domino graphs under 1 + 2*gamma*kappa, and the reinterpreted
    level-1 instance meets 1 + 2*gamma*kappa exactly."""
    t0 = time.perf_counter()
    failures = []
    for seed in range(50):
        instance = random_series_parallel_instance(seed)
        rawe, rnwe = _solve_pair(instance)
        report = check_bound(instance, rawe, rnwe, BoundKind.STDEV_ZERO_ALT)
        if not report.satisfied and "inapplicable" not in report.note:
            failures.append(f"series-parallel-{seed}: slack {report.slack:.2e}")
    for maker, label in (
        (random_braess_instance, "braess"),
        (random_domino_instance, "domino"),
    ):
        for seed in range(25):
            instance = maker(seed)
            rawe, rnwe = _solve_pair(instance)
            report = check_bound(instance, rawe, rnwe, BoundKind.STDEV_ONE_ALT)
            if not report.satisfied and "inapplicable" not in report.note:
                failures.append(f"{label}-{seed}: slack {report.slack:.2e}")

    spec = RecursiveFamilySpec(level=1, gamma_kappa=1.0)
    instance, oracle = build_recursive(spec)
    stdev_instance = with_risk_model(instance, RiskModel.MEAN_STDEV)
    rawe, rnwe = _solve_pair(stdev_instance)
    report = check_bound(stdev_instance, rawe, rnwe, BoundKind.STDEV_ONE_ALT)
    tight = abs(report.pra_observed - 3.0) <= 1e-5 and abs(report.slack) <= 1e-5
    if not tight:
        failures.append(
            f"reinterpreted level 1: PRA {report.pra_observed:.6f}, "
            f"slack {report.slack:.2e}"
        )
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _certify(
        "mean-stdev bounds",
        ok,
        "; ".join(failures) if failures else
        f"50 series-parallel + 50 Braess/domino + tight Braess case, "
        f"{elapsed:.2f}s (budget 60s)",
    )


def _brute_force_pool():
    """(label, instance) pairs with at most four paths: random small
    instances (parallel links and the Braess graph, about 30% of them with
    quadratic latencies, whose steps are curved), series-parallel networks,
    and layered networks under both risk models."""
    pool = [(f"small-{seed}", random_small_instance(seed)) for seed in range(60)]
    pool += [(f"series-parallel-{seed}", random_series_parallel_instance(seed))
             for seed in (4, 7, 9, 13)]
    pool += [(f"layered-{seed}-{model.value}",
              random_affine_instance(seed, topology="layered", risk_model=model))
             for seed in (*range(4, 10), *range(11, 15)) for model in RiskModel]
    return pool


def test_brute_force_agrees_with_iterative_solver():
    """Support-enumeration equilibria match the conditional-gradient solvers
    edge by edge on small instances, both equilibria of each."""
    t0 = time.perf_counter()
    worst = 0.0
    failures = []
    config = SolverConfig(tolerance=1e-10)
    pool = _brute_force_pool()
    for name, instance in pool:
        # the risk-neutral equilibrium is the one at gamma 0
        for label, iterative, reference in (
                ("rawe", _solve_rawe(instance, config), instance),
                ("rnwe", solve_rnwe(instance, config), with_gamma(instance, 0.0))):
            brute = brute_force_equilibrium(reference)
            if not iterative.converged:
                failures.append(f"{name} {label}: iterative solver did not converge")
                continue
            if not brute.converged:
                failures.append(f"{name} {label}: brute force did not converge")
                continue
            if iterative.vi_residual > config.tolerance:
                failures.append(
                    f"{name} {label}: residual {iterative.vi_residual:.2e} "
                    f"above the configured {config.tolerance:.0e}"
                )
            dev = float(np.max(np.abs(iterative.flow - brute.flow)))
            worst = max(worst, dev)
            if dev > 1e-7:
                failures.append(f"{name} {label}: flows differ by {dev:.2e}")
    elapsed = time.perf_counter() - t0
    ok = not failures
    _certify(
        "brute force agreement",
        ok,
        "; ".join(failures) if failures else
        f"{len(pool)} instances, both equilibria, worst per-edge gap {worst:.2e} "
        f"(tol 1e-7), {elapsed:.2f}s",
    )


def test_brute_force_flows_are_equilibria_to_rounding():
    """Each support's root solve lands on its equilibrium to rounding: the
    reference flow's own residual, both equilibria of each pool instance."""
    worst = 0.0
    failures = []
    for name, instance in _brute_force_pool():
        for label, reference in (("rawe", instance), ("rnwe", with_gamma(instance, 0.0))):
            brute = brute_force_equilibrium(reference)
            residual = result_from_paths(reference, brute.path_flow).vi_residual
            worst = max(worst, residual)
            if residual > 1e-15:
                failures.append(f"{name} {label}: residual {residual:.2e}")
    _certify(
        "brute force residual",
        not failures,
        "; ".join(failures) if failures else
        f"both equilibria of the pool, worst residual {worst:.2e} (tol 1e-15)",
    )


def test_equilibrium_cost_identities():
    """At equilibrium the social cost equals demand times the common mean
    cost (risk-neutral) and is at most demand times the common perceived
    cost (risk-averse)."""
    config = SolverConfig(tolerance=1e-9)
    worst_eq = 0.0
    worst_ineq = 0.0
    for seed in range(30):
        for instance in (random_affine_instance(seed), random_small_instance(seed)):
            rawe, rnwe = _solve_pair(instance, config)
            gap_eq = abs(
                social_cost(instance, rnwe.flow)
                - instance.demand * rnwe.common_cost
            )
            gap_ineq = (
                social_cost(instance, rawe.flow)
                - instance.demand * rawe.common_cost
            )
            worst_eq = max(worst_eq, gap_eq)
            worst_ineq = max(worst_ineq, gap_ineq)
    ok = worst_eq <= 1e-8 and worst_ineq <= 1e-8
    _certify(
        "equilibrium cost identities",
        ok,
        f"60 instances, worst |C - d*Q| {worst_eq:.2e}, "
        f"worst C - d*Q_gamma {worst_ineq:.2e} (tol 1e-8)",
    )


def test_vertex_bound_gap_stays_below_two():
    """The ceiling form of the vertex-count bound is never 2x the power-of-two
    form for any non-power-of-two vertex count up to 10^4."""
    t0 = time.perf_counter()
    ok = all(vertex_bound_gap_ratio(n, gk) < 2.0
             for gk in (0.1, 1.0, 10.0) for n in range(3, 10_001) if n & (n - 1))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _certify(
        "vertex bound gap",
        ok,
        f"all non-power-of-two n <= 10^4, three risk weights, "
        f"{elapsed:.3f}s (budget 1s)",
    )
