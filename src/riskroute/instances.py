"""Canonical instance families with closed-form equilibrium oracles.

The workhorse is a recursively built family of Braess-like networks that
realizes the worst case of the topological price-of-risk-aversion bound.
Level 1 is the Braess graph, and `build_braess`'s default edge functions
are level 1's; level i wires two level i-1 copies into a new Braess frame.
Writing gk for gamma*kappa, a level-i instance drives the ratio of
risk-averse to risk-neutral social cost to exactly 1 + 2^i * gk while
keeping the alternating path between the two equilibria at 2^i forward
subpaths on 2^(i+1) vertices.

Two variants share the topology and differ in the congestion-dependent
mean latencies a_j placed on the diagonal edges:

    Structural: a_j is pinned by the recursion parameters (r_a, r_n); the
        risk-averse equilibrium spreads over the zig-zag paths with
        level-dependent amounts.
    Functional: requires r_a = r_n = 1; a_j is pinned so that both
        equilibria split uniformly (risk-averse over the 2^i - 1 zig-zag
        paths, risk-neutral over the 2^i parallel paths) and every a_j is
        exactly (1 - 2^-i)-smooth at its risk-averse flow.

Edges with nonzero variance (the "risky" edges) appear only inside the
level-1 blocks, so every simple path carries at most one of them; that is
what lets the same instances serve as tight mean-stdev examples when the
stored variances are reinterpreted as standard deviations.

Edge ids follow a fixed recursion order (lower component, crossing edge,
upper component, then the two diagonal a_i edges), so instances, oracles
and tags are deterministic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .functions import Constant, LatencyFn, PiecewiseLinear
from .network import (
    Edge,
    NetworkInstance,
    PathFlow,
    RiskModel,
    enumerate_paths,
    mean_path_latency,
    path_cost,
    social_cost,
    validate_path,
    with_gamma,
)
from .solver import vi_residual


class Variant(enum.Enum):
    STRUCTURAL = "structural"
    FUNCTIONAL = "functional"


@dataclass(frozen=True)
class RecursiveFamilySpec:
    """Parameters of one recursive worst-case instance.

    level >= 1; r_a and r_n are the demands of the risk-averse and the
    risk-neutral scenario; gamma_kappa is the product gamma * kappa that
    the instance realizes (the instance stores gamma = gamma_kappa and
    scales variances so kappa = 1).
    """

    level: int
    r_a: float = 1.0
    r_n: float = 1.0
    gamma_kappa: float = 1.0
    variant: Variant = Variant.STRUCTURAL


@dataclass(frozen=True)
class OracleFlows:
    """Closed-form equilibrium path flows and social costs."""

    rawe: PathFlow
    rnwe: PathFlow
    rawe_cost: float
    rnwe_cost: float
    expected_pra: float


@dataclass(frozen=True)
class CheckReport:
    """Outcome of closed_form_check with per-failure diagnostics."""

    passed: bool
    failures: tuple[str, ...]


_ZERO = Constant(0.0)
_ONE = Constant(1.0)

# the Braess crossing edge's id, in `build_braess`'s edge order
BRAESS_CROSS = 4

# `closed_form_check`'s tolerance, scaled as its docstring says
_CHECK_TOL = 1e-10


class _Builder:
    def __init__(self) -> None:
        self.next_vertex = 0
        self.edges: list[Edge] = []
        self.tags: list[str] = []

    def vertex(self) -> int:
        v = self.next_vertex
        self.next_vertex += 1
        return v

    def edge(self, tail: int, head: int, latency: LatencyFn, variability: LatencyFn,
             tag: str) -> int:
        self.edges.append(Edge(tail, head, latency, variability))
        self.tags.append(tag)
        return len(self.edges) - 1


def _diagonal(neutral: float, averse: float, value: float) -> PiecewiseLinear:
    """Diagonal latency a_j: zero up to its risk-neutral flow `neutral`,
    `value` at its risk-averse flow `averse`, linear in between and beyond."""
    points = [(neutral, 0.0), (averse, value)]
    if neutral > 0.0:
        points.insert(0, (0.0, 0.0))
    return PiecewiseLinear(tuple(points))


def _grow(b: _Builder, level: int, s: int, t: int, r_a: float, r_n: float,
          spec: RecursiveFamilySpec) -> tuple[list[tuple[tuple[int, ...], float]], list]:
    """Emit the level subgraph between s and t for demands r_a and r_n.

    Returns (zig-zag paths, parallel paths), each path an edge-id tuple.
    Each zig-zag path comes paired with its structural risk-averse amount:
    r_n/2^level on the subgraph's own crossing path, r_a on a level-1
    block's, and on each copy's paths their amounts at the sub-demands
    (2^level*r_a - r_n)/2^(level+1) and r_n/2.  Zig-zag paths are ordered
    [own crossing, upper copy..., lower copy...].  The structural variant
    raises ValueError unless 2^level*r_a > (2^level - 1)*r_n, at every
    level.

    The diagonal a_level is zero up to r_n/2, its risk-neutral flow, and
    2^(level-1)*spec.gamma_kappa at its risk-averse flow: the structural amounts of the
    paths through it, or in the functional variant 2^(level-1) of the
    2^i - 1 equal zig-zag shares of the level-i instance, where its best
    smoothness parameter is exactly 1 - 2^-i at every level.
    """
    if spec.variant is Variant.STRUCTURAL:
        if not 2.0 ** level * r_a > (2.0 ** level - 1.0) * r_n:
            raise ValueError(
                f"structural level-{level} parameters need 2^i*r_a > (2^i - 1)*r_n, "
                f"got r_a={r_a}, r_n={r_n}")
        averse = r_a if level == 1 else r_a / 2.0 + r_n / 2.0 ** (level + 1)
    else:
        averse = 2.0 ** (level - 1) / (2.0 ** spec.level - 1.0)
    a_fn = _diagonal(r_n / 2.0, averse, 2.0 ** (level - 1) * spec.gamma_kappa)
    var_kappa = Constant(1.0)

    if level == 1:
        u = b.vertex()
        w = b.vertex()
        e_ul = b.edge(s, u, a_fn, _ZERO, "a:1")
        e_ur = b.edge(u, t, _ONE, var_kappa, "risky")
        e_ll = b.edge(s, w, _ONE, var_kappa, "risky")
        e_lr = b.edge(w, t, a_fn, _ZERO, "a:1")
        e_cr = b.edge(u, w, _ONE, _ZERO, "vertical")
        zig = [((e_ul, e_cr, e_lr), r_a)]
        par = [(e_ul, e_ur), (e_ll, e_lr)]
        return zig, par

    sub_r_a = (2.0 ** level * r_a - r_n) / 2.0 ** (level + 1)
    sub_r_n = r_n / 2.0
    u = b.vertex()
    w = b.vertex()
    zig_lo, par_lo = _grow(b, level - 1, s, w, sub_r_a, sub_r_n, spec)
    e_cr = b.edge(u, w, _ONE, _ZERO, "vertical")
    zig_up, par_up = _grow(b, level - 1, u, t, sub_r_a, sub_r_n, spec)
    e_in = b.edge(s, u, a_fn, _ZERO, f"a:{level}")
    e_out = b.edge(w, t, a_fn, _ZERO, f"a:{level}")
    zig = [((e_in, e_cr, e_out), r_n / 2.0 ** level)]
    zig += [((e_in,) + p, x) for p, x in zig_up]
    zig += [(p + (e_out,), x) for p, x in zig_lo]
    par = [(e_in,) + p for p in par_up]
    par += [p + (e_out,) for p in par_lo]
    return zig, par


def _set_up(spec: RecursiveFamilySpec) -> tuple[NetworkInstance, list, list, list[str]]:
    """Check `spec` and build its instance.

    Returns (instance, zig-zag paths with their structural amounts,
    parallel paths, edge tags), the paths as `_grow` returns them.
    """
    if spec.level < 1:
        raise ValueError(f"level must be >= 1, got {spec.level}")
    if spec.gamma_kappa < 0.0:
        raise ValueError(f"gamma_kappa must be nonnegative, got {spec.gamma_kappa}")
    if spec.r_a < 0.0 or spec.r_n < 0.0:
        raise ValueError("demands must be nonnegative")
    if spec.variant is Variant.FUNCTIONAL and (spec.r_a != 1.0 or spec.r_n != 1.0):
        raise ValueError("the functional variant requires r_a = r_n = 1")

    b = _Builder()
    s = b.vertex()
    t = b.vertex()
    zig, par = _grow(b, spec.level, s, t, spec.r_a, spec.r_n, spec)
    instance = NetworkInstance(
        vertices=b.next_vertex,
        edges=tuple(b.edges),
        source=s,
        sink=t,
        demand=spec.r_a,
        gamma=spec.gamma_kappa,
        risk_model=RiskModel.MEAN_VAR,
    )
    return instance, zig, par, b.tags


def build_recursive(spec: RecursiveFamilySpec) -> tuple[NetworkInstance, OracleFlows]:
    """Build a recursive worst-case instance with its closed-form oracle.

    The instance stores gamma = spec.gamma_kappa with unit variance on the
    risky edges, so the realized variance-to-mean ratio at the risk-averse
    equilibrium is exactly 1 and gamma*kappa = spec.gamma_kappa.  The
    risk-averse oracle routes each zig-zag path the amount `_grow` pairs
    it with (structural; paths with amount 0 left out) or the uniform
    share 1/(2^i - 1) (functional), the risk-neutral one r_n/2^i on each
    parallel path.
    """
    instance, zig, par, _ = _set_up(spec)
    if spec.variant is Variant.STRUCTURAL:
        rawe = PathFlow.of([(p, a) for p, a in zig if a > 0.0])
    else:
        share = 1.0 / (2.0 ** spec.level - 1.0)
        rawe = PathFlow.of([(p, share) for p, _ in zig])
    rn_share = spec.r_n / 2.0 ** spec.level
    rnwe = PathFlow.of([(p, rn_share) for p in par] if rn_share > 0.0 else [])

    rawe_cost = (1.0 + 2.0 ** spec.level * spec.gamma_kappa) * spec.r_a
    rnwe_cost = spec.r_n
    pra = rawe_cost / rnwe_cost if rnwe_cost > 0.0 else math.inf
    return instance, OracleFlows(rawe, rnwe, rawe_cost, rnwe_cost, pra)


def recursive_edge_tags(level: int) -> tuple[str, ...]:
    """Role of each edge id of a level-i instance: 'a:j', 'risky' or 'vertical'.

    Both variants share the topology, so the tags do not depend on the
    variant or the demand parameters.
    """
    return tuple(_set_up(RecursiveFamilySpec(level=level, variant=Variant.FUNCTIONAL))[3])


def build_braess(edge_functions=None, demand: float = 1.0, gamma: float = 1.0,
                 risk_model: RiskModel = RiskModel.MEAN_VAR) -> NetworkInstance:
    """The four-vertex Braess graph.

    Vertices: 0 source, 1 top, 2 bottom, 3 sink.  Edge order: upper-left,
    upper-right, lower-left, lower-right, crossing (top->bottom).
    `edge_functions` is an optional sequence of five (latency, variability)
    pairs in that order; by default the edges carry the functions of the
    recursive family's level 1 (structural, r_a = r_n = 1) at gamma*kappa =
    gamma, whose edges come in the same order.
    """
    if edge_functions is None:
        level1 = _set_up(RecursiveFamilySpec(level=1, gamma_kappa=gamma))[0]
        edge_functions = [(e.latency, e.variability) for e in level1.edges]
    if len(edge_functions) != 5:
        raise ValueError(f"expected 5 (latency, variability) pairs, got {len(edge_functions)}")
    (ul, ur, ll, lr, cr) = edge_functions
    edges = (
        Edge(0, 1, *ul),
        Edge(1, 3, *ur),
        Edge(0, 2, *ll),
        Edge(2, 3, *lr),
        Edge(1, 2, *cr),
    )
    return NetworkInstance(4, edges, 0, 3, demand, gamma, risk_model)


def build_domino_with_ears() -> NetworkInstance:
    """Topology of the six-vertex domino graph plus its two ear arcs.

    The domino is the 2x3 grid directed from bottom-left to top-right:
    two rows of horizontal edges and three upward rungs.  The ears connect
    the two distance-2 pairs along the rows (source to bottom-right corner
    and top-left corner to sink).  Its callers read only the topology:
    every latency is 1, every variance 0, and demand and gamma are 1.

    Edge order: bottom horizontals (0->1, 1->2), top horizontals (3->4,
    4->5), rungs left to right (0->3, 1->4, 2->5), then the two ears
    (0->2, 3->5).
    """
    edges = (
        Edge(0, 1, _ONE, _ZERO),
        Edge(1, 2, _ONE, _ZERO),
        Edge(3, 4, _ONE, _ZERO),
        Edge(4, 5, _ONE, _ZERO),
        Edge(0, 3, _ONE, _ZERO),
        Edge(1, 4, _ONE, _ZERO),
        Edge(2, 5, _ONE, _ZERO),
        Edge(0, 2, _ONE, _ZERO),
        Edge(3, 5, _ONE, _ZERO),
    )
    return NetworkInstance(6, edges, 0, 5, 1.0, 1.0)


def _exact_edge_flow(instance: NetworkInstance, path_flow: PathFlow) -> list[float]:
    """Edge flow of `path_flow` with each edge's amounts summed exactly.

    The paths must be valid.  A left-to-right sum of the functional
    family's 2^(j-1) equal shares on a diagonal a_j drifts off a_j's
    breakpoint, and a_j's slope of about 4^i turns that drift into a cost
    error the check can see from level 11 on.
    """
    amounts: list[list[float]] = [[] for _ in instance.edges]
    for path, amount in path_flow:
        for eid in path:
            amounts[eid].append(amount)
    return [math.fsum(a) for a in amounts]


def closed_form_check(instance: NetworkInstance, oracle: OracleFlows) -> CheckReport:
    """Verify that the oracle flows are equilibria of `instance` with the
    closed-form costs of the recursive family.

    Checks, with per-item diagnostics: every oracle path is a simple
    source->sink path with a nonnegative amount (nothing else is checked
    when one is not); the risk-averse flow has equilibrium residual at most
    tol = 1e-10 (variational-inequality residual for edge-additive costs,
    used path cost above the cheapest path for mean-stdev), and so has the
    risk-neutral flow at gamma 0; every used risk-averse path has mean
    latency and perceived cost rawe_cost / r_a (1 + 2^i * gk at level i,
    so at least 1) and every used risk-neutral path mean latency
    rnwe_cost / r_n; both social costs match the closed forms and
    expected_pra is their ratio.  Social costs are compared to tol *
    max(1, |cost|), the per-path values to tol * max(1, rawe_cost / r_a),
    the scale of the a_i latencies that set their rounding.  The edge flows
    are the oracle's amounts summed exactly (`_exact_edge_flow`).
    """
    failures: list[str] = []

    for name, pf in (("rawe", oracle.rawe), ("rnwe", oracle.rnwe)):
        for path, amount in pf:
            try:
                validate_path(instance, path)
            except Exception as exc:  # noqa: BLE001 - collect into the report
                failures.append(f"{name} path {path}: {exc}")
            if amount < 0.0:
                failures.append(f"{name} path {path}: negative amount {amount}")

    if failures:
        return CheckReport(False, tuple(failures))

    rawe_flow = _exact_edge_flow(instance, oracle.rawe)
    rnwe_flow = _exact_edge_flow(instance, oracle.rnwe)

    # perceived cost of every path at the risk-averse flow, when the costs
    # are not edge additive and the residual is read off the path costs
    costs = None
    if instance.edge_additive:
        res = vi_residual(instance, rawe_flow)
        if res > _CHECK_TOL:
            failures.append(f"rawe equilibrium residual {res:.3e} exceeds {_CHECK_TOL:.1e}")
    else:
        costs = {p: path_cost(instance, p, rawe_flow) for p in enumerate_paths(instance)}
        cheapest = min(costs.values())
        for path, amount in oracle.rawe:
            if amount > 0.0:
                gap = costs[tuple(path)] - cheapest
                if gap > _CHECK_TOL:
                    failures.append(
                        f"rawe path {path} costs {gap:.3e} above the cheapest path")

    res = vi_residual(with_gamma(instance, 0.0), rnwe_flow)
    if res > _CHECK_TOL:
        failures.append(f"rnwe equilibrium residual {res:.3e} exceeds {_CHECK_TOL:.1e}")

    r_a = oracle.rawe.total()
    r_n = oracle.rnwe.total()
    if r_a <= 0.0 or r_n <= 0.0:
        failures.append("oracle routes zero demand")
    else:
        unit = oracle.rawe_cost / r_a
        rnwe_unit = oracle.rnwe_cost / r_n
        path_tol = _CHECK_TOL * max(1.0, unit)
        for path, amount in oracle.rawe:
            if amount <= 0.0:
                continue
            mean = mean_path_latency(instance, path, rawe_flow)
            cost = (path_cost(instance, path, rawe_flow) if costs is None
                    else costs[tuple(path)])
            if abs(mean - unit) > path_tol:
                failures.append(f"rawe path {path}: mean latency {mean!r} != {unit!r}")
            if abs(cost - unit) > path_tol:
                failures.append(f"rawe path {path}: perceived cost {cost!r} != {unit!r}")
        for path, amount in oracle.rnwe:
            if amount <= 0.0:
                continue
            mean = mean_path_latency(instance, path, rnwe_flow)
            if abs(mean - rnwe_unit) > path_tol:
                failures.append(f"rnwe path {path}: mean latency {mean!r} != {rnwe_unit!r}")
        if unit < 1.0 - path_tol:
            failures.append(f"implied gamma*kappa is negative: unit cost {unit!r} < 1")

    for name, flow, closed in (("rawe", rawe_flow, oracle.rawe_cost),
                               ("rnwe", rnwe_flow, oracle.rnwe_cost)):
        cost = social_cost(instance, flow)
        if abs(cost - closed) > _CHECK_TOL * max(1.0, abs(closed)):
            failures.append(f"{name} social cost {cost!r} does not match closed form {closed!r}")

    if oracle.rnwe_cost > 0.0 and math.isfinite(oracle.expected_pra):
        ratio = oracle.rawe_cost / oracle.rnwe_cost
        if abs(ratio - oracle.expected_pra) > _CHECK_TOL * max(1.0, abs(ratio)):
            failures.append(
                f"expected_pra {oracle.expected_pra!r} is not rawe_cost/rnwe_cost {ratio!r}")

    return CheckReport(not failures, tuple(failures))
