"""Certified bounds on the price of risk aversion.

The price of risk aversion (PRA) of an instance is the ratio of the social
cost (means only) of a risk-averse equilibrium to that of the risk-neutral
one.  This module computes the observed ratio together with the quantities
the upper bounds are built from:

    kappa   worst variance-to-mean ratio (mean-var) or worst coefficient of
            variation (mean-stdev) over the edges, evaluated at the
            risk-averse flow,
    eta     number of forward subpaths of a cheapest alternating path
            between the two equilibria,
    mu      worst smoothness parameter of the mean latencies at the
            risk-averse flows.

and checks the observed ratio against five bound families (`analyze`
evaluates any set of them from one computation of the shared quantities):

    TopologicalEta        1 + eta * gamma * kappa
    TopologicalVertices   1 + gamma * kappa * ceil((n - 1) / 2)
    FunctionalSmooth      (1 + gamma * kappa) / (1 - mu), vacuous if mu >= 1
    StdevZeroAlt          1 + gamma * kappa   (alternating path has a single
                          forward run, e.g. series-parallel networks)
    StdevOneAlt           1 + 2 * gamma * kappa  (at most two forward runs)

An alternating path walks from source to sink using edges that gained flow
under risk aversion forward and edges that lost flow backward; its forward
subpath count never exceeds ceil((n - 1) / 2), and on n-vertex networks
that are not a power of two the slack between the vertex bound and the
realizable 1 + gamma*kappa*2^floor(log2 n) stays below a factor two.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass

from .functions import LatencyFn
from .network import NetworkInstance, RiskModel, social_cost
from .solver import EquilibriumResult

_ZERO_EPS = 1e-15


class BoundKind(enum.Enum):
    TOPOLOGICAL_ETA = "TopologicalEta"
    TOPOLOGICAL_VERTICES = "TopologicalVertices"
    FUNCTIONAL_SMOOTH = "FunctionalSmooth"
    STDEV_ZERO_ALT = "StdevZeroAlt"
    STDEV_ONE_ALT = "StdevOneAlt"


@dataclass(frozen=True)
class EdgePartition:
    """Edges split by how the two equilibria load them.

    set_a: edges carrying strictly more risk-neutral flow (x_e < z_e);
    set_b: the remaining edges used by either flow (z_e <= x_e, with ties
    and near-ties classified into B).  Edges unused by both are in neither.
    """

    set_a: frozenset[int]
    set_b: frozenset[int]


@dataclass(frozen=True)
class AlternatingPath:
    """Generalized source->sink path over the partitioned edges.

    Segments alternate direction; "forward" segments traverse A edges in
    their own direction, "backward" segments traverse B edges against it.
    """

    segments: tuple[tuple[str, tuple[int, ...]], ...]
    forward_subpath_count: int
    vertices: tuple[int, ...]


class AlternatingPathNotFound(RuntimeError):
    """No alternating path exists.  Equilibrium flow pairs always admit one
    when tied edges may be walked forward; without that, a source-sink cut
    whose edges all carry identical flow in both equilibria blocks the walk.
    """


@dataclass(frozen=True)
class BoundReport:
    pra_observed: float
    kappa: float
    bound_value: float
    bound_kind: BoundKind
    satisfied: bool
    slack: float
    eta: int | None = None
    mu: float | None = None
    note: str = ""


def compute_pra(instance: NetworkInstance, rawe: EquilibriumResult,
                rnwe: EquilibriumResult) -> float:
    """Observed price of risk aversion: social cost ratio rawe / rnwe."""
    denom = social_cost(instance, rnwe.flow)
    if denom <= 0.0:
        raise ValueError(f"risk-neutral social cost is {denom}; the ratio is undefined")
    return social_cost(instance, rawe.flow) / denom


def compute_kappa(instance: NetworkInstance, flow) -> float:
    """Worst variability-to-mean ratio over the edges at `flow`.

    Mean-var instances use variance/mean, mean-stdev instances use
    stdev/mean.  Every edge is evaluated at its flow value (unused edges at
    zero); edges with zero mean and zero variability are skipped, and a
    zero mean with positive variability yields +inf.
    """
    worst = 0.0
    for eid, e in enumerate(instance.edges):
        f = float(flow[eid])
        mean = e.latency(f)
        var = e.variability(f)
        if instance.risk_model is RiskModel.MEAN_STDEV:
            var = math.sqrt(var)
        if var <= _ZERO_EPS:
            continue
        if mean <= _ZERO_EPS:
            return math.inf
        worst = max(worst, var / mean)
    return worst


def partition_edges(instance: NetworkInstance, rawe_flow, rnwe_flow,
                    tie_tol: float | None = None) -> EdgePartition:
    """Split the edges used by either equilibrium into the A/B classes.

    A collects edges where the risk-averse flow is below the risk-neutral
    flow by more than the tie tolerance (default 1e-7 * demand); everything
    else used by either flow goes to B.
    """
    if tie_tol is None:
        tie_tol = 1e-7 * max(instance.demand, 1.0)
    set_a = set()
    set_b = set()
    for eid in range(len(instance.edges)):
        x = float(rawe_flow[eid])
        z = float(rnwe_flow[eid])
        if max(x, z) <= tie_tol:
            continue
        if x < z - tie_tol:
            set_a.add(eid)
        else:
            set_b.add(eid)
    return EdgePartition(frozenset(set_a), frozenset(set_b))


def find_alternating_path(instance: NetworkInstance, partition: EdgePartition,
                          tie_forward=frozenset()) -> AlternatingPath:
    """Cheapest alternating path: fewest forward subpaths, deterministic
    tie-break.  Searches the mixed graph where A edges keep their direction
    and B edges are reversed.

    `tie_forward` names B edges whose flows coincide in the two equilibria;
    those may additionally be walked forward (counting toward the forward
    runs).  Passing the ties restores the guarantee that a path exists for
    any two flows routing the same positive demand.
    """
    adj: dict[int, list[tuple[str, int, int]]] = {}
    for eid in sorted(partition.set_a | (frozenset(tie_forward) & partition.set_b)):
        e = instance.edges[eid]
        adj.setdefault(e.tail, []).append(("forward", eid, e.head))
    for eid in sorted(partition.set_b):
        e = instance.edges[eid]
        adj.setdefault(e.head, []).append(("backward", eid, e.tail))

    start = (0, (), instance.source, "")
    heap = [start]
    seen: set[tuple[int, str]] = set()
    while heap:
        nseg, moves, v, last = heapq.heappop(heap)
        if (v, last) in seen:
            continue
        seen.add((v, last))
        if v == instance.sink:
            return _assemble_alternating(instance, moves, nseg)
        for direction, eid, nxt in adj.get(v, ()):
            if (nxt, direction) in seen:
                continue
            cost = nseg + (1 if direction == "forward" and last != "forward" else 0)
            heapq.heappush(heap, (cost, moves + ((direction, eid),), nxt, direction))
    raise AlternatingPathNotFound(
        "no alternating path from source to sink; equilibrium flow pairs always "
        "admit one, so check the flows and the partition tolerance")


def _assemble_alternating(instance: NetworkInstance, moves, nseg: int) -> AlternatingPath:
    segments: list[tuple[str, list[int]]] = []
    vertices = [instance.source]
    at = instance.source
    for direction, eid in moves:
        e = instance.edges[eid]
        at = e.head if direction == "forward" else e.tail
        vertices.append(at)
        if segments and segments[-1][0] == direction:
            segments[-1][1].append(eid)
        else:
            segments.append((direction, [eid]))
    forward = sum(1 for d, _ in segments if d == "forward")
    assert forward == nseg, "segment count disagrees with search cost"
    return AlternatingPath(tuple((d, tuple(eids)) for d, eids in segments),
                           forward, tuple(vertices))


def estimate_smoothness_mu(fn: LatencyFn, x: float) -> float:
    """Best smoothness parameter of `fn` at flow x.

    Returns the supremum over y >= 0 of y*(fn(x) - fn(y)) / (x*fn(x)), the
    smallest mu for which y*fn(x) <= y*fn(y) + mu*x*fn(x) for all y.  The
    supremum is attained on [0, x] because fn is non-decreasing.

    A piecewise-linear function, one whose `fn.knots()` is not None as for
    the solver's step (constant, affine, piecewise linear, polynomials of
    degree <= 1), is walked piece by piece from x down: the pieces start
    at 0 and at its knots inside (0, x), and each piece's slope s is its
    right derivative at the piece's start.  With drop = fn(x) - fn(end)
    summed from the nonnegative s * (end - start) of the pieces above,
    y*(fn(x) - fn(y)) on a piece is y*(drop + s*(end - y)), which peaks at
    (drop + s*end) / (2s), clipped to the piece, or at the end when s = 0.
    Every term is nonnegative, so mu is exact to a few rounding errors even
    where fn(x) - fn(y) would cancel.

    For a curved function, a polynomial, g(y) = y*(fn(x) - fn(y)) is
    concave on [0, x], and its derivative falls from fn(x) - fn(0) >= 0 to
    -x*fn'(x) <= 0 there: Newton's method on g' finds the maximiser,
    bisecting whenever a step leaves the bracket of the root, until a step
    is under 1e-8 * x (mu's error is about the square of y's, relative to
    x).  It takes about five evaluations of g', g'' from the coefficients.
    mu is then summed from nonnegative terms, (x - y) times the factored
    differences x^k - y^k, so it keeps its relative precision at small
    flows too.
    """
    if not x > 0.0:
        raise ValueError(f"smoothness is evaluated at a positive flow, got x={x}")
    fx = fn(x)
    if fx <= 0.0:
        raise ValueError(f"smoothness needs fn(x) > 0, got fn({x}) = {fx}")

    if (knots := fn.knots()) is not None:
        best, drop, end = 0.0, 0.0, x
        for start in reversed([0.0, *(k for k in knots if 0.0 < k < x)]):
            s = fn.derivative(start)
            y = min(max((drop + s * end) / (2.0 * s), start), end) if s > 0.0 else end
            best = max(best, y * (drop + s * (end - y)))
            drop, end = drop + s * (end - start), start
        return best / (x * fx)
    # a polynomial, sum_k c_k * y^k: g'(y) = sum_{k>=1} c_k * (x^k - (k + 1)
    # * y^k) and -g''(y) = sum_{k>=1} k * (k + 1) * c_k * y^(k - 1); lo and
    # hi bracket the root of g'
    coeffs = fn.coeffs[1:]
    # sum_{k>=1} c_k * x^k: g' leaves c_0 out rather than cancel it
    top = 0.0
    for c in reversed(coeffs):
        top = (top + c) * x
    # Horner rows, highest power first, of (top - g'(y)) / y and -g''(y)
    rows = [((k + 1) * c, k * (k + 1) * c) for k, c in enumerate(coeffs, 1)][::-1]
    lo, hi, y = 0.0, x, 0.5 * x
    while True:
        rise = curve = 0.0
        for r, s in rows:
            rise = rise * y + r
            curve = curve * y + s
        slope = top - rise * y
        if slope > 0.0:
            lo = y
        elif slope < 0.0:
            hi = y
        else:
            break
        t = y + slope / curve
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        done = abs(t - y) <= 1e-8 * x
        y = t
        if done:
            break
    # fx - fn(y) = (x - y) * sum_{k>=1} c_k * (x^(k-1) + x^(k-2) * y + ...
    # + y^(k-1)), a sum of nonnegative terms, so mu is accurate to a few
    # rounding errors wherever it is small
    acc = inner = 0.0
    power = 1.0
    for c in coeffs:
        inner = inner * y + power
        acc += c * inner
        power *= x
    return y * (x - y) * acc / (x * fx)


def smoothness_mu_at_flow(instance: NetworkInstance, flow) -> float:
    """Worst per-edge smoothness parameter at `flow` over the used edges.

    Edges with zero flow or zero latency are skipped: they satisfy the
    smoothness inequality for every mu >= 0.
    """
    worst = 0.0
    for eid, e in enumerate(instance.edges):
        f = float(flow[eid])
        if f <= _ZERO_EPS or e.latency(f) <= _ZERO_EPS:
            continue
        worst = max(worst, estimate_smoothness_mu(e.latency, f))
    return worst


# absolute amount by which the observed ratio may exceed a bound it satisfies
_SATISFIED_TOL = 1e-9

# the bounds 1 + r * gamma * kappa built on the alternating path's forward
# subpath count eta, each with its cap on eta or None: r is the cap, past
# which the kind does not apply, or eta itself when there is none
_ETA_CAPS = {BoundKind.TOPOLOGICAL_ETA: None, BoundKind.STDEV_ZERO_ALT: 1,
             BoundKind.STDEV_ONE_ALT: 2}


def analyze(instance: NetworkInstance, rawe: EquilibriumResult,
            rnwe: EquilibriumResult,
            kinds=tuple(BoundKind)) -> dict[BoundKind, BoundReport]:
    """Evaluate the bound families `kinds` against the observed cost ratio.

    PRA and kappa are computed once for all kinds; eta only when a
    requested kind is built on it, and mu only when FUNCTIONAL_SMOOTH is
    requested.  The reports come back in the order of `kinds`.
    """
    pra = compute_pra(instance, rawe, rnwe)
    kappa = compute_kappa(instance, rawe.flow)
    gamma = instance.gamma
    eta: int | None = None
    eta_notes: list[str] = []
    if any(kind in _ETA_CAPS for kind in kinds):
        eta = _eta_with_fallback(instance, rawe, rnwe, eta_notes)
    mu: float | None = None
    if BoundKind.FUNCTIONAL_SMOOTH in kinds:
        mu = smoothness_mu_at_flow(instance, rawe.flow)

    reports: dict[BoundKind, BoundReport] = {}
    for kind in kinds:
        notes = list(eta_notes) if kind in _ETA_CAPS else []
        if kind in _ETA_CAPS:
            cap = _ETA_CAPS[kind]
            bound = 1.0 + (eta if cap is None else cap) * gamma * kappa
            if cap is not None and eta > cap:
                notes.append(f"inapplicable: alternating path has {eta} forward subpaths")
        elif kind is BoundKind.TOPOLOGICAL_VERTICES:
            bound = 1.0 + gamma * kappa * math.ceil((instance.vertices - 1) / 2)
        elif kind is BoundKind.FUNCTIONAL_SMOOTH:
            if mu >= 1.0:
                bound = math.inf
                notes.append(f"vacuous: mu={mu!r} >= 1")
            else:
                bound = (1.0 + gamma * kappa) / (1.0 - mu)
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown bound kind {kind}")
        reports[kind] = BoundReport(
            pra, kappa, bound, kind, pra <= bound + _SATISFIED_TOL, bound - pra,
            eta=eta if kind in _ETA_CAPS else None,
            mu=mu if kind is BoundKind.FUNCTIONAL_SMOOTH else None,
            note="; ".join(notes))
    return reports


def check_bound(instance: NetworkInstance, rawe: EquilibriumResult,
                rnwe: EquilibriumResult, kind: BoundKind) -> BoundReport:
    """Evaluate one bound family against the observed cost ratio."""
    return analyze(instance, rawe, rnwe, (kind,))[kind]


def _eta_with_fallback(instance: NetworkInstance, rawe: EquilibriumResult,
                       rnwe: EquilibriumResult, notes: list[str]) -> int:
    """Forward subpath count of the alternating path, with two numeric
    escapes: coinciding flows have no A edges and count as eta = 0, and a
    partition wrecked by solver noise is retried at a coarser tolerance.
    """

    def attempt(tol: float) -> int:
        partition = partition_edges(instance, rawe.flow, rnwe.flow, tol)
        if not partition.set_a:
            notes.append("flows coincide: no edge lost flow under risk aversion")
            return 0
        ties = frozenset(
            eid for eid in partition.set_b
            if abs(float(rawe.flow[eid]) - float(rnwe.flow[eid])) <= tol)
        return find_alternating_path(instance, partition,
                                     ties).forward_subpath_count

    try:
        return attempt(1e-7 * max(instance.demand, 1.0))
    except AlternatingPathNotFound:
        notes.append("partition retried at coarse tie tolerance")
        return attempt(1e-4 * max(instance.demand, 1.0))


def vertex_bound_gap_ratio(n: int, gamma_kappa: float) -> float:
    """Ratio of the vertex-count bound to the realizable power-of-two bound.

    For n not a power of two the numerator 1 + gk*ceil((n-1)/2) cannot be
    matched by any known construction; the best realizable value uses the
    largest power of two below n.  The ratio stays below two.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    realizable = 1.0 + gamma_kappa * 2.0 ** (n.bit_length() - 1)
    return (1.0 + gamma_kappa * math.ceil((n - 1) / 2)) / realizable
