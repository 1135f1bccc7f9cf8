"""Equilibrium solvers for risk-neutral and risk-averse routing.

Risk-neutral equilibria and mean-var risk-averse equilibria have edge
additive path costs, so both reduce to minimizing a congestion potential
(sum over edges of the integral of the perceived edge cost).  We minimize
it with conditional-gradient iterations: every iteration computes one
all-or-nothing shortest path under the current perceived costs, then
shifts mass from the costliest path of the maintained decomposition onto
the shortest path with an exact line search of the potential, which
converges fast enough for tight tolerances.

Each solve builds one table of its edges (`_EdgeTable`): each edge's
perceived cost, whether that cost is constant (a constant latency and,
unless gamma is 0, a constant variance) and the flows where it changes
slope.  The costs are kernels (`LatencyFn.kernel`): plain functions, the
one definition of each function's value (`fn(x)` runs its default
kernel), with a constant variance's share added inside the latency's
kernel, so that a cost is one call; the path loop evaluates its latencies
and variances through kernels too.  A function object keeps its default
kernel and stores its knots (`LatencyFn.knots`), so the tables of later
solves and checks, of the same instance or of another that shares its
functions, build no kernel again; a latency shifted by a Constant
variance gets its own kernel per edge and table, which is not kept.  A
step changes the
flow only on the edges where the two paths differ, so it recomputes the
costs of those edges alone, and never a constant one: that is evaluated
once per solve.  The flow rebuild every 256 iterations recomputes every
other cost.  One pass over the moved edges sets up a step: the
derivative's terms, in the order it sums them, its value at step 0 from
the cost vector the loop holds (a constant edge's share is taken once per
step), and from the moved edges whose costs the step recomputes, the
knots from the table (`_add_step_knots`, which the path loop's steps use
too), whether the derivative is linear between them and where the next
shortest-path sweep starts.  The gap's dot product reads numpy mirrors of
the flow and cost lists, which the rebuild copies and each step updates
in place, edge by moved edge: the same call on the same values as arrays
built afresh.  Everywhere else one helper evaluates an edge-additive
flow (`_edge_gap`): its edge costs, cheapest path and distance, total and
gap, for `vi_residual`, `result_from_paths`, the Newton finish and a
result.  A result's flow is rebuilt from the path decomposition.  When it
has the bytes of the loop's last flow mirror, as it has whenever no step
moved flow since the last rebuild, the result reuses the loop's last
distance and total (`_additive_result`); a finish that lands hands on the
flow, distance and total it evaluated, and its weights rebuild that flow
exactly, so its result reuses them too.  Otherwise the result evaluates
its flow afresh.  The path loop's result sums its kept amounts into the
edge flow itself and prices its paths with the solve's kernels.

The shortest path is one pull sweep over the vertices on source->sink
paths in topological order: each vertex takes the cheapest of its
in-edges, met in the order a relaxation sweep would relax them.  The
in-edge lists are built once per instance and shared by all its solves
and checks (`NetworkInstance.topological_in_edges`); when those vertices
span a cycle it is Dijkstra.  The additive loop keeps the sweep's labels
from step to step and re-sweeps from the first vertex, in topological
order, that is the head of an edge whose cost the last step recomputed:
each vertex before it would take the same label again.  It sweeps in full
at the first iteration and after each flow rebuild.  Both routes give the
same path and distance, and every sum keeps the order and arithmetic of a
full recompute, so the iterates do not depend on which route computed
them.  Float sums are
left-to-right loops, not sum(), which is compensated from Python 3.12 on,
so the iterates do not depend on the Python version either.

Mean-stdev path costs with gamma > 0 are not edge additive, so that solver
works directly on the enumerated path set.  At gamma 0, or when every
variance is Constant(0.0), they are the mean latencies, and
`solve_rawe_meanstdev` runs the additive loop as `solve_rnwe` does
(`NetworkInstance.edge_additive` decides), so the two equilibria of such
an instance are the same bits.  The path loop's pair
steps shift flow from the costliest used path to the cheapest one.  Each
evaluates each edge's latency and variance once and sums every path from
those values; the search for the transfer re-evaluates only the edges on
exactly one of the two paths, the only ones the transfer moves, and takes
their knots from per-edge tuples built once per solve (`_edge_knots`).

Pair steps, in both solvers, find the used paths quickly but equalize
their costs slowly.  So a Newton finish solves the equal-cost system of
the used paths and the cheapest one from the edges' right derivatives,
dropping paths whose amounts turn negative; both solvers share that step
(`_kkt_step`).  The mean-stdev loop tries it on its path amounts at most
once in each window of pair iterations [2^j, 2^(j+1)) from 8 on, at the
window's first iteration after a pair step that left the set of used
paths as it was; the additive loop at 2048, 4096, ..., on its path
decomposition.  The paths of a support are often linearly
dependent, and a singular system is solved by least squares, which need
not meet the demand row.  An answer is kept only when it passes the loop's
own convergence test and its amounts sum to the demand (`_routes`); on
piecewise-linear latencies with constant variances, as in the recursive
family, one step lands on the equilibrium to rounding.  A finish that
fails leaves the pair iterate as it was, so the trajectory goes on bit for
bit.

Both solvers step to the root of a non-decreasing function of the step
length t: the potential's derivative along the step, or the cost of the
cheapest path minus the costliest's after the transfer.  One routine
finds it for both.  It walks the points where the moved edges' functions
change slope and interpolates once on a linear piece; on a curved piece
(polynomial costs, or square roots of flow-dependent variances) it runs
Anderson-Bjorck regula falsi, and stops at the first point where the
computed function is within the rounding error of its float sum: there it
cannot be told from 0, so the point is a root to working precision.  That
takes about five calls where a bisection to the same precision needs 60
or more.  A linear step with ten points or more
to walk searches for the walk's last two points instead: secant and
regula falsi steps through exact values pick the next point, and about
three calls find them where the walk makes one per point up to the root.
A certificate from the float sum's rounding error shows that the walk
would have stopped there too, so the interpolation has the walk's bits;
on the rare step where the certificate fails, the walk runs.

Convergence is certified by a variational-inequality residual: the total
perceived cost of the current flow minus the cheapest possible perceived
cost of the same demand at frozen costs.  The additive loop reports
converged once that residual drops below tolerance * min(1, total cost),
which bounds both the absolute and the relative residual by the
tolerance; the path loop once the costliest used path is within tolerance
* min(1, its cost) of the cheapest path, which bounds the residual as
well.  Both use one test (`_within_tolerance`), and the reported
`vi_residual` is the relative form: a loop whose test passes stops only
when that residual of the result it returns is within the tolerance too,
and steps on otherwise.  Running out of iterations sets converged=False,
it does not raise.

All shortest-path ties are broken toward the lexicographically smallest
edge-id sequence, so repeated runs are bit-for-bit reproducible.  Two
tied paths into a vertex differ first where they part, so the sweep
compares the two edges there; tied parallel edges part at once and
compare by id.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .functions import Constant
from .network import (
    GraphStructureError,
    NetworkInstance,
    PathFlow,
    RiskModel,
    enumerate_paths,
    flow_demand,
    induced_edge_flow,
    zero_flow,
)

_PRUNE_REL = 1e-12

# raised where a loop meets costs that overflowed.  The additive loop: every
# path cost of its decomposition NaN, or a gap that is not finite while the
# used paths cost finite amounts (the flow-weighted total overflowed).  The
# path loop: its amounts NaN after a step between infinite costs, or a NaN
# gap (a NaN cost, or every path costing inf)
_NOT_FINITE = "perceived path costs are not finite: the instance's costs overflow"


@dataclass(frozen=True)
class SolverConfig:
    """Convergence tolerance (relative, finite, >= 0) and iteration cap (>= 0)."""

    tolerance: float = 1e-8
    max_iterations: int = 100_000

    def __post_init__(self) -> None:
        if not 0.0 <= self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and nonnegative, got {self.tolerance}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be nonnegative, got {self.max_iterations}")


@dataclass(frozen=True)
class EquilibriumResult:
    """Solver output.

    `flow` is the authoritative edge flow and `path_flow` a decomposition
    of it.  `common_cost` is the cheapest path's perceived cost at `flow`,
    and `vi_residual` the relative variational-inequality gap of `flow`.
    What converged=True guarantees is that `flow` routes the demand and
    that vi_residual <= the solve's tolerance.  Each loop tests its own
    iterate, the additive loop its incrementally updated flow and the path
    loop its costliest used path, and the residual of the flow rebuilt from
    that iterate can differ from it by rounding; so a loop stops on a pass
    only when the result it would return passes too, and otherwise steps
    on.  The same holds for a Newton finish, whose answer is also
    kept only when its path amounts sum to the demand within 1e-12 relative
    (`_routes`); a pair step moves flow from one path to another, so the
    total stays the demand to rounding.  The mean-stdev path loop also
    bounds each listed path, whose cost is at most `common_cost` +
    tolerance * min(1, `common_cost`); the additive loop bounds only the
    flow-weighted total, so a path carrying little flow may cost more than
    that.
    """

    flow: np.ndarray
    path_flow: PathFlow
    common_cost: float
    vi_residual: float
    iterations: int
    converged: bool


def _edge_knots(instance: NetworkInstance,
                gamma_eff: float) -> tuple[list[tuple[float, ...]], list[bool]]:
    """(knots, curved): where each edge's perceived cost may change slope, per edge.

    `knots[e]` holds, sorted, the breakpoints of edge e's latency and, with
    gamma_eff != 0, of its variance.  `curved[e]` says that the cost is not
    linear between them: one of those functions is a polynomial of degree 2
    or more (its knots are the other function's), or under mean-stdev with
    gamma_eff != 0 the variance is not constant, so that its square root
    moves.
    """
    stdev = gamma_eff != 0.0 and instance.risk_model is RiskModel.MEAN_STDEV
    knots, curved = [], []
    for e in instance.edges:
        lat = e.latency.knots()
        var = () if gamma_eff == 0.0 else e.variability.knots()
        curved.append(lat is None or var is None
                      or (stdev and not isinstance(e.variability, Constant)))
        # each tuple is sorted and distinct
        lat, var = lat or (), var or ()
        knots.append(tuple(sorted({*lat, *var})) if var else lat)
    return knots, curved


class _EdgeTable(NamedTuple):
    """Each edge's perceived cost l_e + gamma_eff * v_e, built once per solve.

    `cost[e]` is x -> l_e(x) + gamma_eff * v_e(x), x -> l_e(x) at gamma_eff
    0, built from kernels (`LatencyFn.kernel`); a Constant variance is
    folded into the latency's kernel as l_e(x) + gv with gv = gamma_eff *
    value, the same bits.  `constant[e]` says that the cost
    cannot move: a Constant latency, and a Constant variance or gamma_eff 0.
    `knots` and `curved` are `_edge_knots`.
    """

    cost: list
    constant: list[bool]
    knots: list[tuple[float, ...]]
    curved: list[bool]


def _edge_table(instance: NetworkInstance, gamma_eff: float) -> _EdgeTable:
    """The `_EdgeTable` of `instance` at gamma_eff: one entry per edge."""
    cost, constant = [], []
    for e in instance.edges:
        lat, var = e.latency, e.variability
        if gamma_eff == 0.0:
            cost.append(lat.kernel())
        elif isinstance(var, Constant):
            cost.append(lat.kernel(gamma_eff * var.value))
        else:
            cost.append(lambda x, lk=lat.kernel(), vk=var.kernel(): lk(x) + gamma_eff * vk(x))
        constant.append(isinstance(e.latency, Constant)
                        and (gamma_eff == 0.0 or isinstance(var, Constant)))
    return _EdgeTable(cost, constant, *_edge_knots(instance, gamma_eff))


def _shortest_path(instance: NetworkInstance, costs) -> tuple[tuple[int, ...], float]:
    """Min-cost source->sink path; ties broken by smallest edge-id sequence.

    One sweep over the instance's topological in-edge lists, each vertex
    taking the cheapest of its in-edges, or Dijkstra when the graph has a
    cycle.  Both return the same path and distance, bit for bit.
    """
    pull = instance.topological_in_edges
    if pull is None:
        return _dijkstra(instance, costs)
    return _dag_shortest_path(costs, pull)


def _dijkstra(instance: NetworkInstance, costs) -> tuple[tuple[int, ...], float]:
    """Heap Dijkstra over (distance, edge-id sequence) labels."""
    s, t = instance.source, instance.sink
    heap: list[tuple[float, tuple[int, ...], int]] = [(0.0, (), s)]
    done: set[int] = set()
    while heap:
        dist, path, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v == t:
            return path, dist
        for eid, head in instance.out_edges(v):
            if head not in done:
                heapq.heappush(heap, (dist + float(costs[eid]), path + (eid,), head))
    raise GraphStructureError("sink not reachable from source")


def _dag_shortest_path(costs: list[float], pull, labels=None,
                       start: int = 0) -> tuple[tuple[int, ...], float]:
    """Dijkstra's result on a DAG from one sweep in topological order.

    `pull` is `NetworkInstance.topological_in_edges`.  Each vertex takes
    the smallest distance over its in-edges, summed along the path as
    Dijkstra sums it, and among equal distances the smallest edge-id
    sequence, which is the (distance, path) pair Dijkstra pops first.  Only
    the last edge of each vertex's path and its tail are kept.  The paths
    of two tied in-edges share the path to the vertex where they meet and
    differ first in the edges leaving it, so a tie compares those two;
    they are found by walking back from the later of the two tails in
    topological order until the walks meet.  Two parallel edges meet at
    once, and compare by id.

    `labels` are the (dist, via, prev) lists of an earlier sweep, which this
    one updates in place from `pull[start]` on; without them the sweep is
    a full one into new lists.  A restart gives the full sweep's bits when
    no in-edge of the vertices before `pull[start]` changed its cost since
    `labels` were swept: those vertices read the same costs and the same
    labels of their tails, and a tie's walk-back reads only the labels of
    earlier vertices.
    """
    if labels is None:
        labels, start = _sweep_labels(pull), 0
    dist, via, prev = labels
    for v, e, u, rest in pull[start:] if start else pull:
        d = dist[u] + costs[e]
        for eid, tail in rest:
            nd = dist[tail] + costs[eid]
            if nd < d:
                d, e, u = nd, eid, tail
            elif nd == d:
                a, b, ea, eb = tail, u, eid, e
                while a != b:
                    if a > b:
                        ea, a = via[a], prev[a]
                    else:
                        eb, b = via[b], prev[b]
                if ea < eb:
                    e, u = eid, tail
        dist[v] = d
        via[v] = e
        prev[v] = u
    # the sink comes last
    walk = []
    v = len(pull)
    while v:
        walk.append(via[v])
        v = prev[v]
    return tuple(reversed(walk)), dist[-1]


def _sweep_labels(pull) -> tuple[list[float], list[int], list[int]]:
    """Labels for a full `_dag_shortest_path` sweep of `pull`: per vertex its
    distance, the last edge of its chosen path and that edge's tail."""
    n = len(pull) + 1
    return [0.0] * n, [-1] * n, [0] * n


def beckmann_potential(instance: NetworkInstance, flow) -> float:
    """Congestion potential: sum over edges of the cost integral up to f_e.

    ValueError when the costs are not edge additive, which have none.
    """
    if not instance.edge_additive:
        raise ValueError("beckmann_potential needs edge-additive costs")
    total = 0.0
    for eid, e in enumerate(instance.edges):
        f = float(flow[eid])
        total += e.latency.integral(f)
        if instance.gamma != 0.0:
            total += instance.gamma * e.variability.integral(f)
    return total


def _edge_gap(instance: NetworkInstance, flow: list[float], cost_of: list,
              demand: float) -> tuple[tuple[int, ...], float, float, float, list[float]]:
    """(best, dist, total, gap, c) of an edge-additive flow at frozen costs.

    `flow` is a list of Python floats and `cost_of` the solve's per-edge
    costs (an `_EdgeTable`'s); `c` holds the edge costs at `flow`, `best`
    is the cheapest source->sink path and `dist` its cost, `total` the
    perceived cost of `flow`, and `gap` is max(total - demand * dist, 0),
    the variational-inequality residual of routing `demand`.
    """
    c = [cost(x) for cost, x in zip(cost_of, flow)]
    best, dist = _shortest_path(instance, c)
    total = float(np.array(flow).dot(np.array(c)))
    return best, dist, total, max(total - demand * dist, 0.0), c


def _path_costs(instance: NetworkInstance, paths, means: list[float],
                variances: list[float]) -> list[float]:
    """Perceived cost of each path from per-edge means and variances.

    `means[e]` and `variances[e]` are edge e's latency and variance at one
    flow; at gamma 0 the variances are not read.  Each path sums left to
    right, not with sum(), which is compensated over floats from Python
    3.12 on, so every cost has the bits `network.path_cost` gives at that
    flow.
    """
    gamma = instance.gamma
    stdev = instance.risk_model is RiskModel.MEAN_STDEV
    costs = []
    for path in paths:
        mean = 0.0
        for eid in path:
            mean += means[eid]
        if gamma != 0.0:
            var = 0.0
            for eid in path:
                var += variances[eid]
            mean += gamma * (math.sqrt(var) if stdev else var)
        costs.append(mean)
    return costs


def _moment_fns(instance: NetworkInstance) -> tuple[list, list]:
    """Per-edge latency and variance kernels (`LatencyFn.kernel`), each kept by its function.

    The path loop runs at gamma > 0 only, so it always reads both.
    """
    return ([e.latency.kernel() for e in instance.edges],
            [e.variability.kernel() for e in instance.edges])


def _moments_at(lat: list, var: list, flow: list[float]) -> tuple[list, list]:
    """Each edge's mean and variance at the edge flow `flow`, one call per function."""
    return [f(x) for f, x in zip(lat, flow)], [f(x) for f, x in zip(var, flow)]


def _path_gap(instance: NetworkInstance, paths: list, amounts: np.ndarray,
              flow: list[float], demand: float, lat: list,
              var: list) -> tuple[float, float, float]:
    """(gap, total, cheapest) of routing `amounts[i]` on `paths[i]`, any risk model.

    `flow` is the edge flow the amounts induce and `lat`, `var` are
    `_moment_fns(instance)`; with q the path costs at `flow`, total =
    amounts @ q, cheapest = min(q) and gap = max(total - demand * cheapest,
    0).
    """
    q = np.array(_path_costs(instance, paths, *_moments_at(lat, var, flow)))
    cheapest = float(q.min())
    total = float(amounts @ q)
    return max(total - demand * cheapest, 0.0), total, cheapest


def vi_residual(instance: NetworkInstance, flow) -> float:
    """Absolute variational-inequality gap of `flow` at frozen costs.

    Total perceived cost of `flow` minus the cheapest way to route the same
    demand when edge costs stay frozen at their current values (one
    shortest-path computation).  Zero exactly at an equilibrium.  Raises
    ValueError when the costs are not edge additive
    (`NetworkInstance.edge_additive`).
    """
    if not instance.edge_additive:
        raise ValueError("vi_residual needs edge-additive costs: mean-var, gamma 0, "
                         "or zero variances")
    flow = np.asarray(flow, dtype=float)
    return _edge_gap(instance, flow.tolist(), _edge_table(instance, instance.gamma).cost,
                     flow_demand(instance, flow))[3]


def _slope_knots(edge_knots: list, curved: list, moves,
                 t_max: float) -> tuple[set[float], bool]:
    """(knots, linear) of a step's perceived-cost difference on [0, t_max].

    `moves` holds (edge id, flow f, direction d): the edge's flow goes from
    f to f + d * t, d = +1 or -1.  `knots` are the t at which a moved edge's
    cost changes slope, from the per-edge `edge_knots`; `linear` says that
    the difference is linear between them, no moved edge being `curved`
    (both from `_edge_knots`).
    """
    knots: set[float] = set()
    linear = True
    for eid, f, d in moves:
        if curved[eid]:
            linear = False
        _add_step_knots(knots, edge_knots[eid], f, d, t_max)
    return knots, linear


def _add_step_knots(knots: set[float], ks: tuple[float, ...], f: float, d: float,
                    t_max: float) -> None:
    """Add to `knots` the t in (0, t_max) at which an edge whose flow goes
    from f to f + d * t, d = +1 or -1, meets one of its knots `ks`."""
    if ks:
        lo, hi = (f, f + t_max) if d > 0 else (f - t_max, f)
        if lo < 0.0:
            lo = 0.0
        for x in ks:
            if lo < x < hi:
                knots.add((x - f) / d)


# a linear step searches for its bracket when it has at least this many
# points to walk; on the recursive family's shorter steps the search's own
# bookkeeping cost about what its saved calls did
_SEARCH_FROM = 10

# calls of the step function a step may make after fn(0): at most 100 in
# all, what a 100-step bisection would spend
_STEP_CALLS = 99


def _moved_edges(best: tuple[int, ...], worst: tuple[int, ...]) -> dict[int, float]:
    """Edge id to +1.0 or -1.0: the edges whose flow a pair step from `worst`
    to `best` moves, and which way.

    Moving t from worst to best moves the edges on exactly one of them,
    best's first, each in path order: each simple path is its own edge
    set, so two different ones leave some.
    """
    deltas = dict.fromkeys(best, 1.0)
    for eid in worst:
        if eid in deltas:
            del deltas[eid]
        else:
            deltas[eid] = -1.0
    return deltas


def _search_bracket(fn, ts: list[float], v0: float, slack: float, values: dict):
    """The ordered walk's bracket among the points `ts`, found by a search.

    `ts` are the walk's points, ascending, and fn(0) = v0 < 0.  The search
    evaluates ts[0], then picks each next point, the first at or past the
    root of a line through two exact values: the secant through the last
    two negative ones while no nonnegative value is known, regula falsi
    between the nearest negative and nonnegative ones after.  It stops at
    adjacent points, fn(a) = fa < 0 <= fn(b) = fb, or when every point
    reads negative, having evaluated each point at most once; `values`
    maps each to fn there.  The last negative value, fa, certifies that no
    earlier point reads >= 0 when it is below -`slack` (`_step_root` says
    why), or when a is 0.  Returns (a, fa, b, fb) then, a = b = ts[-1] and
    fa = fb when every point reads negative, and otherwise None.
    """
    m = len(ts)
    lo, tlo, flo = -1, 0.0, v0
    hi, thi, fhi = m, ts[-1], 0.0
    tprev, fprev = 0.0, v0
    j = 0
    while True:
        t = ts[j]
        f = values[t] = fn(t)
        if f < 0.0:
            tprev, fprev, lo, tlo, flo = tlo, flo, j, t, f
        else:
            hi, thi, fhi = j, t, f
        # adjacent, or hi == m and lo == m - 1: every point negative
        if hi == lo + 1:
            if lo >= 0 and flo >= -slack:
                return None
            return (tlo, flo, thi, fhi) if hi < m else (tlo, flo, tlo, flo)
        if hi == m:
            # only negative values so far: where their secant meets zero
            r = tlo - flo * (tlo - tprev) / (flo - fprev) if flo > fprev else thi
        else:
            r = tlo - flo * (thi - tlo) / (fhi - flo)
        j = bisect_left(ts, r, lo + 1, hi - 1)


def _step_root(fn, t_max: float, knots, linear: bool,
               v0: float, size: float, terms: int) -> float:
    """Where the non-decreasing `fn` turns nonnegative on [0, t_max].

    Returns 0 when fn(0) >= 0 and t_max when fn(t_max) <= 0.  `knots` are
    the points where fn may change slope; the walk evaluates those inside
    (0, t_max), then t_max, in ascending order until fn is nonnegative.  On
    a `linear` piece the root is one interpolation.  On any other piece
    Anderson-Bjorck regula falsi narrows it: a secant step through the
    bracket's end values, the midpoint when the step leaves the bracket,
    and when the same end is replaced twice in a row, the value kept at
    the other, stale end is weighted by m = 1 - f(new) / f(replaced), or
    by 1/2 when m <= 0.  It stops at a point where |fn| <= G (below), the
    rounding error of fn's own sum, so that the computed value cannot be
    told from 0; or when the bracket is a few ulps of t_max wide, the
    precision a flow of that size keeps.  `v0` is fn(0), which both
    callers hold already; fn is called at most `_STEP_CALLS` times more,
    and a walk that spends them all returns the last knot where fn is
    negative.

    `size`, S, and `terms`, n, bound fn's rounding noise, and with it a
    linear step searches for the walk's last two points
    (`_search_bracket`) when it has at least `_SEARCH_FROM` points to walk
    and no more than `_STEP_CALLS`.  fn must be a
    left-to-right float sum of n terms s * c(f + s * t), s = +1
    or -1 and c one of the package's costs, or the difference of two such
    sums plus constants (a path pair's costs), and S the sum of the terms'
    magnitudes at t = 0.  A value fn(a) < -G, G = K * (n + 2) * 2^-52 * S
    with K = 8, certifies that fn reads negative at every point before a,
    so the walk would have passed them all:

    - each computed term is non-decreasing in t, since f + s * t, a
      piece's y + rise * (x - x0) / run and the sums inside a cost all
      round monotonically, except where a piecewise-linear cost's piece
      ends: its formula may end about two ulps of c above the next piece's
      first value, which is exact;
    - a left-to-right float sum of n terms is within (n - 1) * 2^-53 times
      the sum of their magnitudes of the exact sum (to first order);
    - the costs are nonnegative, so with P(t) and N(t) the magnitudes of
      the positive and negative terms, fn is P - N, N does not rise with t
      from N(0) <= S, and where fn(a) < 0, P(a) < N(a): the magnitudes at a
      and at any earlier point sum to less than 2S.

    So for k < a, fn(k) - fn(a) is at most the two sums' errors,
    2 * (n - 1) * 2^-52 * S, plus the pieces' overshoots, 4 * 2^-52 * S:
    2 * (n + 1) * 2^-52 * S.  K = 8 in place of 2 covers the second-order
    terms, the rounding of S itself and the few roundings a path cost adds
    (its standard deviation term and the difference of the two paths).  A
    certified bracket is the walk's, with the walk's values, so the
    interpolation gives the walk's t, bit for bit.  Without a certificate
    the walk runs from the start, reading the values the search knows:
    it evaluates no point twice, and so stays within the cap.  The same
    terms bound the rounding error of a computed fn(t) where fn is near 0
    by G, so a computed |fn(t)| <= G cannot be told from 0: a curved step
    stops there.
    """
    if v0 >= 0.0:
        return 0.0
    calls = 0
    ts = sorted(k for k in knots if 0.0 < k < t_max)
    ts.append(t_max)
    a, fa = 0.0, v0
    # G, the rounding bound below
    g = 8.0 * (terms + 2) * 2.0 ** -52 * size
    if len(ts) >= _SEARCH_FROM and linear and len(ts) <= _STEP_CALLS:
        values = {}
        found = _search_bracket(fn, ts, v0, g, values)
        if found is not None:
            # the walk's last step, from a certified bracket
            a, fa, b, _ = found
            ts = [b]
        # the walk reads the values the search knows and calls fn at the
        # others: at most len(ts) calls in all, so the cap is not reached
        fn = lambda t, fn=fn, known=values: known[t] if t in known else fn(t)  # noqa: E731
    for b in ts:
        if calls >= _STEP_CALLS:
            return a
        fb = fn(b)
        calls += 1
        if fb < 0.0:
            a, fa = b, fb
            continue
        if fb == 0.0 and (b == t_max or not linear):
            return b
        if linear:
            return a + (0.0 - fa) * (b - a) / (fb - fa)
        break
    else:
        return t_max

    # Anderson-Bjorck on [a, b], fa < 0 < fb; ga and gb are the end values
    # the secant uses, and when one end is replaced twice in a row the value
    # kept at the other is weighted down.  A value within G is a root to
    # working precision
    ga, gb, kept = fa, fb, 0
    tol = 2.0 * math.ulp(t_max)
    while calls < _STEP_CALLS and b - a > 2.0 * tol:
        t = b - gb * (b - a) / (gb - ga)
        # a step closer than tol to an end moves tol, so that a root next to
        # the end closes the bracket; a step outside the bracket bisects
        t = min(max(t, a + tol), b - tol) if a <= t <= b else 0.5 * (a + b)
        ft = fn(t)
        calls += 1
        if -g <= ft <= g:
            return t
        if ft < 0.0:
            if kept > 0:
                m = 1.0 - ft / fa
                gb *= m if m > 0.0 else 0.5
            a, fa, ga, kept = t, ft, ft, 1
        else:
            if kept < 0:
                m = 1.0 - ft / fb
                ga *= m if m > 0.0 else 0.5
            b, fb, gb, kept = t, ft, ft, -1
    return a if -fa < fb else b


def _flow_from_weights(instance: NetworkInstance, pairs) -> list[float]:
    """The edge flow of (path, weight) `pairs`, summed as `induced_edge_flow` sums them."""
    flow = [0.0] * len(instance.edges)
    for path, w in pairs:
        for eid in path:
            flow[eid] += w
    return flow


def _incidence(paths, m: int) -> np.ndarray:
    """The 0/1 matrix whose row i marks the edges of `paths[i]`, of `m` edges."""
    a = np.zeros((len(paths), m))
    for i, path in enumerate(paths):
        a[i, list(path)] = 1.0
    return a


def _prune_path_flow(weights: dict[tuple[int, ...], float], demand: float) -> PathFlow:
    # demand > 0: `_solve_additive` has returned at zero demand
    kept = {p: w for p, w in weights.items() if w > _PRUNE_REL * demand}
    total = 0.0
    for w in kept.values():
        total += w
    scale = demand / total if total > 0.0 else 0.0
    # the paths are tuples of ints already: no PathFlow.of re-conversion
    return PathFlow(tuple(sorted((p, float(w * scale)) for p, w in kept.items())))


# The mean-stdev loop tries a Newton finish at most once in each window of
# pair iterations [2^j, 2^(j+1)) from _FINISH_FROM on, at the window's first
# iteration whose last pair step left the used set as it was (no path
# entered or left it): while paths still enter, the finish solves on the
# wrong support.  A failed attempt leaves the iterate as it was, so every
# pair step is the pair loop's own.  The additive loop tries one at 2048,
# 4096, ..., with no test of its support, so that every additive solve that
# converges within 2048 pair steps keeps its trajectory bit for bit: the
# sweep batches (nearly all end by iteration 64), the risk-neutral solves of
# the family read under mean-stdev (at most 881), and the level-5
# structural counts the benchmark's self-test pins (1236 and 881).  Moving
# it down to 64 re-pins those counts, which waits for a benchmark change.
_FINISH_FROM = 8
_ADDITIVE_FINISH_FROM = 2048
# linear solves per finish, over all its steps
_FINISH_SOLVES = 16
# the longest cycle of pair steps the mean-stdev loop detects
_CYCLE_SPAN = 8


def _finish_schedule(ok: list[bool], k: int, tried: int, cap: int):
    """(iteration, phase) of each finish the mean-stdev loop tries from `k` on, on a cycle.

    From iteration `k` on the loop's amounts repeat a cycle of p = len(ok)
    vectors: iteration K starts from phase (K - k) % p, and `ok[i]` says
    that the used paths of phase i are those of the phase before it.  The
    loop tries a finish at the first iteration past `tried` whose used
    paths are the last iteration's, and then none before the next window,
    2^j with 2^j > that iteration; yields each such iteration below `cap`,
    the iteration cap, in order.
    """
    p = len(ok)
    if not any(ok):
        return
    at = k
    while True:
        at = max(at, tried + 1)
        while not ok[(at - k) % p]:
            at += 1
        if at >= cap:
            return
        yield at, (at - k) % p
        tried = (1 << at.bit_length()) - 1


def _cost_jacobian(instance: NetworkInstance, a: np.ndarray, flow: list[float],
                   gamma_eff: float, variances: list[float] | None = None) -> np.ndarray | None:
    """Jacobian of the costs of the paths with incidence rows `a` in their amounts.

    At the edge flow `flow`, entry (p, r) is the sum over the edges shared by
    p and r of the latency's right derivative plus gamma_eff times the
    variance's when the costs are edge additive (mean-var, or gamma_eff 0).
    Under mean-stdev with gamma_eff > 0, the variance term is instead
    gamma_eff / (2 sqrt(V_p)) times the same sum of the variances' right
    derivatives, where V_p is the variance of p from the per-edge
    `variances`; None when some V_p is 0 while a variance on p has positive
    slope: the square root has no derivative there.
    """
    edges = instance.edges
    slope = np.array([e.latency.derivative(x) for e, x in zip(edges, flow)])
    if gamma_eff == 0.0:
        return (a * slope) @ a.T
    spread = np.array([e.variability.derivative(x) for e, x in zip(edges, flow)])
    if instance.risk_model is RiskModel.MEAN_VAR:
        return (a * (slope + gamma_eff * spread)) @ a.T
    jac = (a * slope) @ a.T
    w = (a * spread) @ a.T
    v = a @ np.array(variances)
    rising = np.diag(w) > 0.0
    if np.any((v == 0.0) & rising):
        return None
    scale = np.zeros(len(a))
    scale[rising] = gamma_eff / (2.0 * np.sqrt(v[rising]))
    return jac + scale[:, None] * w


def _kkt_step(jac: np.ndarray, h: np.ndarray, q: np.ndarray, demand: float,
              budget) -> tuple[np.ndarray, np.ndarray] | None:
    """One Newton step to equal costs on a path support, or None.

    `h` holds the support's amounts, `q` their costs and `jac` the costs'
    Jacobian.  The step solves

        [[J, -1], [1^T, 0]] [delta; lam] = [-q; demand - sum(h)]

    for equal costs after the step.  A path whose new amount is negative is
    set to 0 and leaves the support (its step is -h), and the system is
    solved again.  Returns (keep, new): which paths stay, and their new
    amounts.  A singular system is solved by least squares.  Each linear
    solve takes one item of the iterator `budget`; None when it runs out or
    an amount is not finite.
    """
    keep = np.ones(len(h), dtype=bool)
    while True:
        if next(budget, None) is None:
            return None
        n = int(keep.sum())
        kkt = np.zeros((n + 1, n + 1))
        kkt[:n, :n] = jac[np.ix_(keep, keep)]
        kkt[:n, n] = -1.0
        kkt[n, :n] = 1.0
        rhs = np.empty(n + 1)
        rhs[:n] = jac[np.ix_(keep, ~keep)] @ h[~keep] - q[keep]
        rhs[n] = demand - h[keep].sum()
        try:
            step = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        new = h[keep] + step[:n]
        if not np.all(np.isfinite(new)):
            return None
        negative = new < 0.0
        if not negative.any():
            return keep, new
        keep[np.flatnonzero(keep)[negative]] = False


def _routes(amounts, demand: float) -> bool:
    """Whether the path `amounts`, summed left to right, route `demand`.

    A finish's candidate must, to within _PRUNE_REL * demand: a
    least-squares step can miss the KKT system's demand row, and an
    under-routed flow passes the gap test, which clamps at 0.
    """
    total = 0.0
    for a in amounts:
        total += a
    return abs(total - demand) <= _PRUNE_REL * demand


def _within_tolerance(gap: float, scale: float, tolerance: float) -> bool:
    """The convergence test: gap <= tolerance * min(1, scale), 1 when scale <= 0.

    The additive loop's `scale` is the total perceived cost, the path
    loop's the cheapest path's cost.
    """
    return gap <= tolerance * min(1.0, scale if scale > 0.0 else 1.0)


def _additive_finish(instance: NetworkInstance, cfg: SolverConfig, cost_of: list,
                     gamma_eff: float, weights: dict[tuple[int, ...], float],
                     flow: list[float], c: list[float], best: tuple[int, ...]
                     ) -> tuple[dict[tuple[int, ...], float], np.ndarray, float, float] | None:
    """(weights, flow, dist, total) that pass the additive loop's convergence test, or None.

    `weights` is the loop's path decomposition, `flow` the edge flow it
    induces, `c` the edge costs there (from `cost_of`, the solve's
    `_EdgeTable` costs) and `best` the shortest path at `c`.
    With U the paths of positive weight and `best`, one `_kkt_step`
    equalizes their costs; the candidate is tested as the loop tests its
    iterate, by `_edge_gap` at the candidate's flow, and a rejected one is
    the next point to linearize at.  A candidate that passes is returned
    only when it routes the demand (`_routes`), with its flow as an array,
    the cheapest path cost and the total cost there, which
    `_additive_result` reuses.  None when it does not route the demand, or
    when `_kkt_step` gives no step.  The arguments are left as they are.
    """
    demand = instance.demand
    budget = iter(range(_FINISH_SOLVES))
    while True:
        support = sorted({p for p, w in weights.items() if w > 0.0} | {best})
        a = _incidence(support, len(instance.edges))
        jac = _cost_jacobian(instance, a, flow, gamma_eff)
        h = np.array([weights.get(p, 0.0) for p in support])
        step = _kkt_step(jac, h, a @ np.array(c), demand, budget)
        if step is None:
            return None
        keep, new = step
        weights = dict(zip((p for p, k in zip(support, keep) if k), new.tolist()))
        flow = _flow_from_weights(instance, weights.items())
        best, dist, total, gap, c = _edge_gap(instance, flow, cost_of, demand)
        if _within_tolerance(gap, total, cfg.tolerance):
            if not _routes(weights.values(), demand):
                return None
            return weights, np.array(flow), dist, total


def _additive_result(instance: NetworkInstance, cost_of: list,
                     weights: dict[tuple[int, ...], float], iterations: int,
                     converged: bool, mirror: np.ndarray, dist: float,
                     total: float) -> EquilibriumResult:
    """The additive loop's result at path `weights`: the flow rebuilt from them and its residual.

    `mirror` is the loop's last flow mirror, or the flow of a Newton finish
    that passed, and `dist` and `total` the cheapest path cost and total
    cost computed there.  Both are functions of the flow alone, so when the
    rebuilt flow has the mirror's bytes they are reused: the same costs at
    the same flows, a restarted sweep equal to a full one and the same dot
    product.  A finish's weights rebuild its flow exactly, so a finish's
    result always reuses them.  Otherwise `_edge_gap` evaluates the rebuilt
    flow.
    """
    demand = instance.demand
    flow = _flow_from_weights(instance, weights.items())
    flow_a = np.array(flow)
    if flow_a.tobytes() == mirror.tobytes():
        gap = max(total - demand * dist, 0.0)
    else:
        _, dist, total, gap, _ = _edge_gap(instance, flow, cost_of, demand)
    residual = gap / total if total > 0.0 else 0.0
    return EquilibriumResult(flow_a, _prune_path_flow(weights, demand), dist, residual,
                             iterations, converged)


def _solve_additive(instance: NetworkInstance, cfg: SolverConfig, gamma_eff: float,
                    callback=None) -> EquilibriumResult:
    demand = instance.demand
    cost_of, constant, edge_knots, curved = _edge_table(instance, gamma_eff)
    c = [cost(0.0) for cost in cost_of]
    first, dist = _shortest_path(instance, c)
    if demand == 0.0:
        return EquilibriumResult(zero_flow(instance), PathFlow.of([]), dist, 0.0, 0, True)

    weights: dict[tuple[int, ...], float] = {first: demand}
    # c holds the edge costs at `flow`, both lists of Python floats.  A
    # constant cost keeps its value from flow 0.  A step recomputes the costs
    # of the varying edges it moves, and the rebuild of `flow` every 256
    # iterations those of every varying edge.  flow_a and c_a mirror them as
    # arrays for the gap's dot product: the rebuild copies them, and a step
    # writes each edge it moves into both.  A pass of the mirrors stops the
    # loop only when the flow rebuilt from `weights`, the one returned, passes
    # too; when it does not, the next iteration rebuilds.
    varying = [eid for eid, fixed in enumerate(constant) if not fixed]
    # on a DAG the sweep's labels are kept from step to step: a step
    # re-sweeps from `start`, the first position in `pull` of the head of an
    # edge whose cost it recomputed (`head_at`; an edge on no source->sink
    # path is at the end), and a rebuild sweeps in full
    pull = instance.topological_in_edges
    end = 0 if pull is None else len(pull)
    head_at = [end] * len(cost_of)
    if pull is not None:
        labels = _sweep_labels(pull)
        for i, (_, e, _, rest) in enumerate(pull):
            head_at[e] = i
            for eid, _ in rest:
                head_at[eid] = i

    def dphi(t: float) -> float:
        # the potential's derivative along the step, over the moved edges in
        # `moves`: sum_e s_e * c_e(f_e + s_e * t), non-decreasing in t
        acc = 0.0
        for cost, f, s, term in moves:
            acc += term if cost is None else s * cost(f + s * t)
        return acc

    flow: list[float] = []
    iterations = start = 0
    rebuild = False
    for k in itertools.count():
        if rebuild or k % 256 == 0:
            flow = _flow_from_weights(instance, weights.items())
            for eid in varying:
                c[eid] = cost_of[eid](flow[eid])
            flow_a, c_a = np.array(flow), np.array(c)
            start = 0
        # `_edge_gap` on the mirrors
        if pull is None:
            best, dist = _dijkstra(instance, c)
        else:
            best, dist = _dag_shortest_path(c, pull, labels, start)
        total = float(flow_a.dot(c_a))
        gap = max(total - demand * dist, 0.0)
        if callback is not None:
            callback(k, np.array(flow), total, gap)
        rebuild = _within_tolerance(gap, total, cfg.tolerance)
        if rebuild:
            result = _additive_result(instance, cost_of, weights, iterations, True,
                                      flow_a, dist, total)
            if result.vi_residual <= cfg.tolerance:
                return result
        if k >= cfg.max_iterations:
            break
        # the flow was rebuilt from `weights` at this k, a multiple of 256
        if k >= _ADDITIVE_FINISH_FROM and (k & (k - 1)) == 0:
            finished = _additive_finish(instance, cfg, cost_of, gamma_eff, weights,
                                        flow, c, best)
            if finished is not None:
                result = _additive_result(instance, cost_of, finished[0], iterations, True,
                                          *finished[1:])
                if result.vi_residual <= cfg.tolerance:
                    return result
        iterations = k + 1

        # the costliest path of the decomposition, the largest (cost, path);
        # each cost summed left to right, not with sum()
        worst: tuple[int, ...] = ()
        worst_cost = -math.inf
        for path in weights:
            q = 0.0
            for eid in path:
                q += c[eid]
            if q > worst_cost or (q == worst_cost and path > worst):
                worst, worst_cost = path, q
        # no costliest path (a NaN cost), or a flow-weighted total that
        # overflowed at finite costs, against which no gap can pass
        if not worst or (not gap < math.inf and worst_cost < math.inf):
            raise ValueError(_NOT_FINITE)
        if worst == best:
            break
        deltas = _moved_edges(best, worst)
        t_max = weights[worst]
        # one pass sets up the step: the derivative's terms in the order it
        # sums them, a constant edge's as a fixed term no call evaluates
        # again, its value at 0 and their magnitudes' sum (the costs are
        # nonnegative); and from the moved varying edges, whose costs the
        # step recomputes, the knots, whether the derivative is linear
        # between them and where the next sweep starts
        moves = []
        knots: set[float] = set()
        linear = True
        v0 = size = 0.0
        start = end
        for eid, s in deltas.items():
            f = flow[eid]
            term = s * c[eid]
            v0 += term
            size += c[eid]
            if constant[eid]:
                moves.append((None, f, s, term))
            else:
                moves.append((cost_of[eid], f, s, term))
                if curved[eid]:
                    linear = False
                _add_step_knots(knots, edge_knots[eid], f, s, t_max)
                if head_at[eid] < start:
                    start = head_at[eid]
        # the potential's minimum along the step: the root of its derivative
        t = _step_root(dphi, t_max, knots, linear, v0, size, len(moves))
        remainder = t_max - t
        if remainder <= _PRUNE_REL * demand:
            t = t_max
        for eid, (cost, f, s, _) in zip(deltas, moves):
            # max(x, 0.0) without the call: keeps -0.0 and NaN as max does
            x = f + s * t
            if x < 0.0:
                x = 0.0
            flow[eid] = flow_a[eid] = x
            if cost is not None:
                c[eid] = c_a[eid] = cost(x)
        weights[best] = weights.get(best, 0.0) + t
        if t >= t_max:
            del weights[worst]
        else:
            weights[worst] = t_max - t

    return _additive_result(instance, cost_of, weights, iterations, False,
                            flow_a, dist, total)


def solve_rnwe(instance: NetworkInstance, cfg: SolverConfig = SolverConfig(),
               callback=None) -> EquilibriumResult:
    """Risk-neutral equilibrium: all travelers minimize mean latency.

    Conditional-gradient pair steps, with a Newton finish
    (`_additive_finish`) tried at pair iterations 2048, 4096, ...; when its
    answer passes the loop's convergence test the solve ends there.
    `iterations` counts the pair steps.
    """
    return _solve_additive(instance, cfg, 0.0, callback)


def solve_rawe_meanvar(instance: NetworkInstance, cfg: SolverConfig = SolverConfig(),
                       callback=None) -> EquilibriumResult:
    """Mean-var risk-averse equilibrium via the additive edge cost l + gamma*v.

    The same loop as `solve_rnwe`, Newton finish included; `iterations`
    counts the pair steps.
    """
    if instance.risk_model is not RiskModel.MEAN_VAR:
        raise ValueError("solve_rawe_meanvar requires a mean-var instance")
    return _solve_additive(instance, cfg, instance.gamma, callback)


def solve_rawe(instance: NetworkInstance, cfg: SolverConfig = SolverConfig()) -> EquilibriumResult:
    """Risk-averse equilibrium under the instance's own risk model."""
    if instance.risk_model is RiskModel.MEAN_VAR:
        return solve_rawe_meanvar(instance, cfg)
    return solve_rawe_meanstdev(instance, cfg)


class _PathState(NamedTuple):
    """The mean-stdev loop's view of path amounts, at gamma > 0 only.

    The edge flow, each edge's mean and variance there, the path costs q,
    the cheapest path, the used paths (amount above the cut), the
    costliest used path, their cost gap and whether it is within the
    solve's tolerance (`_within_tolerance`, scaled by the cheapest cost).
    """

    flow: list[float]
    means: list[float]
    variances: list[float]
    q: np.ndarray
    best: int
    used: np.ndarray
    worst: int
    gap: float
    converged: bool


def _newton_finish(instance: NetworkInstance, incidence: np.ndarray, state,
                   s: _PathState, amounts: np.ndarray) -> np.ndarray | None:
    """Path amounts that pass the loop's convergence test, by Newton's method, or None.

    `state(amounts)` is the loop's evaluation, and `s` its value at
    `amounts`.  With U the used paths and the cheapest path, one
    `_kkt_step` equalizes their costs.  The candidate is returned when
    `state` finds it converged and it routes the demand (`_routes`);
    otherwise the next step starts from it.  None when a converged candidate
    does not route the demand, or when `_kkt_step` gives no step or
    `_cost_jacobian` no Jacobian.
    """
    budget = iter(range(_FINISH_SOLVES))
    while True:
        support = sorted({*s.used.tolist(), s.best})
        jac = _cost_jacobian(instance, incidence[support], s.flow, instance.gamma,
                             s.variances)
        if jac is None:
            return None
        step = _kkt_step(jac, amounts[support], s.q[support], instance.demand, budget)
        if step is None:
            return None
        keep, new = step
        amounts = np.zeros(len(amounts))
        amounts[np.array(support)[keep]] = new
        s = state(amounts)
        if s.converged:
            return amounts if _routes(new.tolist(), instance.demand) else None


def solve_rawe_meanstdev(instance: NetworkInstance, cfg: SolverConfig = SolverConfig()) -> EquilibriumResult:
    """Mean-stdev risk-averse equilibrium over the enumerated path set.

    At gamma 0, or with every variance Constant(0.0), the costs are edge
    additive (`NetworkInstance.edge_additive`) and this is `solve_rnwe`'s
    additive loop, the same bits.  Otherwise path
    costs are not edge additive, so the solver iterates directly on path
    amounts: each round moves flow from the costliest used path to
    the cheapest path, choosing the transfer that equalizes the pair's
    costs.  Stops once every used path is within tolerance of the
    cheapest.  At most once in each window of pair iterations
    [2^j, 2^(j+1)) from 8 on, at the first iteration of the window whose
    pair step left the used paths as they were, a Newton finish
    (`_newton_finish`) solves the equal-cost system of the used paths and
    the cheapest one; when its answer passes the same test the solve ends
    there, otherwise the pair steps go on from where they were.  Below the
    rounding floor the pair steps can end in a cycle: a step of an ulp or
    none at all, which the next steps undo.  Once a finish has been tried,
    a pair step whose amounts repeat, bit for bit, those at the start of
    one of the last `_CYCLE_SPAN` iterations ends the solve: every later
    iteration repeats the cycle, whose iterates have all failed the
    convergence test, so only a finish the schedule would still try
    (`_finish_schedule`) can end it.  Those finishes are tried at once, one
    per amounts vector of the cycle, in the schedule's order, and the first
    that passes returns what the schedule would have returned at its
    iteration; when none passes, the solve stops with converged=False,
    returning the amounts it has.  `iterations` counts the pair steps.
    """
    if instance.risk_model is not RiskModel.MEAN_STDEV:
        raise ValueError("solve_rawe_meanstdev requires a mean-stdev instance")
    if instance.edge_additive:
        return _solve_additive(instance, cfg, 0.0)
    paths = enumerate_paths(instance)
    demand = instance.demand
    m = len(instance.edges)
    incidence = _incidence(paths, m)
    lat, var = _moment_fns(instance)
    edge_knots, curved = _edge_knots(instance, instance.gamma)
    q0 = _path_costs(instance, paths, *_moments_at(lat, var, [0.0] * m))
    if demand == 0.0:
        return EquilibriumResult(zero_flow(instance), PathFlow.of([]),
                                 min(q0), 0.0, 0, True)

    used_cut = _PRUNE_REL * demand

    def state(amounts: np.ndarray) -> _PathState:
        flow = (incidence.T @ amounts).tolist()
        means, variances = _moments_at(lat, var, flow)
        q = np.array(_path_costs(instance, paths, means, variances))
        best = int(np.argmin(q))
        used = np.flatnonzero(amounts > used_cut)
        if not len(used):
            raise ValueError(_NOT_FINITE)
        worst = int(used[np.argmax(q[used])])
        gap = float(q[worst] - q[best])
        if gap != gap:  # a NaN cost, or every path costs inf
            raise ValueError(_NOT_FINITE)
        return _PathState(flow, means, variances, q, best, used, worst, gap,
                          _within_tolerance(gap, float(q[best]), cfg.tolerance))

    def result(amounts: np.ndarray, iterations: int, converged: bool) -> EquilibriumResult:
        # the gap of the returned flow, as `result_from_paths` defines it:
        # the kept amounts at their induced flow, routing what they sum to
        kept = np.where(amounts > used_cut, amounts, 0.0)
        # `paths` is in lexicographic order, so the entries need no sort
        pf = PathFlow(tuple((p, a) for p, a in zip(paths, kept.tolist()) if a))
        # the instance's own paths and positive amounts: nothing to validate
        flow = _flow_from_weights(instance, pf)
        gap, total, cheapest = _path_gap(instance, paths, kept, flow, pf.total(), lat, var)
        residual = gap / total if total > 0.0 else 0.0
        return EquilibriumResult(np.array(flow), pf, cheapest, residual, iterations,
                                 converged)

    amounts = np.zeros(len(paths))
    amounts[int(np.argmin(q0))] = demand

    iterations = 0
    # no finish until past this pair iteration, the end of the last window
    # tried; a pass of the pair-gap test stops the loop only when the
    # residual it reports passes too
    tried = _FINISH_FROM - 1
    used = None
    # the amounts at the start of the last _CYCLE_SPAN iterations
    recent = [amounts.tobytes()]
    for k in itertools.count():
        s = state(amounts)
        if s.converged:
            res = result(amounts, iterations, True)
            if res.vi_residual <= cfg.tolerance:
                return res
        if k >= cfg.max_iterations:
            break
        if k > tried and np.array_equal(s.used, used):
            tried = (1 << k.bit_length()) - 1
            finished = _newton_finish(instance, incidence, state, s, amounts)
            if finished is not None:
                res = result(finished, iterations, True)
                if res.vi_residual <= cfg.tolerance:
                    return res
        used = s.used
        iterations = k + 1

        flow, means, variances, worst, best = s.flow, s.means, s.variances, s.worst, s.best
        move = float(amounts[worst])
        pair = worst_path, best_path = paths[worst], paths[best]
        moved = [(eid, flow[eid], d) for eid, d in _moved_edges(best_path, worst_path).items()]

        def pair_diff(t: float) -> float:
            # cost of the best path minus the worst's after moving t, which
            # rises with t; overwrites the moved edges' values, and the next
            # iteration rebuilds them
            for eid, f, d in moved:
                x = f + d * t
                means[eid] = lat[eid](x)
                variances[eid] = var[eid](x)
            cw, cb = _path_costs(instance, pair, means, variances)
            return cb - cw

        # pair_diff(0) is -gap bit for bit; the two paths' costs and edges
        # size the bracket search's certificate
        t = _step_root(pair_diff, move, *_slope_knots(edge_knots, curved, moved, move),
                       -s.gap, float(s.q[best] + s.q[worst]),
                       len(worst_path) + len(best_path))
        amounts[worst] -= t
        amounts[best] += t
        if amounts[worst] <= used_cut:
            amounts[best] += amounts[worst]
            amounts[worst] = 0.0
        after = amounts.tobytes()
        if after in recent and tried >= _FINISH_FROM:
            # the iterates from k + 1 on repeat `cycle`, bit for bit, and
            # each has failed the convergence test: only a finish the
            # schedule still tries can end the solve, and one tried from
            # the same amounts ends it the same way
            cycle = recent[recent.index(after):]
            states = [state(np.frombuffer(a)) for a in cycle]
            ok = [np.array_equal(x.used, states[i - 1].used) for i, x in enumerate(states)]
            seen = set()
            for at, phase in _finish_schedule(ok, k + 1, tried, cfg.max_iterations):
                if phase in seen:
                    continue
                seen.add(phase)
                a = np.frombuffer(cycle[phase])
                finished = _newton_finish(instance, incidence, state, states[phase], a)
                if finished is not None:
                    res = result(finished, at, True)
                    if res.vi_residual <= cfg.tolerance:
                        return res
            break
        recent.append(after)
        if len(recent) > _CYCLE_SPAN:
            del recent[0]

    return result(amounts, iterations, False)


def result_from_paths(instance: NetworkInstance, path_flow: PathFlow) -> EquilibriumResult:
    """Wrap an explicit path flow (for example a closed-form oracle) as a result.

    Computes the induced edge flow, the equilibrium residual and the
    cheapest path cost under the instance's gamma and risk model; wrap a
    risk-neutral flow with `with_gamma(instance, 0.0)`.
    """
    flow = induced_edge_flow(instance, path_flow)
    demand = path_flow.total()
    if instance.edge_additive:
        _, common, total, gap, _ = _edge_gap(instance, flow.tolist(),
                                             _edge_table(instance, instance.gamma).cost, demand)
    else:
        paths = enumerate_paths(instance)
        index = {p: i for i, p in enumerate(paths)}
        amounts = np.zeros(len(paths))
        for p, a in path_flow:
            amounts[index[p]] += a
        gap, total, common = _path_gap(instance, paths, amounts, flow.tolist(), demand,
                                       *_moment_fns(instance))
    residual = gap / total if total > 0.0 else 0.0
    return EquilibriumResult(flow, path_flow, common, residual, 0,
                             _within_tolerance(gap, total, 1e-9))
