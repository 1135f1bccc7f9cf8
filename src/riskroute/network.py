"""Single-commodity routing networks with stochastic edge delays.

A :class:`NetworkInstance` is a directed multigraph (parallel edges are
allowed, edges are addressed by integer id) with one source, one sink, an
aggregate demand, a risk aversion coefficient gamma and a risk model.
Edge delay distributions enter only through their first two moments: each
edge stores a mean latency function and a variance function, both flow
dependent.  Under the mean-var model the perceived cost of a path adds
gamma times the path variance to the mean; under the mean-stdev model it
adds gamma times the square root of the path variance, which is not edge
additive.  The variance function always stores sigma^2; the mean-stdev
model takes the square root at path level.

Social cost is always measured in means only, regardless of risk model.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .functions import Constant, LatencyFn


class GraphStructureError(ValueError):
    """A path, flow or graph violates the structural requirements."""


class PathCapExceeded(RuntimeError):
    """Simple-path enumeration found more paths than the configured cap."""


class RiskModel(enum.Enum):
    MEAN_VAR = "mean-var"
    MEAN_STDEV = "mean-stdev"


@dataclass(frozen=True)
class Edge:
    """Directed edge with a mean latency and a variance function."""

    tail: int
    head: int
    latency: LatencyFn
    variability: LatencyFn


@dataclass(frozen=True)
class NetworkInstance:
    """Immutable routing instance.  Safe to share across threads.

    Attributes:
        vertices: number of vertices; ids are 0 .. vertices-1.  The graph's
            tables hold only the ids that an edge, the source or the sink
            names, so a large count with isolated ids costs no time.
        edges: edge tuple; the index of an edge is its id.
        source, sink: distinct vertex ids with at least one source->sink path.
        demand: finite nonnegative aggregate flow to route.
        gamma: finite nonnegative risk aversion coefficient.
        risk_model: how path costs combine means and variances.
    """

    vertices: int
    edges: tuple[Edge, ...]
    source: int
    sink: int
    demand: float
    gamma: float
    risk_model: RiskModel = RiskModel.MEAN_VAR
    _out: dict[int, tuple[tuple[int, int], ...]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        n = self.vertices
        if n < 2:
            raise GraphStructureError(f"need at least two vertices, got {n}")
        if not (0 <= self.source < n and 0 <= self.sink < n):
            raise GraphStructureError(
                f"source/sink must be valid vertex ids, got {self.source}, {self.sink} with n={n}")
        if self.source == self.sink:
            raise GraphStructureError("source and sink must differ")
        if not 0.0 <= self.demand < math.inf:
            raise GraphStructureError(f"demand must be finite and nonnegative, got {self.demand}")
        if not 0.0 <= self.gamma < math.inf:
            raise GraphStructureError(f"gamma must be finite and nonnegative, got {self.gamma}")
        out: dict[int, list[tuple[int, int]]] = {self.source: [], self.sink: []}
        for eid, e in enumerate(self.edges):
            tail, head = e.tail, e.head
            if not (0 <= tail < n and 0 <= head < n):
                raise GraphStructureError(f"edge {eid} has endpoints outside 0..{n - 1}")
            if head not in out:
                out[head] = []
            if tail in out:
                out[tail].append((eid, head))
            else:
                out[tail] = [(eid, head)]
        object.__setattr__(self, "_out", {v: tuple(arcs) for v, arcs in out.items()})
        if self.sink not in _reachable(self.source, self._out):
            raise GraphStructureError("sink is not reachable from source")

    def out_edges(self, vertex: int) -> tuple[tuple[int, int], ...]:
        """(edge id, head) pairs leaving `vertex`, in edge-id order; () for
        an id that no edge names."""
        return self._out.get(vertex, ())

    @property
    def edge_additive(self) -> bool:
        """Whether perceived path costs are sums of edge costs.

        They are under mean-var, at gamma 0, and when every edge's
        variability is Constant(0.0): a mean-stdev path cost is then its
        mean latency, whatever gamma.  Such costs have a congestion
        potential, and their equilibria are found and checked edge by edge;
        other mean-stdev costs are not, and are handled path by path.
        """
        return (self.gamma == 0.0 or self.risk_model is RiskModel.MEAN_VAR
                or all(isinstance(e.variability, Constant) and e.variability.value == 0.0
                       for e in self.edges))

    @property
    def topological_in_edges(self) -> tuple[tuple[int, int, int, tuple[tuple[int, int], ...]], ...] | None:
        """In-edge lists of the vertices on source->sink paths, or None.

        Those vertices are named by their position in a topological order:
        the source is 0 and the sink comes last.  One (position, edge id,
        tail, rest) per vertex but the source, in that order: its in-edges
        from those vertices are (edge id, tail) followed by the (edge id,
        tail) pairs in `rest`, in the order a sweep of the order meets them:
        by the tail's position, then in the tail's out-edge order.  None
        when those vertices span a cycle.  Computed on first use and kept.
        """
        pull = getattr(self, "_dag_in", False)
        if pull is not False:
            return pull
        into: dict[int, list[tuple[int, int]]] = {v: [] for v in self._out}
        for eid, e in enumerate(self.edges):
            into[e.head].append((eid, e.tail))
        keep = _reachable(self.source, self._out) & _reachable(self.sink, into)
        indegree = Counter(head for v in keep for _, head in self._out[v] if head in keep)
        # Kahn's sweep; a vertex's in-edges are met, tail by tail, in order
        pulled: dict[int, list[tuple[int, int]]] = {v: [] for v in keep}
        order: list[int] = []
        ready = [v for v in keep if indegree[v] == 0]
        while ready:
            v = ready.pop()
            for eid, head in self._out[v]:
                if head in keep:
                    pulled[head].append((eid, len(order)))
                    indegree[head] -= 1
                    if indegree[head] == 0:
                        ready.append(head)
            order.append(v)
        pull = None
        if len(order) == len(keep):
            pull = tuple((i, *pulled[v][0], tuple(pulled[v][1:]))
                         for i, v in enumerate(order) if i)
        # not functools.cached_property: its __dict__ write slows attribute loads 3x
        object.__setattr__(self, "_dag_in", pull)
        return pull


def _reachable(start: int, arcs) -> set[int]:
    """Vertices reachable from `start`, where arcs[v] lists (edge id, next vertex)."""
    seen = {start}
    stack = [start]
    while stack:
        for _, w in arcs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


@dataclass(frozen=True)
class PathFlow:
    """A demand decomposition into simple source->sink paths.

    Entries are (edge-id tuple, amount) pairs; amounts are nonnegative and
    sum to the routed demand.
    """

    entries: tuple[tuple[tuple[int, ...], float], ...]

    @staticmethod
    def of(pairs) -> "PathFlow":
        return PathFlow(tuple((tuple(int(e) for e in p), float(a)) for p, a in pairs))

    def total(self) -> float:
        return _sum_in_order(a for _, a in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def zero_flow(instance: NetworkInstance) -> np.ndarray:
    return np.zeros(len(instance.edges))


def _check_edge_ids(instance: NetworkInstance, path) -> None:
    """GraphStructureError naming the first id of `path` that is not an edge
    of `instance`; indexing would read a negative one from the end of the
    edge tuple."""
    m = len(instance.edges)
    for eid in path:
        if not 0 <= eid < m:
            raise GraphStructureError(f"unknown edge id {eid}")


def validate_path(instance: NetworkInstance, path) -> None:
    """Check that `path` is a simple source->sink edge-id sequence."""
    if len(path) == 0:
        raise GraphStructureError("empty path")
    _check_edge_ids(instance, path)
    visited = []
    at = instance.source
    for eid in path:
        e = instance.edges[eid]
        if e.tail != at:
            raise GraphStructureError(
                f"edge {eid} starts at {e.tail}, expected {at}: path is not connected")
        visited.append(at)
        at = e.head
        if at in visited:
            raise GraphStructureError(f"path revisits vertex {at}: not simple")
    if at != instance.sink:
        raise GraphStructureError(f"path ends at {at}, not at sink {instance.sink}")


def mean_path_latency(instance: NetworkInstance, path, flow) -> float:
    """Sum of mean latencies along `path` at the given edge flow."""
    _check_edge_ids(instance, path)
    total = 0.0
    for eid in path:
        e = instance.edges[eid]
        total += e.latency(float(flow[eid]))
    return total


def path_cost(instance: NetworkInstance, path, flow) -> float:
    """Perceived path cost under the instance's risk model.

    Mean-var: sum of means plus gamma times sum of variances.
    Mean-stdev: sum of means plus gamma times sqrt of summed variances.
    One walk of the path sums both in path order, the mean as
    `mean_path_latency` sums it, so the cost has its bits at gamma 0.
    """
    if instance.gamma == 0.0:
        return mean_path_latency(instance, path, flow)
    _check_edge_ids(instance, path)
    mean = var = 0.0
    for eid in path:
        e = instance.edges[eid]
        f = float(flow[eid])
        mean += e.latency(f)
        var += e.variability(f)
    if instance.risk_model is RiskModel.MEAN_VAR:
        return mean + instance.gamma * var
    return mean + instance.gamma * math.sqrt(var)


def social_cost(instance: NetworkInstance, flow) -> float:
    """Total mean latency experienced: sum of f_e * latency_e(f_e)."""
    total = 0.0
    for eid, e in enumerate(instance.edges):
        f = float(flow[eid])
        if f != 0.0:
            total += f * e.latency(f)
    return total


def induced_edge_flow(instance: NetworkInstance, path_flow: PathFlow) -> np.ndarray:
    """Edge flow vector induced by a path flow.  Validates every path."""
    for path, amount in path_flow:
        validate_path(instance, path)
        if amount < 0.0:
            raise GraphStructureError(f"negative path amount {amount}")
    return np.array(_edge_flow(instance, path_flow))


def _edge_flow(instance: NetworkInstance, pairs) -> list[float]:
    """The edge flow of (path, amount) `pairs`, unchecked: each edge adds its
    paths' amounts left to right, in the order of `pairs`."""
    flow = [0.0] * len(instance.edges)
    for path, amount in pairs:
        for eid in path:
            flow[eid] += amount
    return flow


def _sum_in_order(values) -> float:
    """`values` added left to right.  Not sum(): over floats it is compensated
    from Python 3.12 on, and a total must have the same bits on every Python."""
    total = 0.0
    for v in values:
        total += v
    return total


def flow_demand(instance: NetworkInstance, flow) -> float:
    """Net outflow at the source (the demand actually routed by `flow`)."""
    out = into = 0.0
    for eid, _ in instance.out_edges(instance.source):
        out += float(flow[eid])
    for eid, e in enumerate(instance.edges):
        if e.head == instance.source:
            into += float(flow[eid])
    return out - into


def enumerate_paths(instance: NetworkInstance, cap: int = 4096) -> list[tuple[int, ...]]:
    """All simple source->sink paths, lexicographic by edge-id sequence.

    Raises PathCapExceeded as soon as more than `cap` paths exist, so the
    call stays cheap on instances with exponentially many paths.  The first
    walk that finds them all keeps them on the instance, and later calls
    return a new list of them; a later call with a smaller cap still raises
    when there are more than it allows.
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    paths = getattr(instance, "_paths", None)
    if paths is None:
        paths = _walk_paths(instance, cap)
        object.__setattr__(instance, "_paths", paths)
    elif len(paths) > cap:
        raise PathCapExceeded(f"more than {cap} simple source->sink paths (the enumeration cap)")
    return list(paths)


def _walk_paths(instance: NetworkInstance, cap: int) -> tuple[tuple[int, ...], ...]:
    """`enumerate_paths`' depth-first walk, raising PathCapExceeded past `cap`."""
    paths: list[tuple[int, ...]] = []
    prefix: list[int] = []
    on_path = {instance.source}
    # depth-first walk with an explicit stack of out-edge iterators, so long
    # paths cannot hit the interpreter's recursion limit
    stack = [iter(instance.out_edges(instance.source))]
    while stack:
        for eid, head in stack[-1]:
            if head in on_path:
                continue
            if head == instance.sink:
                if len(paths) >= cap:
                    raise PathCapExceeded(
                        f"more than {cap} simple source->sink paths (the enumeration cap)")
                paths.append(tuple(prefix) + (eid,))
                continue
            prefix.append(eid)
            on_path.add(head)
            stack.append(iter(instance.out_edges(head)))
            break
        else:
            stack.pop()
            if prefix:
                on_path.discard(instance.edges[prefix.pop()].head)
    return tuple(paths)


def with_risk_model(instance: NetworkInstance, risk_model: RiskModel) -> NetworkInstance:
    """Copy of `instance` with the risk model replaced.

    Used to reinterpret a mean-var instance under the mean-stdev model
    (the stored variance functions are then read as sigma^2 and the square
    root is taken at path level).  The copy has the same graph, so it keeps
    the graph views `instance` has built: `topological_in_edges` and the
    `enumerate_paths` list.
    """
    return _same_graph(instance, dataclasses.replace(instance, risk_model=risk_model))


def with_gamma(instance: NetworkInstance, gamma: float) -> NetworkInstance:
    """Copy of `instance` with the risk aversion coefficient replaced.

    The copy keeps the graph views `instance` has built, as
    `with_risk_model`'s does.
    """
    return _same_graph(instance, dataclasses.replace(instance, gamma=gamma))


def _same_graph(instance: NetworkInstance, copy: NetworkInstance) -> NetworkInstance:
    """`copy`, given the graph views `instance` keeps: the two share their edges."""
    for name in ("_dag_in", "_paths"):
        kept = getattr(instance, name, False)
        if kept is not False:
            object.__setattr__(copy, name, kept)
    return copy
