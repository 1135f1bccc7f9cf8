"""Seeded random instance generators for sweeps and cross-checks.

Every generator takes an integer seed, builds a fresh numpy Generator from
it and derives all structure and coefficients from that, so a seed pins the
instance exactly.  Conventions shared by all generators:

  - latency intercepts stay >= 0.1 so variability-to-mean ratios are finite,
  - slopes are strictly positive wherever uniqueness matters,
  - at least one edge always carries positive variability, otherwise the
    risk-averse and risk-neutral equilibria coincide and there is nothing
    to measure.

The topology pool covers parallel links, the Braess graph and small random
layered DAGs.  Series-parallel instances are grown from a random
composition tree (series and parallel joins of single edges); they and the
reweighted Braess / domino-with-ears graphs are the raw material for the
mean-stdev bound sweeps.

Every continuous draw goes through `_uniform`, which reads the same stream
as `rng.uniform` and returns the same floats, without `rng.uniform`'s
per-call argument handling.  The order of the draws is part of what a seed
means: reordering two draws, or drawing a block of doubles ahead, changes
every instance that follows.
"""

from __future__ import annotations

import itertools

import numpy as np

from .functions import Affine, Constant, Polynomial
from .instances import build_braess, build_domino_with_ears
from .network import Edge, NetworkInstance, RiskModel

TOPOLOGIES = ("parallel", "braess", "layered")

_MIN_INTERCEPT = 0.1

# the Braess and domino-with-ears layouts; each random instance on them
# replaces all of their edges' functions
_BRAESS = build_braess()
_DOMINO = build_domino_with_ears()


def _uniform(rng, low: float, high: float) -> float:
    """`float(rng.uniform(low, high))`, bit for bit and at the same stream
    position: numpy computes low + (high - low) * u from one `rng.random()`
    double u."""
    return low + (high - low) * rng.random()


def _affine(rng) -> Affine:
    return Affine(slope=_uniform(rng, 0.05, 1.5),
                  intercept=_uniform(rng, _MIN_INTERCEPT, 1.5))


def _polynomial(rng, degree: int) -> Polynomial:
    coeffs = [_uniform(rng, _MIN_INTERCEPT, 1.0)]
    for _ in range(degree - 1):
        coeffs.append(0.0 if rng.random() < 0.5 else _uniform(rng, 0.0, 0.5))
    coeffs.append(_uniform(rng, 0.1, 1.0))
    return Polynomial(tuple(coeffs))


def _variability(rng, force: bool = False):
    """Variance function: mostly constants, sometimes flow-dependent."""
    u = 0.0 if force else rng.random()
    if u < 0.55:
        return Constant(_uniform(rng, 0.05, 1.5))
    if u < 0.75:
        return Affine(slope=_uniform(rng, 0.05, 0.6),
                      intercept=_uniform(rng, 0.0, 0.5))
    return Constant(0.0)


def _ensure_risky(rng, variabilities: list) -> list:
    if all(isinstance(v, Constant) and v.value == 0.0 for v in variabilities):
        variabilities[int(rng.integers(len(variabilities)))] = Constant(
            _uniform(rng, 0.2, 1.5))
    return variabilities


def _parallel_arcs(rng) -> tuple[int, list[tuple[int, int]]]:
    m = int(rng.integers(2, 6))
    return 2, [(0, 1)] * m


def _braess_arcs() -> tuple[int, list[tuple[int, int]]]:
    return _BRAESS.vertices, [(e.tail, e.head) for e in _BRAESS.edges]


def _layered_arcs(rng) -> tuple[int, list[tuple[int, int]]]:
    """Random DAG with one or two internal layers, sink last.

    A spine path through the first vertex of every layer guarantees
    connectivity; every other cross-layer arc appears with probability
    0.6, after which dead ends are repaired.
    """
    widths = [int(rng.integers(2, 4))]
    if rng.random() < 0.5:
        widths.append(int(rng.integers(2, 4)))
    layers: list[list[int]] = [[0]]
    nxt = 1
    for w in widths:
        layers.append(list(range(nxt, nxt + w)))
        nxt += w
    layers.append([nxt])
    arcs: set[tuple[int, int]] = set()
    for left, right in zip(layers, layers[1:]):
        arcs.add((left[0], right[0]))
        for u in left:
            for v in right:
                if rng.random() < 0.6:
                    arcs.add((u, v))
        for u in left:
            if not any(a == u for a, _ in arcs):
                arcs.add((u, right[int(rng.integers(len(right)))]))
        for v in right:
            if not any(b == v for _, b in arcs):
                arcs.add((left[int(rng.integers(len(left)))], v))
    return nxt + 1, sorted(arcs)


def _pick_topology(rng, topology: str | None) -> tuple[int, list[tuple[int, int]]]:
    if topology is None:
        topology = TOPOLOGIES[int(rng.integers(len(TOPOLOGIES)))]
    if topology == "parallel":
        return _parallel_arcs(rng)
    if topology == "braess":
        return _braess_arcs()
    if topology == "layered":
        return _layered_arcs(rng)
    raise ValueError(f"unknown topology {topology!r}; expected one of {TOPOLOGIES}")


def _assemble(rng, vertices: int, arcs, latencies, risk_model) -> NetworkInstance:
    variabilities = _ensure_risky(rng, [_variability(rng) for _ in arcs])
    edges = tuple(Edge(u, v, lat, var)
                  for (u, v), lat, var in zip(arcs, latencies, variabilities))
    demand = _uniform(rng, 0.5, 2.0)
    gamma = _uniform(rng, 0.25, 2.0)
    return NetworkInstance(vertices, edges, 0, vertices - 1, demand, gamma,
                           risk_model)


def random_affine_instance(seed: int, topology: str | None = None,
                           risk_model: RiskModel = RiskModel.MEAN_VAR
                           ) -> NetworkInstance:
    """Random instance with affine mean latencies over the topology pool."""
    rng = np.random.default_rng(seed)
    vertices, arcs = _pick_topology(rng, topology)
    return _assemble(rng, vertices, arcs, [_affine(rng) for _ in arcs], risk_model)


def random_polynomial_instance(seed: int, degree: int,
                               topology: str | None = None,
                               risk_model: RiskModel = RiskModel.MEAN_VAR
                               ) -> NetworkInstance:
    """Random instance whose mean latencies all have the given degree."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    rng = np.random.default_rng(seed)
    vertices, arcs = _pick_topology(rng, topology)
    return _assemble(rng, vertices, arcs,
                     [_polynomial(rng, degree) for _ in arcs], risk_model)


def _sp_tree(rng, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return ("leaf",)
    op = "series" if rng.random() < 0.5 else "parallel"
    return (op, _sp_tree(rng, depth - 1), _sp_tree(rng, depth - 1))


def _sp_arcs(tree, s: int, t: int, alloc, arcs: list) -> None:
    kind = tree[0]
    if kind == "leaf":
        arcs.append((s, t))
    elif kind == "series":
        mid = next(alloc)
        _sp_arcs(tree[1], s, mid, alloc, arcs)
        _sp_arcs(tree[2], mid, t, alloc, arcs)
    else:
        _sp_arcs(tree[1], s, t, alloc, arcs)
        _sp_arcs(tree[2], s, t, alloc, arcs)


def random_series_parallel_instance(seed: int,
                                    risk_model: RiskModel = RiskModel.MEAN_STDEV
                                    ) -> NetworkInstance:
    """Random series-parallel network grown from a composition tree.

    The tree is at most 3 levels deep.  Source is vertex 0 and sink
    vertex 1; series joins allocate fresh
    middle vertices.  Degenerate single-edge trees are widened to a
    two-link parallel so there is always a routing choice.
    """
    rng = np.random.default_rng(seed)
    tree = _sp_tree(rng, 3)
    if tree[0] == "leaf":
        tree = ("parallel", ("leaf",), ("leaf",))
    arcs: list[tuple[int, int]] = []
    alloc = itertools.count(2)
    _sp_arcs(tree, 0, 1, alloc, arcs)
    vertices = max(itertools.chain.from_iterable(arcs)) + 1
    variabilities = _ensure_risky(rng, [_variability(rng) for _ in arcs])
    edges = tuple(Edge(u, v, _affine(rng), var)
                  for (u, v), var in zip(arcs, variabilities))
    demand = _uniform(rng, 0.5, 2.0)
    gamma = _uniform(rng, 0.25, 2.0)
    return NetworkInstance(vertices, edges, 0, 1, demand, gamma, risk_model)


def random_braess_instance(seed: int,
                           risk_model: RiskModel = RiskModel.MEAN_STDEV
                           ) -> NetworkInstance:
    """Braess graph with random affine means; the upper-right and
    lower-left edges always carry variability, the rest sometimes do."""
    rng = np.random.default_rng(seed)
    functions = []
    for eid in range(5):
        risky = eid in (1, 2)
        var = _variability(rng, force=risky) if risky or rng.random() < 0.3 \
            else Constant(0.0)
        functions.append((_affine(rng), var))
    return build_braess(edge_functions=functions,
                        demand=_uniform(rng, 0.5, 2.0),
                        gamma=_uniform(rng, 0.25, 2.0),
                        risk_model=risk_model)


def random_domino_instance(seed: int,
                           risk_model: RiskModel = RiskModel.MEAN_STDEV
                           ) -> NetworkInstance:
    """Domino-with-ears graph with random affine means and sprinkled
    variability (at least one risky edge)."""
    rng = np.random.default_rng(seed)
    demand = _uniform(rng, 0.5, 2.0)
    gamma = _uniform(rng, 0.25, 2.0)
    variabilities = _ensure_risky(
        rng, [_variability(rng) if rng.random() < 0.5 else Constant(0.0)
              for _ in _DOMINO.edges])
    edges = tuple(Edge(e.tail, e.head, _affine(rng), var)
                  for e, var in zip(_DOMINO.edges, variabilities))
    return NetworkInstance(_DOMINO.vertices, edges, _DOMINO.source, _DOMINO.sink,
                           demand, gamma, risk_model)
