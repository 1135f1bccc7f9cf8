"""References the tests compare the package against.

None of these is part of `riskroute`: the package holds what its command
line, its benchmark and its own modules call, and these only tests call.

- `brute_force_equilibrium`: an equilibrium by support enumeration, which
  shares no code with the iterative solvers.  It needs scipy, a test
  dependency only.
- `random_small_instance`: seeded instances of at most four paths, the
  brute-force pool.  It draws through `riskroute.synthetic`'s helpers, so
  a seed names the same instance as it did inside the package.
- `contracted_domino_matches_braess`: the check that the domino-with-ears
  graph has the Braess graph as a minor.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from riskroute.instances import build_braess, build_domino_with_ears
from riskroute.network import NetworkInstance, PathFlow, RiskModel, enumerate_paths, path_cost
from riskroute.solver import EquilibriumResult
from riskroute.synthetic import _affine, _assemble, _braess_arcs, _polynomial


def brute_force_equilibrium(instance: NetworkInstance) -> EquilibriumResult:
    """Reference equilibrium by support enumeration over the path set.

    Only for instances with at most four simple paths.  For every support of
    k paths it solves the equal-cost system on that support: the k - 1
    differences of consecutive path costs, in the amounts of the first
    k - 1 paths, the last taking the rest of the demand.  The solve is
    scipy's `root` (method hybr, with its own finite-difference Jacobian),
    started from the even split; a one-path support needs none.  Of the
    candidates with no negative amount it keeps the one with the smallest
    equilibrium violation: used-path cost spread plus any amount by which
    an unused path undercuts the common cost.  Intentionally independent
    of the iterative solvers so the two can cross-check: every cost comes
    from `path_cost`.
    """
    from scipy.optimize import root

    paths = enumerate_paths(instance, cap=64)
    if len(paths) > 4:
        raise ValueError(f"brute force supports at most 4 paths, found {len(paths)}")
    demand = instance.demand
    n_paths = len(paths)
    incidence = np.zeros((n_paths, len(instance.edges)))
    for i, p in enumerate(paths):
        incidence[i, list(p)] = 1.0

    def costs(amounts: np.ndarray) -> np.ndarray:
        flow = incidence.T @ amounts
        return np.array([path_cost(instance, p, flow) for p in paths])

    if demand == 0.0:
        amounts = np.zeros(n_paths)
    else:
        best_viol = math.inf
        for size in range(1, n_paths + 1):
            for support in itertools.combinations(range(n_paths), size):
                idx = list(support)

                def split(theta: np.ndarray) -> np.ndarray:
                    cand = np.zeros(n_paths)
                    cand[idx[:-1]] = theta
                    cand[idx[-1]] = demand - theta.sum()
                    return cand

                theta = np.full(size - 1, demand / size)
                if size > 1:
                    theta = root(lambda th: np.diff(costs(split(th))[idx]), theta,
                                 method="hybr", tol=1e-14).x
                cand = split(theta)
                q = costs(cand)
                lam = q[idx].max()
                viol = lam - q[idx].min() + np.maximum(lam - np.delete(q, idx), 0.0).sum()
                if viol < best_viol and (cand >= 0.0).all():
                    amounts, best_viol = cand, viol

    flow = incidence.T @ amounts
    q = costs(amounts)
    used_cut = 1e-9 * demand
    used = np.flatnonzero(amounts > used_cut)
    common = float(q[used].min()) if len(used) else float(q.min()) if n_paths else 0.0
    gap = float(q[used].max() - q.min()) if len(used) else 0.0
    total = float(amounts @ q)
    residual = max(total - demand * float(q.min()), 0.0) / total if total > 0.0 else 0.0
    pf = PathFlow.of(sorted((paths[i], float(a)) for i, a in enumerate(amounts) if a > used_cut))
    scale = min(1.0, common) if common > 0.0 else 1.0
    return EquilibriumResult(np.asarray(flow), pf, common, residual, 0,
                             gap <= 1e-6 * scale)


def random_small_instance(seed: int) -> NetworkInstance:
    """Instance with at most four source-sink paths, for brute-force
    cross-checks.  Mixes parallel-link and Braess topologies, affine and
    quadratic latencies, and both risk models."""
    rng = np.random.default_rng(seed)
    risk_model = RiskModel.MEAN_VAR if rng.random() < 0.5 else RiskModel.MEAN_STDEV
    if rng.random() < 0.5:
        m = int(rng.integers(2, 5))
        vertices, arcs = 2, [(0, 1)] * m
    else:
        vertices, arcs = _braess_arcs()
    if rng.random() < 0.3:
        latencies = [_polynomial(rng, 2) for _ in arcs]
    else:
        latencies = [_affine(rng) for _ in arcs]
    return _assemble(rng, vertices, arcs, latencies, risk_model)


# Domino-with-ears vertex layout: bottom row 0,1,2 then top row 3,4,5;
# source 0 (bottom left), sink 5 (top right).
DOMINO_EAR_EDGE_IDS = (7, 8)
DOMINO_CONTRACT_EDGE_IDS = (4, 6)  # lower-left and upper-right rung


def contracted_domino_matches_braess() -> bool:
    """Self-test: contracting the outer rungs of the domino-with-ears graph
    (and deleting the collapsed ear images) reproduces the Braess topology.
    """
    domino = build_domino_with_ears()
    merge = {}
    for eid in DOMINO_CONTRACT_EDGE_IDS:
        e = domino.edges[eid]
        merge[e.head] = e.tail
    def rep(v: int) -> int:
        while v in merge:
            v = merge[v]
        return v
    contracted = []
    for eid, e in enumerate(domino.edges):
        if eid in DOMINO_CONTRACT_EDGE_IDS:
            continue
        tail, head = rep(e.tail), rep(e.head)
        if eid in DOMINO_EAR_EDGE_IDS:
            # the ears collapse onto direct source->sink arcs; deleting them
            # is the remaining minor operation
            continue
        contracted.append((tail, head))
    braess = build_braess()
    # the middle rung points bottom->top, so the domino's bottom-mid vertex
    # plays the tail of the Braess crossing and top-mid its head
    relabel = {rep(domino.source): braess.source, rep(domino.sink): braess.sink,
               1: 1, 4: 2}
    got = sorted((relabel[a], relabel[b]) for a, b in contracted)
    want = sorted((e.tail, e.head) for e in braess.edges)
    return got == want
