"""Benchmark inputs and the per-instance operation with its output checks.

A workload is a fixed list of cases, run in an order drawn from the
benchmark seed; the package only ever sees the built instances.  One case
is one operation, the work a CLI job does for one instance: serialise and
reload the instance, solve both equilibria on the reloaded copy, check the
results, and serialise (and reload) both results.

The checks follow the CLI jobs each workload stands for:

  family-*   `verify --solve` and `analyze --bound all`: PRA within 1e-5
             (relative) of the closed-form oracle, `closed_form_check`
             passes, and every applicable bound satisfied by
             `check_bound`'s own verdict.
  sweep-mix  `sweep`: every applicable bound satisfied by the sweep rule
             pra <= bound + 1e-5.

Everywhere a case also fails when a call raises, a solve does not
converge, or a serialisation round trip changes the value.  A bound whose
report is marked inapplicable belongs to another graph class and never
fails a case, as in `analyze`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from riskroute import analysis, instances, network, serialization, solver, synthetic

WORKLOADS = ("family-meanvar", "family-meanstdev", "sweep-mix")

# Recursive-family depths.  Levels 6-7 are left out: a level-6 mean-var
# solve takes about 80 s.
FAMILY_LEVELS = (1, 2, 3, 4, 5)
# The family is built at the CLI default gamma*kappa, not drawn from the
# seed.  Iteration counts jump erratically with gamma*kappa (level-3
# structural mean-var: 1367 iterations at 1.0, 639 at 1.0000000000000002),
# so with one instance per level and variant a drawn value made passes of
# one seed take 2.5 times as long as another's.
GAMMA_KAPPA = 1.0

# Generator seeds of each sweep family: the batch `sweep --seed 0 --count
# 200` runs.  The batch is the same on every benchmark seed.  The cost of a
# 200-seed window is heavy-tailed across windows: a few series-parallel
# generator seeds (615, 1090, 878) take 1.6-8.4 s each against about 1 ms
# typically, so windows starting between 0 and 1600 took 5.2-14.2 s per
# pass, and a seeded window made pass_s a property of the window.
SWEEP_FIRST = 0
SWEEP_COUNT = 200

PRA_REL_TOL = 1e-5      # `verify --pra-tolerance` default
SWEEP_SLACK = 1e-5      # `sweep` counts pra > bound + 1e-5 as a violation

ALL_BOUNDS = tuple(analysis.BoundKind)
_B = analysis.BoundKind
# (family, generator, bound kinds) as in `sweep`; generators are looked up
# at call time so that a traced run sees them.
SWEEP_FAMILIES = (
    ("affine", lambda seed: synthetic.random_affine_instance(seed),
     (_B.TOPOLOGICAL_ETA, _B.TOPOLOGICAL_VERTICES, _B.FUNCTIONAL_SMOOTH)),
    ("poly3", lambda seed: synthetic.random_polynomial_instance(seed, 3),
     (_B.TOPOLOGICAL_ETA, _B.FUNCTIONAL_SMOOTH)),
    ("series-parallel", lambda seed: synthetic.random_series_parallel_instance(seed),
     (_B.STDEV_ZERO_ALT,)),
    ("braess", lambda seed: synthetic.random_braess_instance(seed),
     (_B.STDEV_ONE_ALT,)),
    ("domino", lambda seed: synthetic.random_domino_instance(seed),
     (_B.STDEV_ONE_ALT,)),
)

CONFIG = solver.SolverConfig()   # the CLI defaults: tolerance 1e-8, 100k iterations


@dataclass(frozen=True)
class Case:
    """One instance of a workload and what its outputs are checked against."""

    name: str
    instance: network.NetworkInstance
    kinds: tuple[analysis.BoundKind, ...]
    oracle: instances.OracleFlows | None = None   # family cases only


def build(workload: str, seed: int, levels=FAMILY_LEVELS,
          sweep_count: int = SWEEP_COUNT) -> list[Case]:
    """All cases of `workload`, in an order drawn from `seed`."""
    if workload in ("family-meanvar", "family-meanstdev"):
        cases = _family(levels, workload == "family-meanstdev")
    elif workload == "sweep-mix":
        cases = _sweep(SWEEP_FIRST, sweep_count)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    random.Random(seed).shuffle(cases)
    return cases


def _family(levels, meanstdev: bool) -> list[Case]:
    cases = []
    for variant in (instances.Variant.STRUCTURAL, instances.Variant.FUNCTIONAL):
        for level in levels:
            spec = instances.RecursiveFamilySpec(level=level, gamma_kappa=GAMMA_KAPPA,
                                                 variant=variant)
            instance, oracle = instances.build_recursive(spec)
            if meanstdev:
                instance = network.with_risk_model(instance,
                                                   network.RiskModel.MEAN_STDEV)
            cases.append(Case(f"{variant.value}-{level}", instance, ALL_BOUNDS, oracle))
    return cases


def _sweep(seed: int, count: int) -> list[Case]:
    return [Case(f"{what}-{s}", make(s), kinds)
            for what, make, kinds in SWEEP_FAMILIES
            for s in range(seed, seed + count)]


def _same_result(a: solver.EquilibriumResult, b: solver.EquilibriumResult) -> bool:
    return (np.array_equal(a.flow, b.flow) and a.path_flow == b.path_flow
            and a.common_cost == b.common_cost and a.vi_residual == b.vi_residual
            and a.iterations == b.iterations and a.converged == b.converged)


def run_case(case: Case) -> list[str]:
    """Run one operation; return why it failed (empty when it passed)."""
    try:
        return _run_case(case)
    except Exception as exc:  # noqa: BLE001 - a raising call fails the case
        return [f"raised {type(exc).__name__}: {exc}"]


def _run_case(case: Case) -> list[str]:
    failures = []
    instance = serialization.loads_instance(serialization.dumps_instance(case.instance))
    if instance != case.instance:
        failures.append("instance changed in its serialisation round trip")

    rnwe = solver.solve_rnwe(instance, CONFIG)
    if instance.risk_model is network.RiskModel.MEAN_VAR:
        rawe = solver.solve_rawe_meanvar(instance, CONFIG)
    else:
        rawe = solver.solve_rawe_meanstdev(instance, CONFIG)
    for label, result in (("rnwe", rnwe), ("rawe", rawe)):
        if not result.converged:
            failures.append(f"{label} did not converge")
        reloaded = serialization.loads_result(serialization.dumps_result(result))
        if not _same_result(reloaded, result):
            failures.append(f"{label} changed in its serialisation round trip")

    if case.oracle is not None:
        pra = analysis.compute_pra(instance, rawe, rnwe)
        expected = case.oracle.expected_pra
        rel = abs(pra - expected) / max(1.0, abs(expected))
        if rel > PRA_REL_TOL:
            failures.append(f"pra {pra!r} is {rel:.2e} off the oracle {expected!r}")
        check = instances.closed_form_check(instance, case.oracle)
        failures.extend(f"closed_form_check: {f}" for f in check.failures)

    for kind in case.kinds:
        report = analysis.check_bound(instance, rawe, rnwe, kind)
        if case.oracle is not None:
            violated = not report.satisfied
        else:
            violated = report.pra_observed > report.bound_value + SWEEP_SLACK
        if violated and "inapplicable" not in report.note:
            failures.append(f"{kind.value} violated: pra={report.pra_observed!r} "
                            f"bound={report.bound_value!r}")
    return failures
