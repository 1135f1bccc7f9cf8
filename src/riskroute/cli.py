"""Command line front end.

Subcommands:

    generate   build an instance (and optionally its oracle) and write it out
    solve      compute equilibria for a serialized instance
    analyze    solve both equilibria and check cost-ratio bounds
    verify     check a recursive worst-case instance against its closed forms
    sweep      run seeded batches and emit a CSV of bound checks

Exit codes: 0 on success, 1 when a verification or bound check fails or a
solver does not converge, 2 on usage or input errors, an instance with more
paths than the mean-stdev solver enumerates (4,096) and a tolerance that is
not finite and >= 0 included.  Relative output
paths are resolved against $RISKROUTE_OUT_DIR when that variable is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from . import analysis, instances, serialization, synthetic
from .network import NetworkInstance, PathCapExceeded, RiskModel, with_risk_model
from .solver import EquilibriumResult, SolverConfig, solve_rawe, solve_rnwe

OUT_DIR_ENV = "RISKROUTE_OUT_DIR"

SWEEP_HEADER = "# riskroute sweep v1"
SWEEP_COLUMNS = ("instance_id", "n", "level", "gamma", "kappa", "eta", "mu",
                 "pra", "bound", "slack", "kind")

_BOUND_NAMES = {
    "eta": analysis.BoundKind.TOPOLOGICAL_ETA,
    "vertices": analysis.BoundKind.TOPOLOGICAL_VERTICES,
    "smooth": analysis.BoundKind.FUNCTIONAL_SMOOTH,
    "stdev0": analysis.BoundKind.STDEV_ZERO_ALT,
    "stdev1": analysis.BoundKind.STDEV_ONE_ALT,
}

_B = analysis.BoundKind
# sweep --what: each family's seeded generator and the bounds its rows check
_SWEEP_FAMILIES = {
    "affine": (synthetic.random_affine_instance,
               (_B.TOPOLOGICAL_ETA, _B.TOPOLOGICAL_VERTICES, _B.FUNCTIONAL_SMOOTH)),
    **{f"poly{d}": (lambda seed, d=d: synthetic.random_polynomial_instance(seed, d),
                    (_B.TOPOLOGICAL_ETA, _B.FUNCTIONAL_SMOOTH)) for d in (2, 3, 4)},
    "series-parallel": (synthetic.random_series_parallel_instance, (_B.STDEV_ZERO_ALT,)),
    "braess": (synthetic.random_braess_instance, (_B.STDEV_ONE_ALT,)),
    "domino": (synthetic.random_domino_instance, (_B.STDEV_ONE_ALT,)),
}

# generate --family, the recursive family aside: the instance from the
# parsed flags and the risk model
_GENERATORS = {
    "braess": lambda a, model: instances.build_braess(gamma=a.gamma_kappa, risk_model=model),
    "domino": lambda a, model: synthetic.random_domino_instance(a.seed, risk_model=model),
    "random-affine": lambda a, model: synthetic.random_affine_instance(a.seed, risk_model=model),
    "random-poly": lambda a, model: synthetic.random_polynomial_instance(
        a.seed, a.degree, risk_model=model),
    "series-parallel": lambda a, model: synthetic.random_series_parallel_instance(
        a.seed, risk_model=model),
}


def _resolve(path: str) -> str:
    """`path` under $RISKROUTE_OUT_DIR when that is set; an absolute `path` stays."""
    return os.path.join(os.environ.get(OUT_DIR_ENV, ""), path)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(_resolve(out), "w", encoding="utf-8") as fh:
            fh.write(text)


def _family_spec(args) -> instances.RecursiveFamilySpec:
    return instances.RecursiveFamilySpec(
        level=args.level, r_a=args.r_a, r_n=args.r_n,
        gamma_kappa=args.gamma_kappa, variant=instances.Variant(args.variant))


def _generate(args) -> int:
    # checked before anything is written, so a failed run leaves no instance
    if args.oracle_out and args.family != "recursive":
        print("error: --oracle-out is only available for --family recursive",
              file=sys.stderr)
        return 2
    model = RiskModel(args.risk_model)
    if args.family == "recursive":
        instance, oracle = instances.build_recursive(_family_spec(args))
        instance = with_risk_model(instance, model)
    else:
        instance = _GENERATORS[args.family](args, model)
    _emit(serialization.dumps_instance(instance), args.out)
    if args.oracle_out:
        metadata = {"family": args.family, "level": str(args.level), "variant": args.variant,
                    "r_a": repr(args.r_a), "r_n": repr(args.r_n),
                    "gamma_kappa": repr(args.gamma_kappa)}
        _emit(serialization.dumps_oracle(oracle, metadata), args.oracle_out)
    return 0


def _solve(args) -> int:
    cfg = SolverConfig(args.tolerance, args.max_iters)
    instance = serialization.read_instance(args.input)
    results: list[tuple[str, EquilibriumResult]] = []
    # risk-averse first, as in `_solve_pair`; the report lists rnwe first
    if args.mode in ("rawe", "both"):
        results.append(("rawe", solve_rawe(instance, cfg)))
    if args.mode in ("rnwe", "both"):
        results.insert(0, ("rnwe", solve_rnwe(instance, cfg)))
    status = 0
    for name, res in results:
        print(f"{name}: converged={res.converged} iterations={res.iterations} "
              f"common_cost={res.common_cost!r} vi_residual={res.vi_residual:.3e}")
        if not res.converged:
            status = 1
        if args.out:
            suffix = f".{name}.txt" if args.mode == "both" else ""
            serialization.write_result(_resolve(args.out) + suffix, res)
    return status


def _applies(report: analysis.BoundReport) -> bool:
    """Whether a report's bound applies: an inapplicable bound belongs to
    another graph class, so its violation fails nothing."""
    return "inapplicable" not in report.note


def _bound_row(instance: NetworkInstance, report: analysis.BoundReport,
               instance_id: str, level: int | None) -> list[str]:
    def fmt(v) -> str:
        if v is None:
            return ""
        if isinstance(v, float):
            return repr(v)
        return str(v)

    return [instance_id, str(instance.vertices),
            "" if level is None else str(level), repr(instance.gamma),
            fmt(report.kappa), fmt(report.eta), fmt(report.mu),
            fmt(report.pra_observed), fmt(report.bound_value),
            fmt(report.slack), report.bound_kind.value]


def _solve_pair(instance: NetworkInstance, cfg: SolverConfig,
                rn_demand: float | None = None) -> tuple[EquilibriumResult, EquilibriumResult] | None:
    """(rawe, rnwe) of `instance`, or None when either solve did not converge.

    The risk-neutral solve routes `rn_demand` when given, else the
    instance's demand.  The risk-averse solve runs first, so that an
    instance over the mean-stdev path cap fails at once, not after the
    risk-neutral solve.
    """
    rawe = solve_rawe(instance, cfg)
    neutral = instance if rn_demand is None else dataclasses.replace(instance, demand=rn_demand)
    rnwe = solve_rnwe(neutral, cfg)
    if not (rawe.converged and rnwe.converged):
        return None
    return rawe, rnwe


def _analyze(args) -> int:
    cfg = SolverConfig(args.tolerance, args.max_iters)
    instance = serialization.read_instance(args.input)
    pair = _solve_pair(instance, cfg)
    if pair is None:
        print("error: equilibrium solver did not converge", file=sys.stderr)
        return 1
    rawe, rnwe = pair
    kinds = list(_BOUND_NAMES.values()) if args.bound == "all" \
        else [_BOUND_NAMES[args.bound]]
    status = 0
    lines = []
    for rep in analysis.analyze(instance, rawe, rnwe, kinds).values():
        ok = "ok" if rep.satisfied else "VIOLATED"
        lines.append(f"{rep.bound_kind.value}: pra={rep.pra_observed:.9g} "
                     f"bound={rep.bound_value:.9g} slack={rep.slack:.3e} "
                     f"kappa={rep.kappa:.9g}"
                     + (f" eta={rep.eta}" if rep.eta is not None else "")
                     + (f" mu={rep.mu:.9g}" if rep.mu is not None else "")
                     + f" [{ok}]"
                     + (f" ({rep.note})" if rep.note else ""))
        if not rep.satisfied and _applies(rep):
            status = 1
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        _emit(text, args.out)
    return status


def _verify(args) -> int:
    cfg = SolverConfig(args.tolerance, args.max_iters)
    if not 0.0 <= args.pra_tolerance < math.inf:
        raise ValueError(f"--pra-tolerance must be finite and nonnegative, "
                         f"got {args.pra_tolerance}")
    spec = _family_spec(args)
    instance, oracle = instances.build_recursive(spec)
    report = instances.closed_form_check(instance, oracle)
    print(f"closed_form_check: {'pass' if report.passed else 'FAIL'}")
    for failure in report.failures:
        print(f"  {failure}")
    status = 0 if report.passed else 1
    if args.solve:
        if spec.r_n == 0.0:
            print("error: --solve needs --r-n > 0: with no risk-neutral demand "
                  "the cost ratio is undefined", file=sys.stderr)
            return 1
        pair = _solve_pair(instance, cfg, spec.r_n)
        if pair is None:
            print("error: equilibrium solver did not converge", file=sys.stderr)
            return 1
        rawe, rnwe = pair
        pra = analysis.compute_pra(instance, rawe, rnwe)
        rel = abs(pra - oracle.expected_pra) / max(1.0, abs(oracle.expected_pra))
        agree = rel <= args.pra_tolerance
        print(f"solver_pra: observed={pra:.9g} expected={oracle.expected_pra:.9g} "
              f"rel_err={rel:.3e} [{'pass' if agree else 'FAIL'}]")
        if not agree:
            status = 1
    return status


def _sweep_one(what: str, seed: int, cfg: SolverConfig):
    """(instance, bound reports) of one sweep instance, or None when a
    solve did not converge."""
    make, kinds = _SWEEP_FAMILIES[what]
    instance = make(seed)
    pair = _solve_pair(instance, cfg)
    if pair is None:
        return None
    rawe, rnwe = pair
    return instance, list(analysis.analyze(instance, rawe, rnwe, kinds).values())


def _sweep(args) -> int:
    cfg = SolverConfig(args.tolerance, args.max_iters)
    status = 0
    rows = []
    checked: list[tuple[str, analysis.BoundReport]] = []
    for seed in range(args.seed, args.seed + args.count):
        got = _sweep_one(args.what, seed, cfg)
        if got is None:
            print(f"error: {args.what}-{seed} did not converge", file=sys.stderr)
            status = 1
            continue
        instance, reports = got
        for rep in reports:
            rows.append(_bound_row(instance, rep, f"{args.what}-{seed}", None))
            if _applies(rep):
                checked.append((f"{args.what}-{seed}/{rep.bound_kind.value}", rep))
    lines = [SWEEP_HEADER, ",".join(SWEEP_COLUMNS)]
    lines.extend(",".join(row) for row in rows)
    _emit("\n".join(lines) + "\n", args.out)

    # violations and the tightest row among the bounds that apply
    violations = []
    best_ratio, best_id = -math.inf, ""
    for name, rep in checked:
        pra, bound = rep.pra_observed, rep.bound_value
        ratio = pra / bound if math.isfinite(bound) and bound > 0 else 0.0
        if ratio > best_ratio:
            best_ratio, best_id = ratio, name
        if pra > bound + 1e-5:
            violations.append(f"{name}: pra={pra!r} > bound={bound!r}")
    if checked:
        print(f"tightest instance: {best_id} ratio={best_ratio:.9g}", file=sys.stderr)
    for v in violations:
        print(f"violation: {v}", file=sys.stderr)
    return 1 if violations else status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskroute",
        description="Wardrop equilibria under risk aversion and certified "
                    "bounds on the induced cost ratio.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tolerance", type=float, default=SolverConfig.tolerance,
                       help="solver convergence tolerance (relative)")
        p.add_argument("--max-iters", type=int, default=SolverConfig.max_iterations,
                       help="iteration cap per solve")

    def add_family(p, **level):
        p.add_argument("--level", type=int, **level,
                       help="recursion depth of the recursive family")
        p.add_argument("--variant", choices=["structural", "functional"],
                       default="structural")
        p.add_argument("--gamma-kappa", type=float, default=1.0,
                       help="target gamma*kappa of the built instance")
        p.add_argument("--r-a", type=float, default=1.0,
                       help="risk-averse demand of the recursive family")
        p.add_argument("--r-n", type=float, default=1.0,
                       help="risk-neutral demand of the recursive family")

    gen = sub.add_parser("generate", help="build and serialize an instance")
    gen.add_argument("--family", required=True, choices=["recursive", *_GENERATORS])
    add_family(gen, default=1)
    gen.add_argument("--risk-model", choices=["mean-var", "mean-stdev"],
                     default="mean-var")
    gen.add_argument("--degree", type=int, default=2,
                     help="latency degree for --family random-poly")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="instance file (stdout when omitted)")
    gen.add_argument("--oracle-out", help="oracle sidecar file (recursive only)")
    gen.set_defaults(func=_generate)

    sol = sub.add_parser("solve", help="solve a serialized instance")
    sol.add_argument("--in", dest="input", required=True)
    sol.add_argument("--mode", choices=["rawe", "rnwe", "both"], default="both")
    sol.add_argument("--out", help="result file; mode both appends .rawe.txt/.rnwe.txt")
    add_common(sol)
    sol.set_defaults(func=_solve)

    ana = sub.add_parser("analyze", help="check cost-ratio bounds on an instance")
    ana.add_argument("--in", dest="input", required=True)
    ana.add_argument("--bound", choices=sorted(_BOUND_NAMES) + ["all"],
                     default="all")
    ana.add_argument("--out", help="also write the report to this file")
    add_common(ana)
    ana.set_defaults(func=_analyze)

    ver = sub.add_parser("verify",
                         help="closed-form checks for the recursive family")
    add_family(ver, required=True)
    ver.add_argument("--solve", action="store_true",
                     help="also solve numerically and compare the cost ratio")
    ver.add_argument("--pra-tolerance", type=float, default=1e-5,
                     help="relative tolerance for --solve")
    add_common(ver)
    ver.set_defaults(func=_verify)

    swp = sub.add_parser("sweep", help="seeded batch of bound checks as CSV")
    swp.add_argument("--what", required=True, choices=list(_SWEEP_FAMILIES))
    swp.add_argument("--count", type=int, default=20)
    swp.add_argument("--seed", type=int, default=0, help="first seed of the batch")
    swp.add_argument("--out", help="CSV file (stdout when omitted)")
    add_common(swp)
    swp.set_defaults(func=_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (serialization.FormatError, OSError, ValueError, PathCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
