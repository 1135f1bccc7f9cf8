"""riskroute benchmark: one workload, timed end to end or traced per layer.

    python3 riskbench/run.py --workload family-meanvar --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy.  Workloads, checks and the
reasons behind them are in `riskbench/workloads.py` and
`riskbench/README.md`.

--trace 0 runs every instance of the workload once and then keeps
re-running them, the short ones more often, for about --seconds seconds,
and prints the end-to-end metrics.  Their times are at reference
speed (`riskbench/speed.py`): each measured interval is scaled by how fast
a fixed reference kernel, sampled alongside, ran around it, which cancels
the drift of a shared host.  The wall-clock values are printed beside them.
--trace 1 runs one plain pass and then the same pass with `tracer.Tracer`
installed, prints the per-layer metrics of the traced pass (wall clock),
and writes its spans to `riskbench/out/`.  Either way the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import os

# Single-threaded numerics, set before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402  (standard library only; beside this file)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 0        # seed of the recorded baseline
HELDOUT_SEED = 1510     # kept out of tuning; confirm claimed gains on it too

DEFAULT_SECONDS = 30.0
SETUP_REPEATS = 7
# The tail is nearest-rank (never an average of two samples), so it reports
# one instance's time.
TAIL_BEYOND = 10        # the tail is the highest percentile with 10 samples beyond it


def _import_package():
    """Import riskroute from this checkout's src/ and the workload module."""
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import riskroute
    if not Path(riskroute.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"riskroute imported from {riskroute.__file__}, not {SRC}")
    import workloads
    return workloads


def _setup_once(workload: str, seed: int) -> tuple[float, float]:
    """Import plus building every instance and oracle: (seconds at
    reference speed, wall seconds)."""
    clock = time.perf_counter
    with speed.SpeedSampler() as sampler:
        t0 = clock()
        _import_package().build(workload, seed)
        t1 = clock()
    return sampler.work(t0, t1), t1 - t0


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Time the set-up in fresh interpreters, so each sample pays the import:
    (seconds at reference speed, wall seconds), one of each per interpreter."""
    work, wall = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        sample = out.stdout.split()
        work.append(float(sample[-2]))
        wall.append(float(sample[-1]))
    return work, wall


def warm_up(workloads, cases) -> None:
    """Run the smallest case once, so that lazy imports are done."""
    workloads.run_case(min(cases, key=lambda case: len(case.instance.edges)))


@contextlib.contextmanager
def frozen_heap():
    """Keep the objects alive so far, the built cases among them, out of
    every garbage collection while timing.  They are never garbage, and
    scanning a thousand stored instances would put a collection pause of
    the benchmark's own making into whichever instance triggers it."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def run_pass(workloads, cases, tracer=None):
    """One pass: ((start, end), [(start, end) per instance], {failed case:
    reasons}), times from time.perf_counter."""
    spans, failures = [], {}
    clock = time.perf_counter
    start = clock()
    for case in cases:
        t0 = clock()
        if tracer is None:
            problems = workloads.run_case(case)
        else:
            with tracer.instance(case.name):
                problems = workloads.run_case(case)
        spans.append((t0, clock()))
        if problems:
            failures[case.name] = problems
    return (start, clock()), spans, failures


def tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[rank - 1], 100.0 * rank / n


def provenance(workload: str, seed: int, runs: int, trace: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "riskroute").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"workload": workload, "seed": seed, "instance_runs": runs, "trace": trace,
            "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED,
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit,
            "src_sha256": digest.hexdigest(),
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                   "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")}}


def end_to_end(runs, attempted, failed, setup):
    """The untraced metrics, each with the detail printed beside it.

    `runs` holds per instance (reference-speed seconds, wall seconds) lists,
    one entry per time it ran; `setup` is (reference-speed, wall) samples of
    the set-up.  An instance's time is its mean over its runs, a pass is the
    sum of those means, and the percentiles are taken over instances, so
    they fall on the same instance whatever the number of runs."""
    work_ms = [statistics.fmean(work) * 1e3 for work, _ in runs]
    wall_ms = [statistics.fmean(wall) * 1e3 for _, wall in runs]
    tail_ms, tail_pct = tail(work_ms)
    n_runs = sum(len(work) for work, _ in runs)
    setup_work, setup_wall = setup
    rows = {
        "pass_s": (math.fsum(work_ms) / 1e3, "s",
                   f"sum of {len(runs)} instance means over {n_runs} runs; "
                   f"wall {math.fsum(wall_ms) / 1e3:.4f}"),
        "instance_p50_ms": (statistics.median(work_ms), "ms",
                            f"median of {len(runs)} instances; "
                            f"wall {statistics.median(wall_ms):.4f}"),
        "instance_tail_ms": (tail_ms, "ms",
                             f"p{tail_pct:.2f} of {len(runs)} instances; "
                             f"wall {tail(wall_ms)[0]:.4f}"),
        "passed_frac": (1.0 - failed / attempted, "frac",
                        f"failed_frac {failed / attempted:.6g} "
                        f"({failed} of {attempted})"),
        "setup_s": (statistics.median(setup_work), "s",
                    f"median of {len(setup_work)} fresh-interpreter set-ups; "
                    f"wall {statistics.median(setup_wall):.4f}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", "peak resident set of this process"),
    }
    return rows


def per_layer(tracer, setup_tracer, traced_pass_s, untraced_pass_s):
    """The traced metrics of one pass, named layer.quantity."""
    c = tracer.counts
    iterations = c["solver.rnwe.iterations"] + c["solver.rawe.iterations"]
    solver_self = tracer.self_s["solver"]
    rawe_busy = tracer.time("solver.solve_rawe_meanvar") \
        + tracer.time("solver.solve_rawe_meanstdev")
    builds = sum(v[1] for k, v in setup_tracer.calls.items()
                 if k.startswith("instances.build_"))
    rows = {
        "functions.evals": (tracer.count("functions.__call__"), "count"),
        "functions.knot_queries": (tracer.count("functions.knots_between"), "count"),
        "functions.self_s": (tracer.self_s["functions"], "s"),
        "solver.rnwe.iterations": (int(c["solver.rnwe.iterations"]), "count"),
        "solver.rawe.iterations": (int(c["solver.rawe.iterations"]), "count"),
        "solver.rnwe.busy_s": (tracer.time("solver.solve_rnwe"), "s"),
        "solver.rawe.busy_s": (rawe_busy, "s"),
        "solver.self_s": (solver_self, "s"),
        "solver.self_us_per_iteration": (
            solver_self / iterations * 1e6 if iterations else 0.0, "us"),
        "solver.nonconverged": (int(c["solver.nonconverged"]), "count"),
        "solver.residual_max": (tracer.residual_max, "rel"),
        "network.path_cost_calls": (tracer.count("network.path_cost"), "count"),
        "network.paths_enumerated": (int(c["network.paths_enumerated"]), "count"),
        "network.self_s": (tracer.self_s["network"], "s"),
        "analysis.busy_s": (tracer.busy_s["analysis"], "s"),
        "analysis.pra_evals": (tracer.count("analysis.compute_pra"), "count"),
        "analysis.eta_searches": (tracer.count("analysis.find_alternating_path"),
                                  "count"),
        "analysis.mu_evals": (tracer.count("analysis.estimate_smoothness_mu"),
                              "count"),
        "analysis.min_slack": (tracer.min_slack if math.isfinite(tracer.min_slack)
                               else 0.0, "ratio"),
        "serialization.busy_s": (tracer.busy_s["serialization"], "s"),
        "serialization.bytes": (int(c["serialization.bytes"]), "bytes"),
        "instances.build_s": (builds, "s"),
        "instances.check_s": (tracer.time("instances.closed_form_check"), "s"),
        "synthetic.gen_s": (setup_tracer.busy_s["synthetic"], "s"),
        "trace.overhead_frac": (traced_pass_s / untraced_pass_s - 1.0, "frac"),
    }
    return rows


def run_levelled(workloads, cases, seconds):
    """One pass over `cases`, then further runs while the next run is
    expected to end within `seconds` of the start.  Each next run goes to
    the case with the fewest runs weighted by the square root of its mean
    time, so a case runs about in inverse proportion to the square root of
    its time: the short instances that set the median run many times, and
    the slowest of a thousand sweep instances still more than once.
    Returns per case (start, end) spans from time.perf_counter, and (case
    index, reasons) per run that failed."""
    clock = time.perf_counter
    spans = [[] for _ in cases]
    spent = [0.0] * len(cases)
    failures = []

    def run(i):
        t0 = clock()
        problems = workloads.run_case(cases[i])
        t1 = clock()
        spans[i].append((t0, t1))
        spent[i] += t1 - t0
        if problems:
            failures.append((i, problems))
        n = len(spans[i])
        return n * math.sqrt(spent[i] / n)

    start = clock()
    queue = [(run(i), i) for i in range(len(cases))]
    heapq.heapify(queue)
    while True:
        i = queue[0][1]
        if clock() - start + spent[i] / len(spans[i]) > seconds:
            return spans, failures
        heapq.heapreplace(queue, (run(i), i))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            span_path=None, **size):
    """Run one workload; return (rows, attempted, failed, failure messages).

    Untraced, `run_levelled` for `seconds`, timed at reference speed.
    Traced, one plain and one traced pass.  `size` shrinks the workload
    (see workloads.build) for the self-test."""
    workloads = _import_package()

    if not trace:
        cases = workloads.build(workload, seed, **size)
        warm_up(workloads, cases)
        with frozen_heap(), speed.SpeedSampler() as sampler:
            spans, failures = run_levelled(workloads, cases, seconds)
        runs = [([sampler.work(a, b) for a, b in case_spans],
                 [b - a for a, b in case_spans]) for case_spans in spans]
        attempted = sum(len(case_spans) for case_spans in spans)
        messages = [f"{cases[i].name}: {'; '.join(reasons)}"
                    for i, reasons in failures]
        rows = end_to_end(runs, attempted, len(failures),
                          setup_seconds(workload, seed))
        return rows, attempted, len(failures), messages

    attempted = failed = 0
    messages = []

    def account(result, n_cases):
        nonlocal attempted, failed
        bounds, _, failures = result
        attempted += n_cases
        failed += len(failures)
        messages.extend(f"{name}: {'; '.join(reasons)}"
                        for name, reasons in failures.items())
        return bounds

    import tracer as tracing

    setup_tracer = tracing.Tracer()
    setup_tracer.install()
    try:
        cases = workloads.build(workload, seed, **size)
    finally:
        setup_tracer.uninstall()
    warm_up(workloads, cases)
    with frozen_heap():
        a, b = account(run_pass(workloads, cases), len(cases))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            c, d = account(run_pass(workloads, cases, tracer), len(cases))
        finally:
            tracer.uninstall()
    if span_path is not None:
        tracer.write_spans(span_path)
    rows = per_layer(tracer, setup_tracer, d - c, b - a)
    return rows, attempted, failed, messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:                 # times the import, so comes first
        print(*_setup_once(args.workload, args.seed))
        return 0
    try:
        workloads = _import_package()
    except ImportError as exc:
        print(f"error: cannot import riskroute from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    span_path = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        span_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    rows, attempted, failed, messages = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), span_path)

    print(json.dumps({"provenance": provenance(args.workload, args.seed,
                                               attempted, args.trace)}))
    for message in messages[:20]:
        print(f"FAILED {message}")
    for name, row in rows.items():
        detail = f"  ({row[2]})" if len(row) > 2 else ""
        print(f"{name:30s} {row[0]!r:>24} {row[1]}{detail}")
    if span_path is not None:
        print(f"spans written to {span_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": row[0], "unit": row[1]}
                                  for name, row in rows.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
