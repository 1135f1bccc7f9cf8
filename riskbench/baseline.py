"""Measure the baseline and write riskbench/baseline.json.

    python3 riskbench/baseline.py [--seeds 0-9] [--workloads a,b]

Runs run.py once per seed per workload with tracing off, and twice per
workload with tracing on at the default seed.  Records, per workload, the
median and quartiles of every end-to-end metric over the seeds (with the
spread as a share of the median next to a third of the metric's bound,
and the spread of the wall-clock values printed beside the times),
the per-layer table of the first traced run, and whether every count of
the two traced runs agreed.  Exits 1 when an instance failed, a spread
exceeds a third of its bound, or a traced count did not repeat.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "bytes")


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = out.stdout.strip().splitlines()
    provenance = next(json.loads(line)["provenance"] for line in lines
                      if line.startswith('{"provenance"'))
    result = json.loads(lines[-1])
    # Wall-clock values printed beside the reference-speed times.
    for line in lines:
        name, _, rest = line.partition(" ")
        if name in result["metrics"] and "; wall " in rest:
            result["metrics"][name]["wall"] = float(rest.rsplit("; wall ", 1)[1].rstrip(")"))
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
          flush=True)
    return provenance, result


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    report = {"run_seconds": BENCH["run_seconds"], "seeds": _seeds(args.seeds),
              "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        walls: dict[str, list[float]] = {}
        units = {}
        instance_runs = []
        for seed in report["seeds"]:
            provenance, result = _run(workload, seed, 0)
            ok &= result["correct"]
            instance_runs.append(provenance["instance_runs"])
            report.setdefault("provenance", provenance)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                if "wall" in metric:
                    walls.setdefault(name, []).append(metric["wall"])
                units[name] = metric["unit"]
        end_to_end = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median if median else 0.0
            steady = spread <= bounds[name] / 3 or name == "setup_s"
            ok &= steady
            end_to_end[name] = {"unit": units[name], "median": median, "q1": q1,
                                "q3": q3, "spread": spread,
                                "third_of_bound": bounds[name] / 3,
                                "runs": len(vals),
                                "instance_runs_per_run": instance_runs}
            if name in walls:
                wq1, _, wq3 = statistics.quantiles(walls[name], n=4)
                end_to_end[name]["wall_spread"] = \
                    (wq3 - wq1) / statistics.median(walls[name])
            print(f"  {workload} {name}: median {median:.6g} spread {spread:.4f} "
                  f"(third of bound {bounds[name] / 3:.4f})"
                  f"{'' if steady else '  UNSTEADY'}", flush=True)

        traced = [_run(workload, report["seeds"][0], 1)[1] for _ in range(2)]
        first, second = (t["metrics"] for t in traced)
        repeat = all(first[n]["value"] == second[n]["value"]
                     for n in first if first[n]["unit"] in COUNT_UNITS)
        ok &= repeat and all(t["correct"] for t in traced)
        report["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {n: {"value": m["value"], "unit": m["unit"]}
                          for n, m in first.items()},
            "per_layer_counts_repeat": repeat,
        }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}; {'steady' if ok else 'NOT steady or not correct'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
