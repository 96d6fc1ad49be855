"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/sweep.py --out bench/BENCH_baseline.json     # seeds 0..9
    python3 bench/sweep.py --workload cli-corpus --seeds 1 2 3 4 5

Seeds run in turn and, within a seed, every workload in turn, so slow
periods of a shared machine spread over all workloads. For each metric the
summary gives the median, the quartiles (statistics.quantiles, n=4) and the
spread: the distance between the quartiles as a share of the median. That
spread is what BENCHMARK.json's bounds must exceed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from time import perf_counter

from run import DEADLINE_S, ROOT, WORKLOADS, BenchError, provenance, run_workload


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the summary to this JSON file")
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {name: [] for name in args.workload}
    for seed in args.seeds:
        for name in args.workload:
            start = perf_counter()
            try:
                result = run_workload(name, seed, args.seconds, False, start + DEADLINE_S)
            except BenchError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            result.pop("digests")
            runs[name].append({"seed": seed, "run_s": perf_counter() - start, **result})
            shown = " ".join(f"{k}={v:.4g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: {shown} ({perf_counter() - start:.0f} s)", flush=True)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summary: dict = {}
    steady = True
    print(f"{'workload':<18} {'metric':<12} {'median':>10} {'spread':>8} {'bound':>6}")
    for name, results in runs.items():
        metrics = {}
        for key, m in bounds.items():
            s = summarise([r["metrics"][key] for r in results])
            metrics[key] = {"unit": m["unit"], "bound": m["bound"], **s}
            flag = "" if s["spread"] < m["bound"] / 3 else "  above a third of the bound"
            steady = steady and (key == "setup_s" or s["spread"] <= m["bound"])
            print(f"{name:<18} {key:<12} {s['median']:>10.4g} {s['spread']:>8.3f} "
                  f"{m['bound']:>6}{flag}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        summary[name] = {"ops_per_job": results[0]["ops_per_job"],
                         "error_rate": failed / attempted, "attempted": attempted,
                         "metrics": metrics, "runs": results}
    if args.out:
        info = provenance(args.seeds[0])
        del info["seed"]
        info.update(seeds=args.seeds, run_seconds=args.seconds)
        with open(args.out, "w") as fh:
            json.dump({"provenance": info, "workloads": summary}, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
