"""intrank benchmark: run workloads in fresh interpreters and report metrics.

    python3 bench/run.py                       # all four workloads, seed 0
    python3 bench/run.py --workload enumerate --seed 3 --seconds 15 --trace 0

Each workload runs in its own worker process (bench/worker.py) for the given
number of measured seconds. Job and op times are reported in "ref" units:
each job's time divided by the time of a fixed reference computation run
just before and after it (worker.reference_s), which cancels most of the
slow-down a busy shared machine causes; the raw times are printed too.
Set-up time is the median over several fresh interpreters of the time from
process start until intrank is imported and the inputs are ready. With
--trace 1 a traced worker reports per-layer calls, self time and errors
instead (see bench/spans.py) and writes its spans to .bench_out/. The last
line of output is one JSON object with the keys correct, attempted, failed
and metrics. Metric names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("enumerate", "iterate-random", "conjugate-search", "cli-corpus")
SETUP_PROBES = 6
DEADLINE_S = 170  # a run of one workload ends within 180 s
RAW_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_p99_ms": "ms", "reference_ms": "ms"}


class BenchError(Exception):
    pass


def _units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def setup_time(workload: str, seed: int) -> float:
    """Seconds from spawning a worker until it reports intrank imported and inputs built."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, WORKER, workload, str(seed), "0", "0",
                           "--setup-only"], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"{workload}: set-up probe failed with exit code {proc.returncode}")
    return ready - start


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """One worker run; adds setup_s to an untraced result.

    Half the set-up probes run before the worker and half after it, so that
    they sample the machine at two moments.
    """
    probes = 0 if trace else SETUP_PROBES // 2
    setups = [setup_time(workload, seed) for _ in range(probes)]
    argv = [sys.executable, WORKER, workload, str(seed), str(seconds), str(int(trace))]
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    setups += [setup_time(workload, seed) for _ in range(probes)]
    if setups:
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def provenance(seed: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # the checkout may not be a repository
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "commit": commit, "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "intrank", "__init__.py")):
        print(f"error: no intrank sources under {ROOT}/src", file=sys.stderr)
        return 2

    units = _units()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    info = provenance(args.seed)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  perf_counter() + DEADLINE_S)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        info[f"{name}.ops_per_job"] = result["ops_per_job"]
        info[f"{name}.jobs"] = result["jobs"]
        print(f"{name}: {result['jobs']} jobs of {result['ops_per_job']} ops, "
              f"{result['sampled_ops']} latency samples, "
              f"error_rate {result['failed'] / result['attempted']:.6g} "
              f"({result['failed']}/{result['attempted']}), "
              f"correct {str(result['correct']).lower()}")
        for key, value in result["metrics"].items():
            print(f"  {key:<48} {value:>14.6g} {units[key]}")
        for key, value in result.get("raw", {}).items():
            print(f"  {key:<48} {value:>14.6g} {RAW_UNITS[key]}  (not normalised)")
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + key: {"value": value, "unit": units[key]}
                        for key, value in result["metrics"].items()})
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
    print("provenance " + json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
