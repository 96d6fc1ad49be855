"""Run one workload in this fresh interpreter and print its result as JSON.

Usage: worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

A warm-up job runs first, untimed, and its outputs are checked in full;
then the job repeats until the timed jobs add up to SECONDS, and each must
reproduce the warm-up outputs exactly. With TRACE 1, untraced and traced
jobs alternate and the result holds the traced per-layer metrics instead
of the end-to-end ones.
With --setup-only the worker prints "ready" once intrank is imported and
the inputs are built, and exits.
"""

from time import perf_counter

START = perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))


def fingerprint(output) -> bytes:
    return hashlib.sha256(pickle.dumps(output)).digest()


def reference_slice() -> float:
    """Time one run of a fixed computation that uses no intrank code.

    Like intrank, it is interpreted Python on small ints, tuples and dicts,
    so a busy shared machine slows it about as much as it slows a workload.
    Job and op times divided by the mean slice time measured during the job
    ("ref" units) vary far less from run to run than the times themselves.
    """
    start = perf_counter()
    rows: dict[int, tuple[int, ...]] = {}
    acc = 0
    for i in range(3000):
        mask = (i * 2654435761) & 0xFFFF
        bits = tuple(b for b in range(16) if mask >> b & 1)
        rows[i % 509] = bits
        acc ^= len(bits) << (i & 7)
    sorted(rows.values())
    return perf_counter() - start


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    t = perf_counter()
    import intrank  # noqa: F401
    import intrank.cli  # noqa: F401
    import_s = perf_counter() - t

    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    t = perf_counter()
    inp = workload.inputs(seed, OUT_DIR)
    inputs_s = perf_counter() - t
    try:
        if "--setup-only" in argv:
            print("ready", flush=True)
            return 0
        result = measure(workload, inp, seconds, trace)
    finally:
        workload.close(inp)

    # digests.json holds seed 0's output digests, recorded when the benchmark
    # was added; outputs must stay byte-identical.
    digests = result["digests"]
    if seed == 0:
        with open(os.path.join(os.path.dirname(__file__), "digests.json")) as fh:
            expected = json.load(fh).get(name, {})
        for key, value in expected.items():
            if digests.get(key) != value:
                print(f"{name}: {key} digest differs from the recorded one", file=sys.stderr)
                result["correct"] = False
    if trace:
        result["metrics"]["setup.import_s"] = import_s
        result["metrics"]["setup.inputs_s"] = inputs_s
    else:
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result["process_s"] = perf_counter() - START
    print(json.dumps(result))
    return 0


def measure(workload, inp, seconds: float, trace: bool) -> dict:
    from workloads import Ops

    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()

    def run_job(traced_job: bool):
        if traced_job:
            ops = Ops(tracer)
            tracer.reset()
            tracer.install()
        else:
            ops = Ops(reference=reference_slice)
            ops.reference_s.append(reference_slice())
        start = perf_counter()
        try:
            workload.job(inp, ops)
        finally:
            wall = perf_counter() - start - sum(ops.reference_s[1:])
            if traced_job:
                tracer.uninstall()
            else:
                ops.reference_s.append(reference_slice())
        return wall, ops

    # The warm-up job grows the heap and is checked in full; it is not timed.
    with workload.capture() as captured:
        _wall, ops = run_job(False)
    first = [fingerprint(out) for out in ops.outputs]
    ok, digests = workload.check(inp, ops.outputs, captured)
    if len(ok) != len(first):
        raise RuntimeError(f"{workload.name}: {len(ok)} verdicts for {len(first)} ops")
    attempted, failed = len(first), ok.count(False)
    del ops
    workload.reset(inp)

    walls: list[float] = []
    refs: list[float] = []  # mean reference slice time during each untraced job
    traced: list[tuple[float, dict]] = []
    latencies: list[float] = []
    scaled: list[float] = []  # each op's latency over the two slices either side of it
    while sum(walls) + sum(w for w, _ in traced) < seconds or len(traced) < trace:
        traced_job = trace and len(walls) > len(traced)
        wall, ops = run_job(traced_job)
        if not traced_job:
            refs.append(statistics.fmean(ops.reference_s))
        # Only fingerprints outlive a job, so peak memory is that of one job.
        prints = [fingerprint(out) for out in ops.outputs]
        attempted += len(prints)
        failed += sum(not good or p != want
                      for good, p, want in zip(ok, prints, first, strict=True))
        if traced_job:
            layers = tracer.layer_metrics()
            layers["unattributed.self_s"] = wall - tracer.attributed_s()
            traced.append((wall, layers))
        else:
            walls.append(wall)
            latencies.extend(ops.latencies)
            ref = ops.reference_s
            scaled.extend(t / statistics.fmean(ref[max(0, k - 2):k + 2])
                          for t, k in zip(ops.latencies, ops.slices_before))
        del ops
        workload.reset(inp)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "jobs": 1 + len(walls) + len(traced), "ops_per_job": len(first),
              "sampled_ops": len(latencies), "job_walls": walls,
              "job_refs": refs, "digests": digests}
    if not trace:
        result["metrics"] = {
            "wall_ref": statistics.median(w / ref for w, ref in zip(walls, refs)),
            "op_p50_ref": percentile(scaled, 50),
            "op_p99_ref": percentile(scaled, 99),
        }
        result["raw"] = {
            "wall_s": statistics.median(walls),
            "op_p50_ms": percentile(latencies, 50) * 1e3,
            "op_p99_ms": percentile(latencies, 99) * 1e3,
            "reference_ms": statistics.median(refs) * 1e3,
        }
        return result

    metrics: dict = {}
    for key, value in traced[0][1].items():
        values = [layers[key] for _wall, layers in traced]
        if isinstance(value, int):  # a count, which must repeat exactly
            if len(set(values)) > 1:
                print(f"{workload.name}: count {key} differs between traced jobs",
                      file=sys.stderr)
                result["correct"] = False
            metrics[key] = value
        else:
            metrics[key] = statistics.fmean(values)
    metrics["traced.wall_s"] = statistics.fmean(w for w, _ in traced)
    metrics["trace_overhead"] = metrics["traced.wall_s"] / statistics.fmean(walls)
    result["metrics"] = metrics
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload.name}.csv"))
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
