"""Self-test of the benchmark: python3 bench/selftest.py

Runs every workload once untraced and twice traced, with short runs, and
checks that:
- each run reports every metric BENCHMARK.json names, and passes its checks;
- each layer is called exactly on the workloads where it should do work, so
  a change to a layer can only move the workloads that call it;
- layers that should not move a workload take under 1 % of its traced time;
- per-layer self times plus the unattributed remainder add up to the traced
  job time;
- every count repeats exactly across the two traced runs.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

from run import ROOT, WORKLOADS, BenchError, run_workload

ALL = set(WORKLOADS)
ITERATING = {"iterate-random", "cli-corpus"}

# Layer -> the workloads that call it; every other workload must not.
CALLED_ON = {
    "poset.from_relation": ITERATING,
    "poset.check_partial_order": ALL,  # conjugate-search: one call per solution table
    "poset.derived_rows": ALL,
    "poset.chain_heights": ALL,
    "poset.width": ITERATING,
    "poset.canonical_form": {"enumerate", "conjugate-search"},
    "generate.enumerate_posets": {"enumerate"},
    "generate.random_poset": ITERATING,
    "rank.rank_image": ITERATING,
    "rank.iterate_to_chain": ITERATING,
    "intervals.find_conjugates_of_strong": {"conjugate-search"},
    "intervals.group_conjugates_by_isomorphism": {"conjugate-search"},
    "experiments.run_iteration_experiment": ITERATING,
    "experiments.aggregate_by": ITERATING,
    "experiments.fit": ITERATING,
    "experiments.write_records_csv": {"cli-corpus"},
    "cli.load_poset": {"cli-corpus"},
    "cli.parse_poset_document": {"cli-corpus"},
    "cli.format_poset_document": {"cli-corpus"},
    "cli.main": {"cli-corpus"},
}

# Layer -> workloads whose end-to-end metrics it should not move.
SHOULD_NOT_MOVE = {
    "rank.rank_image": {"enumerate", "conjugate-search"},
    "poset.check_partial_order": {"conjugate-search"},
    "poset.canonical_form": ITERATING,
    "generate.enumerate_posets": ITERATING,
    "intervals.find_conjugates_of_strong": ALL - {"conjugate-search"},
    "poset.width": {"enumerate", "conjugate-search"},
    "experiments.run_iteration_experiment": {"enumerate", "conjugate-search"},
    "experiments.aggregate_by": {"enumerate", "conjugate-search"},
    "experiments.fit": {"enumerate", "conjugate-search"},
    "experiments.write_records_csv": {"enumerate", "conjugate-search"},
    "cli.parse_poset_document": {"enumerate", "conjugate-search"},
    "cli.load_poset": {"enumerate", "conjugate-search"},
    "poset.from_relation": {"enumerate", "conjugate-search"},
    "cli.format_poset_document": ALL - {"cli-corpus"},
    "cli.main": ALL - {"cli-corpus"},
}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = [name for name, unit in units.items() if unit in ("count", "bytes")]
    errors: list[str] = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            errors.append(message)

    for name in WORKLOADS:
        deadline = perf_counter() + 600
        try:
            plain = run_workload(name, 0, 1, False, deadline)
            first, second = (run_workload(name, 0, 1, True, deadline) for _ in range(2))
        except BenchError as exc:
            errors.append(str(exc))
            continue
        for run in (plain, first, second):
            expect(run["correct"] and run["failed"] == 0, f"{name}: a run failed its checks")
        missing = ({m["name"] for m in spec["end_to_end"]} - plain["metrics"].keys()) | (
            units.keys() - first["metrics"].keys())
        expect(not missing, f"{name}: metrics not reported: {sorted(missing)}")
        m = first["metrics"]
        for layer, workloads in CALLED_ON.items():
            calls = m[f"{layer}.calls"]
            expect((calls > 0) == (name in workloads),
                   f"{name}: {layer} made {calls} calls")
        for layer, workloads in SHOULD_NOT_MOVE.items():
            if name in workloads:
                share = m[f"{layer}.self_s"] / m["traced.wall_s"]
                expect(share < 0.01, f"{name}: {layer} took {share:.1%} of the traced job")
        if name == "conjugate-search":
            expect(m["poset.check_partial_order.calls"] == m["intervals.solutions"],
                   f"{name}: partial-order checks beyond the solution tables")
        self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
        expect(abs(self_total - m["traced.wall_s"]) <= 1e-6 * m["traced.wall_s"]
               and m["unattributed.self_s"] >= 0,
               f"{name}: self times add up to {self_total}, not {m['traced.wall_s']}")
        for key in counts:
            expect(m[key] == second["metrics"][key],
                   f"{name}: {key} was {m[key]}, then {second['metrics'][key]}")
        print(f"{name}: checked", flush=True)

    for message in errors:
        print(f"FAIL {message}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
