"""The benchmark's four workloads: inputs, the timed job and output checks.

Each workload is one closed loop: a single caller issues ops back to back,
each op a call into intrank's public API. A job is one pass over the
workload's ops; `check` judges every op's output after the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
import traceback
from time import perf_counter

import intrank
import intrank.cli  # noqa: F401  (registers the module the CLI ops call)

ENUM_COUNTS = (1, 2, 5, 16, 63, 318, 2045)  # posets on 1..7 elements
CONJ_COUNTS = (1, 2, 4, 0, 0, 0, 0)         # conjugates of strong on [0, k]

RAISED = object()  # output of an op that raised


class Ops:
    """The closed-loop caller: runs ops one at a time and times each.

    Only ops issued with ``sample=True`` enter the latency sample; these are
    the many uniform ops of a workload, not its one-off steps. Given a
    `reference` (a callable that times one slice of a fixed computation),
    the caller runs a slice between ops every REFERENCE_EVERY_S seconds, so
    the reference is measured while the job runs.
    """

    REFERENCE_EVERY_S = 0.2

    def __init__(self, tracer=None, reference=None):
        self.tracer = tracer
        self.reference = reference
        self.outputs: list = []
        self.latencies: list[float] = []
        self.reference_s: list[float] = []
        self.slices_before: list[int] = []  # per sampled op: reference slices run before it
        self._next_reference = perf_counter() + self.REFERENCE_EVERY_S

    def call(self, fn, *args, sample: bool = True, **kwargs):
        if self.tracer is not None:
            self.tracer.op = len(self.outputs)
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = RAISED
        end = perf_counter()
        self.outputs.append(out)
        if sample:
            self.latencies.append(end - start)
            self.slices_before.append(len(self.reference_s))
        if self.reference is not None and end >= self._next_reference:
            self.reference_s.append(self.reference())
            self._next_reference = perf_counter() + self.REFERENCE_EVERY_S
        return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """Hooks run outside the timed region; most workloads need none."""

    @contextlib.contextmanager
    def capture(self):
        """Collect, during the untimed warm-up job, what `check` needs beyond the op outputs."""
        yield None

    def reset(self, inp) -> None:
        """Undo what a job left behind, before the next job."""

    def close(self, inp) -> None:
        """Remove what `inputs` created."""


class Enumerate(Workload):
    """Exhaustive enumeration (criterion 1); ignores the seed."""

    name = "enumerate"

    def inputs(self, seed: int, workdir: str):
        return [("enumerate_posets", n) for n in range(1, 8)] + \
               [("enumerate_bounded_posets", s) for s in range(3, 10)]

    def job(self, calls, ops: Ops) -> None:
        for fname, arg in calls:
            ops.call(getattr(intrank, fname), arg)

    def check(self, calls, outputs, _captured):
        expected = list(ENUM_COUNTS) * 2
        ok = [out is not RAISED and len(out) == want
              and all(p.n == n and (p.is_bounded() or fname == "enumerate_posets")
                      for p in out)
              for (fname, n), out, want in zip(calls, outputs, expected, strict=True)]
        return ok, {}


class IterateRandom(Workload):
    """Criterion 7: 3,200 random-graph posets iterated one op each."""

    name = "iterate-random"
    sizes = range(10, 26)
    count = 200

    def inputs(self, seed: int, workdir: str):
        # Consecutive seeds draw disjoint poset seeds; seed 0 is criterion 7.
        return seed * len(self.sizes) * self.count

    def job(self, corpus_seed: int, ops: Ops) -> None:
        posets = ops.call(intrank.random_corpus, "random-graph", self.sizes, self.count,
                          seed=corpus_seed, sample=False)
        records = []
        for i, p in enumerate(posets):
            out = ops.call(intrank.run_iteration_experiment, [p], [f"P{i:05d}"])
            if out is not RAISED:
                records.extend(out)
        by_size = ops.call(intrank.aggregate_by, records, "size", sample=False)
        xs = [float(s) for s in by_size]
        ops.call(intrank.linear_fit, xs, [float(m.final_chain_size) for m in by_size.values()],
                 sample=False)
        ops.call(intrank.log_fit, xs, [float(m.iterations) for m in by_size.values()],
                 sample=False)

    @contextlib.contextmanager
    def capture(self):
        # Keep each op's preorder levels and whether its last stage is a chain.
        experiments = sys.modules["intrank.experiments"]
        iterate_to_chain = experiments.iterate_to_chain
        captured = []

        def capturing(p):
            trace = iterate_to_chain(p)
            last = trace.stages[-1].order if trace.stages else p
            captured.append((trace.preorder_levels, last.is_chain()))
            return trace

        experiments.iterate_to_chain = capturing
        try:
            yield captured
        finally:
            experiments.iterate_to_chain = iterate_to_chain

    def check(self, corpus_seed, outputs, captured):
        posets, *per_poset, by_size, lin, lg = outputs
        ok = [posets is not RAISED and len(posets) == len(self.sizes) * self.count]
        for p, out, (levels, last_is_chain) in zip(posets, per_poset, captured, strict=True):
            if out is RAISED:
                ok.append(False)
                continue
            (rec,) = out
            flat = sorted(e for level in levels for e in level)
            ok.append(last_is_chain and rec.size == p.n and rec.iterations <= p.n
                      and len(levels) == rec.final_chain_size == rec.final_height
                      and flat == list(range(p.n)))
        ok.append(by_size is not RAISED
                  and sum(m.count for m in by_size.values()) == len(per_poset))
        ok.append(lin is not RAISED and lin.kind == "linear")
        ok.append(lg is not RAISED and lg.kind == "logarithmic")
        digests = {"records": digest("\n".join(repr(out) for out in per_poset)),
                   "levels": digest("\n".join(repr(levels) for levels, _ in captured))}
        return ok, digests


class ConjugateSearch(Workload):
    """Criterion 6's conjugate search over the interval grounds [0, k]."""

    name = "conjugate-search"

    def inputs(self, seed: int, workdir: str):
        return list(range(7))

    def job(self, ks, ops: Ops) -> None:
        for k in ks:
            ops.call(_conjugates, k)

    def check(self, ks, outputs, _captured):
        ok = []
        for k, out in zip(ks, outputs, strict=True):
            if out is RAISED:
                ok.append(False)
                continue
            tables, groups = out
            strong = intrank.OrderRelationTable.from_order(
                intrank.all_intervals(0, k), "strong")
            ok.append(len(tables) == CONJ_COUNTS[k]
                      and all(intrank.are_conjugate(t, strong) for t in tables)
                      and sum(len(g) for g in groups) == len(tables))
        return ok, {}


def _conjugates(k: int):
    tables = intrank.find_conjugates_of_strong(0, k, max_ground=None)
    return tables, intrank.group_conjugates_by_isomorphism(tables)


class CliCorpus(Workload):
    """The CLI in-process: gen a random-kdim corpus, iterate each file, stats."""

    name = "cli-corpus"
    n = 30
    count = 1000

    def inputs(self, seed: int, workdir: str):
        base = tempfile.mkdtemp(prefix="cli-corpus-", dir=workdir)
        return {"base": base, "corpus": os.path.join(base, "corpus"),
                "csv": os.path.join(base, "records.csv"),
                "seed": seed * self.count}

    def job(self, inp, ops: Ops) -> None:
        corpus = inp["corpus"]
        ops.call(_cli, ["gen", "--model", "random-kdim", "--k", "3", "--n", str(self.n),
                        "--count", str(self.count), "--seed", str(inp["seed"]),
                        "--out", corpus], sample=False)
        for name in sorted(os.listdir(corpus)):
            ops.call(_cli, ["iterate", os.path.join(corpus, name)])
        ops.call(_cli, ["stats", "--corpus", corpus, "--group", "height",
                        "--csv", inp["csv"], "--fit", "linear"], sample=False)

    def reset(self, inp) -> None:
        shutil.rmtree(inp["corpus"], ignore_errors=True)
        with contextlib.suppress(FileNotFoundError):
            os.remove(inp["csv"])

    def close(self, inp) -> None:
        shutil.rmtree(inp["base"], ignore_errors=True)

    def check(self, inp, outputs, _captured):
        gen, *iterates, stats = outputs
        labels = sorted([f"x{i}" for i in range(self.n)] + ["BOT", "TOP"])
        ok = [gen is not RAISED and gen[0] == 0
              and gen[1] == f"wrote {self.count} posets to {inp['corpus']}\n"]
        for out in iterates:
            ok.append(out is not RAISED and out[0] == 0 and _iterate_ok(out[1], labels))
        with open(inp["csv"], encoding="utf-8") as fh:
            csv_text = fh.read()
        rows = [line.split(",") for line in csv_text.splitlines()[1:]]
        ok.append(stats is not RAISED and stats[0] == 0 and len(rows) == self.count
                  and all(r[5] == r[6] for r in rows))  # final_chain_size == final_height
        stdout = "".join(out[1] for out in outputs if out is not RAISED)
        digests = {"stdout": digest(stdout.replace(inp["base"], "<dir>")),
                   "csv": digest(csv_text)}
        return ok, digests


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["intrank.cli"].main(argv)
    return code, buf.getvalue()


def _iterate_ok(stdout: str, labels: list[str]) -> bool:
    lines = stdout.splitlines()
    if len(lines) != 2 or not lines[0].startswith("iterations: "):
        return False
    if int(lines[0].split()[1]) > len(labels):
        return False
    levels = lines[1].removeprefix("levels: ")
    members = levels.replace("[", " ").replace("]", " ").split()
    return sorted(members) == labels


WORKLOADS = {w.name: w for w in (Enumerate(), IterateRandom(), ConjugateSearch(),
                                 CliCorpus())}
