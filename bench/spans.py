"""Span tracing of intrank's layers, installed from outside the package.

`Tracer.install()` replaces each public function named in `LAYERS` with a
wrapper in every ``intrank`` module that binds it, and re-wraps cached
properties so that their spans count cache misses only. Each wrapped call
records a span (name, start, end, parent span, op id) in memory;
`uninstall()` puts the original objects back. A layer's self time is the
duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import csv
import os
import sys
from collections import Counter
from functools import cached_property, wraps
from time import perf_counter

# Sub-layer -> the (module, attribute) pairs it wraps; "Poset.x" names a
# member of the Poset class.
LAYERS = {
    "poset.from_relation": [("poset", "Poset.from_relation")],
    "poset.check_partial_order": [("poset", "check_partial_order")],
    "poset.derived_rows": [("poset", "Poset.strict_rows"), ("poset", "Poset.down_rows"),
                           ("poset", "Poset.strict_down_rows"), ("poset", "Poset.cover_rows")],
    "poset.chain_heights": [("poset", "Poset.up_heights"), ("poset", "Poset.down_heights")],
    "poset.width": [("poset", "Poset.width")],
    "poset.canonical_form": [("poset", "Poset.canonical_form")],
    "generate.enumerate_posets": [("generate", "enumerate_posets")],
    "generate.random_poset": [("generate", "random_graph_poset"),
                              ("generate", "random_kdim_poset")],
    "rank.rank_image": [("rank", "rank_image")],
    "rank.iterate_to_chain": [("rank", "iterate_to_chain")],
    "intervals.find_conjugates_of_strong": [("intervals", "find_conjugates_of_strong")],
    "intervals.group_conjugates_by_isomorphism": [
        ("intervals", "group_conjugates_by_isomorphism")],
    "experiments.run_iteration_experiment": [("experiments", "run_iteration_experiment")],
    "experiments.aggregate_by": [("experiments", "aggregate_by")],
    "experiments.fit": [("experiments", "linear_fit"), ("experiments", "log_fit")],
    "experiments.write_records_csv": [("experiments", "write_records_csv")],
    "cli.load_poset": [("cli", "load_poset")],
    "cli.parse_poset_document": [("cli", "parse_poset_document")],
    "cli.format_poset_document": [("cli", "format_poset_document")],
    "cli.main": [("cli", "main")],
}

COUNTERS = ("generate.enumerate.candidates", "generate.enumerate.classes",
            "rank.stages", "rank.stage_elements", "intervals.solutions",
            "cli.bytes_written", "cli.bytes_read")


class Tracer:
    """Records spans and counters for the calls into intrank's layers."""

    def __init__(self):
        self._saved: list = []  # (owner, attribute, original object)
        self.reset()

    def reset(self) -> None:
        self.spans: list = []   # (name, start, end, parent index, op id, raised)
        self.stack: list[tuple[int, str]] = []  # open spans: (index, name)
        self.op = -1
        self.counts: Counter = Counter()
        self.enum_keys: dict[int, set] = {}  # enumerate_posets span -> keys seen

    def enclosing(self, name: str) -> int | None:
        """Index of the innermost open span with this name."""
        for index, open_name in reversed(self.stack):
            if open_name == name:
                return index
        return None

    def _wrap(self, name: str, fn, observe=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, name))
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, raised)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in LAYERS wherever an intrank module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "intrank" or key.startswith("intrank.")]
        for targets in LAYERS.values():
            for module_name, attr in targets:
                module = sys.modules[f"intrank.{module_name}"]
                span_name = f"{module_name}.{attr.rpartition('.')[2]}"
                observe = _OBSERVERS.get(span_name)
                if attr.startswith("Poset."):
                    self._wrap_member(module.Poset, attr[6:], span_name, observe)
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(span_name, original, observe)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._saved.append((m, key, original))
                            setattr(m, key, wrapper)
        # Each candidate of enumerate_posets is built by this private helper.
        generate = sys.modules["intrank.generate"]
        extend = generate._extend_with_maximal

        def counted_extend(*args):
            self.counts["generate.enumerate.candidates"] += 1
            return extend(*args)

        self._saved.append((generate, "_extend_with_maximal", extend))
        generate._extend_with_maximal = counted_extend

    def _wrap_member(self, cls, attr: str, span_name: str, observe) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, cached_property):
            replacement = cached_property(self._wrap(span_name, original.func, observe))
            replacement.__set_name__(cls, attr)
        elif isinstance(original, classmethod):
            replacement = classmethod(self._wrap(span_name, original.__func__, observe))
        else:
            replacement = self._wrap(span_name, original, observe)
        self._saved.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and raised calls per sub-layer, plus counters."""
        span_layer = {f"{module}.{attr.rpartition('.')[2]}": layer
                      for layer, targets in LAYERS.items() for module, attr in targets}
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op, _raised in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = 0
        for i, (name, start, end, _parent, _op, raised) in enumerate(self.spans):
            layer = span_layer[name]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += end - start - child[i]
            out[f"{layer}.errors"] += raised
        for key in COUNTERS:
            out[key] = self.counts[key]
        # every enumerate_posets call also keys its one-element seed poset
        out["generate.enumerate.classes"] = sum(len(k) - 1 for k in self.enum_keys.values())
        candidates = out["generate.enumerate.candidates"]
        out["generate.enumerate.yield"] = (
            out["generate.enumerate.classes"] / candidates if candidates else 0.0)
        return out

    def attributed_s(self) -> float:
        """Summed duration of the spans that have no parent span."""
        return sum(end - start for _n, start, end, parent, _o, _r in self.spans
                   if parent < 0)

    def write(self, path: str) -> None:
        """Write the recorded spans as CSV, one row per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "name", "start_s", "end_s", "parent", "op", "raised"))
            for i, (name, start, end, parent, op, raised) in enumerate(self.spans):
                writer.writerow((i, name, f"{start:.9f}", f"{end:.9f}", parent, op,
                                 int(raised)))


# -- counters read at layer boundaries -------------------------------------

def _canonical_key(tracer: Tracer, args, key) -> None:
    enum = tracer.enclosing("generate.enumerate_posets")
    if enum is not None:
        tracer.enum_keys.setdefault(enum, set()).add(key)


def _stages(tracer: Tracer, args, trace) -> None:
    tracer.counts["rank.stages"] += len(trace.stages)
    tracer.counts["rank.stage_elements"] += sum(len(stage) for stage in trace.stages)


def _solutions(tracer: Tracer, args, tables) -> None:
    tracer.counts["intervals.solutions"] += len(tables)


def _document_written(tracer: Tracer, args, text) -> None:
    tracer.counts["cli.bytes_written"] += len(text.encode("utf-8"))


def _csv_written(tracer: Tracer, args, _none) -> None:
    tracer.counts["cli.bytes_written"] += os.path.getsize(args[1])


def _document_read(tracer: Tracer, args, _poset) -> None:
    tracer.counts["cli.bytes_read"] += len(args[0].encode("utf-8"))


_OBSERVERS = {
    "poset.canonical_form": _canonical_key,
    "rank.iterate_to_chain": _stages,
    "intervals.find_conjugates_of_strong": _solutions,
    "cli.format_poset_document": _document_written,
    "experiments.write_records_csv": _csv_written,
    "cli.parse_poset_document": _document_read,
}
