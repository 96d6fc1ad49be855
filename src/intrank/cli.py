"""Command line interface and poset document serialization.

Document format: a plain text file with one ``elements:`` line naming the
elements and one ``NAME < NAME`` line per generator pair, closed
transitively on load. Lines starting with ``#`` and blank lines are
ignored. A matrix file is an n-line block of 0/1 entries instead; the
first line that is neither blank nor a comment tells the two apart.

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from .errors import BudgetExceeded, CycleError, IntrankError, InvalidDocument
from .experiments import _write_atomic, aggregate_by, linear_fit, log_fit, run_iteration_experiment, write_records_csv
from .generate import MODELS, _bounded_posets, _corpus, _posets
from .intervals import CONJ_MAX_GROUND, OrderRelationTable, all_intervals, are_conjugate, find_conjugates_of_strong, group_conjugates_by_isomorphism
from .poset import Poset
from .rank import conjugate_rank, iterate_to_chain, standard_rank

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- document I/O -----------------------------------------------------------

def _valid_name(name: str) -> bool:
    # One token that the reader cannot take for a comment, an elements line or '<'.
    return name.split() == [name] and name != "<" and not name.startswith(("#", "elements:"))


def _content_lines(text: str):
    # (line number, stripped line) of each line neither blank nor a '#' comment.
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and line[0] != "#":
            yield lineno, line


def format_poset_document(p: Poset) -> str:
    """The cover relation as a document that parse_poset_document reads back.

    Raises InvalidDocument for a label the format cannot carry: one that is
    empty, contains whitespace, starts with '#' or 'elements:', or is '<'.
    """
    for name in p.labels:
        if not _valid_name(name):
            raise InvalidDocument(f"label {name!r} cannot be written to a poset document")
    lines = ["# poset document", "elements: " + " ".join(p.labels)]
    for a, b in sorted(p.covers()):
        lines.append(f"{p.labels[a]} < {p.labels[b]}")
    return "\n".join(lines) + "\n"


def parse_poset_document(text: str) -> Poset:
    names: list[str] | None = None
    pairs: list[tuple[int, str, str]] = []
    for lineno, line in _content_lines(text):
        if line.startswith("elements:"):
            if names is not None:
                raise InvalidDocument(f"line {lineno}: duplicate elements line")
            names = line[len("elements:"):].split()
            if not names:
                raise InvalidDocument(f"line {lineno}: empty element list")
            if len(set(names)) != len(names):
                raise InvalidDocument(f"line {lineno}: duplicate element names")
            bad = next((name for name in names if not _valid_name(name)), None)
            if bad is not None:
                raise InvalidDocument(f"line {lineno}: {bad!r} is not a valid name")
            continue
        parts = line.split()
        if len(parts) != 3 or parts[1] != "<":
            raise InvalidDocument(f"line {lineno}: expected 'NAME < NAME'")
        if parts[0] == parts[2]:
            raise InvalidDocument(f"line {lineno}: '<' is strict, so {line!r} is invalid")
        pairs.append((lineno, parts[0], parts[2]))
    if names is None:
        raise InvalidDocument("missing elements line")
    index = {name: i for i, name in enumerate(names)}
    gens = []
    for lineno, a, b in pairs:
        if a not in index or b not in index:
            unknown = a if a not in index else b
            raise InvalidDocument(f"line {lineno}: unknown element {unknown!r}")
        gens.append((index[a], index[b]))
    try:
        return Poset.from_relation(len(names), gens, names)
    except CycleError as exc:
        i, j = exc.pair
        raise InvalidDocument(f"the '<' lines form a cycle: {names[i]!r} and {names[j]!r} "
                              "are each below the other") from None


def parse_matrix_document(text: str) -> Poset:
    entries = []
    for _, line in _content_lines(text):
        cells = line.split()
        if len(cells) == 1:
            cells = list(line)
        if any(c not in ("0", "1") for c in cells):
            raise InvalidDocument(f"matrix entries must be 0/1, got {line!r}")
        entries.append([int(c) for c in cells])
    n = len(entries)
    if n == 0 or any(len(r) != n for r in entries):
        raise InvalidDocument("matrix must be square and nonempty")
    gens = [(i, j) for i in range(n) for j in range(n) if entries[i][j]]
    return Poset.from_relation(n, gens)


def load_poset(path: str) -> Poset:
    """A matrix if the first line neither blank nor '#' is a row of 0, 1 and
    whitespace, which no document accepts; a poset document otherwise."""
    with open(path, encoding="utf-8-sig") as fh:  # skips a byte-order mark
        text = fh.read()
    first = next((line for _, line in _content_lines(text)), "")
    return (parse_matrix_document if re.fullmatch(r"[01\s]+", first) else parse_poset_document)(text)


def poset_to_dot(p: Poset, name: str = "poset") -> str:
    """Hasse diagram, cover edges only, drawn bottom-up."""
    def q(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for label in p.labels:
        lines.append(f"  {q(label)};")
    for a, b in sorted(p.covers()):
        lines.append(f"  {q(p.labels[a])} -> {q(p.labels[b])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- commands ---------------------------------------------------------------

def _cmd_gen(args) -> int:
    if args.model == "exhaustive":
        posets = _bounded_posets(args.n) if args.bounds else _posets(args.n)
    else:
        posets = _corpus(args.model, [args.n], args.count, p=args.p, k=args.k,
                         seed=args.seed, add_bounds=args.bounds)
    os.makedirs(args.out, exist_ok=True)
    if any(f.endswith(".poset") for f in os.listdir(args.out)):  # stats would mix them in
        raise FileExistsError(f"{args.out} already holds .poset files")
    written = 0
    for p in posets:
        path = os.path.join(args.out, f"poset_{written:05d}.poset")
        _write_atomic(path, format_poset_document(p))
        written += 1
    print(f"wrote {written} posets to {args.out}")
    return EXIT_OK


def _cmd_rank(args) -> int:
    p = load_poset(args.input)
    ranks = (conjugate_rank if args.conjugate else standard_rank)(p).ranks
    for label, r in zip(p.labels, ranks):
        # A standard rank is a point exactly on the spindle elements.
        flag = "" if args.conjugate else " spindle=" + ("true" if r.width() == 0 else "false")
        print(f"{label} {r}{flag}")
    return EXIT_OK


def _cmd_iterate(args) -> int:
    p = load_poset(args.input)
    trace = iterate_to_chain(p)
    print(f"iterations: {trace.iterations_to_chain}")
    print("levels: " + "".join("[" + " ".join(p.labels[a] for a in level) + "]"
                               for level in trace.preorder_levels))
    if args.trace:
        for k, stage in enumerate(trace.stages, start=1):
            blocks = ", ".join(
                "{" + " ".join(str(e) for e in blk) + "}->" + str(iv)
                for iv, blk in zip(stage.intervals, stage.blocks))
            print(f"stage {k}: {len(stage)} values: {blocks}")
    if args.dot:
        os.makedirs(args.dot, exist_ok=True)
        orders = [p] + [stage.order for stage in trace.stages]  # the input is stage 0
        for k, order in enumerate(orders):
            _write_atomic(os.path.join(args.dot, f"stage_{k}.dot"), poset_to_dot(order, f"stage_{k}"))
        print(f"wrote {len(orders)} dot files to {args.dot}")
    return EXIT_OK


def _cmd_conjugates(args) -> int:
    if args.hi < args.lo:
        raise UsageError("--hi must be at least --lo")
    if args.limit is not None and args.limit < 1:
        raise UsageError("--limit must be at least 1")
    tables = find_conjugates_of_strong(args.lo, args.hi, limit=args.limit,
                                       max_ground=None if args.force else CONJ_MAX_GROUND)
    strong = OrderRelationTable.from_order(all_intervals(args.lo, args.hi), "strong")
    for i, t in enumerate(tables):
        shown = ", ".join(f"{t.ground[a]}<{t.ground[b]}" for a, b in sorted(t.covers()))
        print(f"order {i}: {shown if shown else '(no relations)'}")
        print(f"  conjugate: {'true' if are_conjugate(t, strong) else 'false'}")
    classes = group_conjugates_by_isomorphism(tables)
    print(f"found {len(tables)} conjugate orders in {len(classes)} isomorphism classes")
    return EXIT_OK


# --fit choice -> (fit, the group mean it fits, its x term). The lambdas read
# linear_fit / log_fit when called, so bench/spans.py's rebinding sees them.
_FITS = {"linear": (lambda xs, ys: linear_fit(xs, ys), "final_chain_size", "x"),
         "log": (lambda xs, ys: log_fit(xs, ys), "iterations", "ln(x)")}


def _cmd_stats(args) -> int:
    files = sorted(f for f in os.listdir(args.corpus) if f.endswith(".poset"))
    if not files:
        raise InvalidDocument(f"no .poset files in {args.corpus}")
    records = []
    for f in files:  # one file at a time, only its record kept
        path = os.path.join(args.corpus, f)
        try:
            records += run_iteration_experiment([load_poset(path)], [os.path.splitext(f)[0]])
        except (IntrankError, ValueError) as exc:
            raise InvalidDocument(f"{path}: {exc}") from exc
    groups = aggregate_by(records, args.group)
    if args.fit:  # fitted, and the CSV written, before anything is printed
        fit_xy, mean, term = _FITS[args.fit]
        fit = fit_xy([float(g) for g in groups], [float(getattr(m, mean)) for m in groups.values()])
    if args.csv:
        write_records_csv(records, args.csv)
    print(f"{args.group:>6}  count  chain_size  iterations  final_height  rank_width")
    for g, m in groups.items():
        print(f"{g:>6}  {m.count:>5}  {float(m.final_chain_size):>10.3f}"
              f"  {float(m.iterations):>10.3f}  {float(m.final_height):>12.3f}"
              f"  {float(m.avg_rank_width):>10.3f}")
    if args.csv:
        print(f"wrote {len(records)} records to {args.csv}")
    if args.fit:
        print(f"fit: y = {fit.a:.4f}*{term} + {fit.b:.4f}, R^2 = {fit.r_squared:.4f}")
    return EXIT_OK


# -- parser -----------------------------------------------------------------

# Built once per process: parsing leaves the parser unchanged, and each
# subcommand parses into a fresh namespace.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="intrank", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate poset documents into a directory")
    gen.add_argument("--model", required=True, choices=MODELS)
    gen.add_argument("--n", type=int, required=True,
                     help="size (bounded size for exhaustive; core size for random models)")
    gen.add_argument("--p", type=float, default=0.5, help="edge probability (random-graph)")
    gen.add_argument("--k", type=int, default=3, help="number of total orders (random-kdim)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1, help="posets to draw (random models)")
    gen.add_argument("--no-bounds", dest="bounds", action="store_false", help="add no bottom and top")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    rank = sub.add_parser("rank", help="print per-element rank intervals")
    rank.add_argument("input")
    rank.add_argument("--conjugate", action="store_true")
    rank.set_defaults(func=_cmd_rank)

    it = sub.add_parser("iterate", help="iterate the rank operator to a chain")
    it.add_argument("input")
    it.add_argument("--trace", action="store_true", help="print every stage")
    it.add_argument("--dot", metavar="DIR", help="write per-stage Hasse .dot files")
    it.set_defaults(func=_cmd_iterate)

    conj = sub.add_parser("conjugate-search",
                          help="find conjugates of the strong interval order")
    conj.add_argument("--lo", type=int, required=True)
    conj.add_argument("--hi", type=int, required=True)
    conj.add_argument("--limit", type=int, default=None, help="stop after N conjugates (N >= 1)")
    conj.add_argument("--force", action="store_true",
                      help="lift the ground-size budget of the search")
    conj.set_defaults(func=_cmd_conjugates)

    stats = sub.add_parser("stats", help="iterate a corpus and aggregate results")
    stats.add_argument("--corpus", required=True)
    stats.add_argument("--group", choices=["size", "height"], default="size")
    stats.add_argument("--csv", metavar="FILE")
    stats.add_argument("--fit", choices=list(_FITS))
    stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (IntrankError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
