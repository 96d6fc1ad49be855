"""Replayable single-line mutation checks.

    python3 tests/mutants.py

Each entry names a file under src/, one exact source line in it (matched
with its indentation stripped), how many times that line occurs in the file
(once unless declared) and which occurrence it mutates, the line that
replaces it (given the same indentation), the test node ids that should
fail on the mutant, and the claim in CHANGES.md it replays. For each
entry the script copies src/, tests/, bench/, README.md and pyproject.toml
to a fresh temporary directory, applies the one change there and runs the
named tests against the copy. pyproject.toml puts the copy's src/ first
on sys.path, so the copy, not this checkout, is what the tests import; the
script checks that the mutated module was loaded from the copy. This
checkout is never edited.

Each entry is reported as killed (a named test failed, or the run passed
its time limit), survived (all passed) or stale (the line does not occur
in its file as many times as the entry declares, or a named test no longer
exists). The exit status is nonzero if an entry is stale, if an entry
survives that is not listed as a known survivor, if a known survivor is
killed (its listing is then out of date), or if the named tests fail on
the unmutated copy. Uses the standard library only; the name keeps pytest
from collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "bench", "README.md", "pyproject.toml")
TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    file: str  # relative to the repository root
    line: str  # the exact source line, indentation stripped
    replacement: str  # indentation stripped; the original's is kept
    tests: tuple[str, ...]  # pytest node ids that should fail
    source: str  # the CHANGES.md entry and claim this replays
    survivor: bool = False  # a known survivor: no test is expected to fail
    occurs: int = 1  # how many times the line occurs in its file
    occurrence: int = 0  # which of those it mutates, counted from 0 in file order


POSET = "src/intrank/poset.py"
RANK = "src/intrank/rank.py"
EXPERIMENTS = "src/intrank/experiments.py"
CLI = "src/intrank/cli.py"
NEAR_ORDERS = ("tests/test_poset_core.py::TestValidationProperties"
               "::test_check_partial_order_against_axioms",
               "tests/test_poset_core.py::TestValidationProperties"
               "::test_check_partial_order_messages_on_near_orders")
NODE_COUNTS = "tests/test_poset_core.py::TestIsomorphism::test_search_node_counts"
KEY_KERNEL = ("tests/test_rank_kernel.py::test_key_kernel_matches_induced_poset",
              "tests/test_rank_kernel.py::test_bounded_corpus")
DECISION_PASS = ("'Criterion-7 op path': the four mutations of the decision pass "
                 "in check_partial_order fail the new tests")
IMAGE_ORDER = "'A rank image carries its interval order': Mutation checks"
ORBIT_PRUNING = ("'Canonical forms by colour refinement': the FOUND: on the orbit-pruning "
                 "rule in Poset._canonical")
RECORD_SCHEMA = "'The iteration record owns its schema': Mutation checks"
CONJUGACY = "'The conjugate rank is φ of the standard rank': Mutation entries"
CHECKED = "'No unchecked way into a Poset': Poset(rows) always runs check_partial_order"
FORMAT = "'The CLI asks only for what it cannot work out'"
PASSED_ROWS = ("'Orientation search on passed-down rows, covers from up-set rows': "
               "Checks, the eight single-line mutations")
FORMAT_INFERENCE = "tests/test_cli.py::TestFormatInference"
INTERVALS = "src/intrank/intervals.py"
MATRIX = "'Orientation search on two bit-matrix ints': Mutation entries"
SEARCH = "tests/test_interval_orders.py::TestConjugateSearch"
MIRROR = "'Orientation search on half the tree': Mutation entries"
WIDTH = "tests/test_poset_core.py::TestHeightWidth"
ROWS = "'Conjugacy layer on bitset rows': Mutation check"
TABLES = "'Orientation search on per-search tables': Mutation entries"
PREDICATES = "tests/test_interval_orders.py::TestConjugacy::test_predicates_match_oracles"

MUTANTS = (
    Mutant(POSET, "m &= ~(up | low)", "m &= ~(up | low | low << 1)", NEAR_ORDERS,
           DECISION_PASS + " (skipping one more bit than row j holds)"),
    Mutant(POSET, "m &= ~(up | low)", "m &= ~(up | low | (rows[i - 1] if i else 0))",
           NEAR_ORDERS, DECISION_PASS + " (skipping the elements of row i - 1 too)"),
    Mutant(POSET, "outside = ~m", "outside = ~row", NEAR_ORDERS,
           DECISION_PASS + " (ignoring bit i in the containment test)"),
    Mutant(POSET, "if m & bit:", "if False:", NEAR_ORDERS,
           DECISION_PASS + " (dropping the reflexivity test)"),
    Mutant(POSET, "fixing = [g for g in autos if all(g[p] == p for p in path)]",
           "fixing = []", (NODE_COUNTS,),
           "'Each interval order is described once': Mutation checks (fixing = [] fails "
           "all seven node-count cases)"),
    Mutant(POSET, "fixing = [g for g in autos if all(g[p] == p for p in path)]",
           "fixing = autos", (NODE_COUNTS, "tests/test_poset_gen.py"),
           ORBIT_PRUNING + ": fixing = autos passes every test", survivor=True),
    Mutant(POSET, "target = next((c for c in cells if c & ~twin[(c & -c).bit_length() - 1]), 0)",
           "target = next((c for c in cells if c & (c - 1)), 0)",
           (NODE_COUNTS + "[k4-doubled]",),
           IMAGE_ORDER + " (twin cells split by c & (c - 1) fail only k4-doubled)"),
    Mutant(POSET, "return [classes[key] for key in keys]",
           "return [1 << e for e in range(self.n)]",
           ("tests/test_poset_gen.py", NODE_COUNTS),
           IMAGE_ORDER + " (_twins giving every element its own class)"),
    Mutant(RANK, "distinct = sorted(groups, reverse=True)", "distinct = sorted(groups)",
           KEY_KERNEL, CONJUGACY + " (_group listing its keys ascending)"),
    Mutant(RANK, "distinct = sorted(groups, reverse=True)",
           "distinct = sorted(groups, key=lambda v: (v[0], -v[1]), reverse=True)", KEY_KERNEL,
           IMAGE_ORDER + " (reversing _group's sort on hi)"),
    Mutant(RANK, "distinct = sorted(groups, reverse=True)",
           "distinct = sorted(groups, key=lambda v: (-v[0], v[1]), reverse=True)", KEY_KERNEL,
           IMAGE_ORDER + " (reversing _group's sort on lo)"),
    Mutant(RANK, "top = 2 * (h - 1) - x.hi", "top = 2 * h - 1 - x.hi",
           ("tests/test_rank_kernel.py::test_bounded_corpus",
            "tests/test_interval_rank.py::TestConjugateRank",
            "tests/test_cli.py::TestRank::test_conjugate"),
           CONJUGACY + " (phi, which conjugate_rank and conjugate_image read, off by one)"),
    Mutant(RANK, "return his == sorted(his, reverse=_DIRECTIONS[self.relation][1] < 0)",
           "return his == sorted(his, reverse=True)", KEY_KERNEL,
           IMAGE_ORDER + " (is_chain sorting always descending)"),
    Mutant(EXPERIMENTS, "totals[g] = tuple(map(add, totals.get(g, zero), (1, *measure(r))))",
           "totals[g] = tuple(map(add, totals.get(g, zero), (0, *measure(r))))",
           ("tests/test_experiments.py::TestAggregate",),
           RECORD_SCHEMA + " (aggregate_by dropping the count increment)"),
    Mutant(EXPERIMENTS, 'if key not in ("size", "height"):', "if False:",
           ("tests/test_experiments.py::TestAggregate::test_bad_key",),
           RECORD_SCHEMA + " (aggregate_by not checking its key)"),
    Mutant(EXPERIMENTS,
           "writer.writerows([float(v) if isinstance(v, Fraction) else v for v in row]",
           "writer.writerows([v for v in row]",
           ("tests/test_experiments.py::TestCsv::test_schema_and_roundtrip",),
           RECORD_SCHEMA + " (the CSV writing the Fraction unconverted)"),
    Mutant(CLI, 'flag = "" if args.conjugate else " spindle=" + ("true" if r.width() == 0 else "false")',
           'flag = "" if args.conjugate else " spindle=" + ("true" if r.width() <= 1 else "false")',
           ("tests/test_cli.py::TestRank",),
           RECORD_SCHEMA + " (intrank rank flagging ranks of width 1 as spindle)"),
    Mutant(CLI, 'if line and line[0] != "#":', "if line:",
           (FORMAT_INFERENCE + "::test_no_content_is_a_document",),
           CONJUGACY + " (the content-line rule keeping '#' comments)"),
    Mutant(CLI, 'return (parse_matrix_document if re.fullmatch(r"[01\\s]+", first) else parse_poset_document)(text)',
           'return (parse_matrix_document if re.match(r"[01\\s]+", first) else parse_poset_document)(text)',
           (FORMAT_INFERENCE + "::test_document_not_taken_for_matrix",),
           FORMAT + ": Format from content (a line that only starts with 0/1 taken for a matrix row)"),
    Mutant(CLI, 'if any(c not in ("0", "1") for c in cells):', "if False:",
           (FORMAT_INFERENCE + "::test_matrix_row_then_relation",),
           FORMAT + ": Format from content (the matrix reader rejecting every other line)"),
    Mutant(CLI, 'with open(path, encoding="utf-8-sig") as fh:  # skips a byte-order mark',
           'with open(path, encoding="utf-8") as fh:',
           (FORMAT_INFERENCE + "::test_byte_order_mark_skipped",),
           FORMAT + ": Satellites (load_poset skipping a leading byte-order mark)"),
    Mutant(CLI, 'if any(f.endswith(".poset") for f in os.listdir(args.out)):  # stats would mix them in',
           "if False:", ("tests/test_cli.py::TestGen::test_out_holding_posets_refused",),
           FORMAT + ": Satellites (gen refusing an --out that holds .poset files)"),
    Mutant(POSET, "if not _checked:", "if False:",
           ("tests/test_poset_core.py::TestFromRelation::test_direct_construction_validates",),
           CHECKED),
    Mutant(POSET, 'raise ValueError(f"no element labelled {label!r}") from None', "raise",
           ("tests/test_poset_core.py::TestFromRelation::test_labels_checked",),
           "'No unchecked way into a Poset': Bugfix (Poset.index naming a missing label)"),
    Mutant(POSET, "if low & done:", "if low & (done | open_):",
           ("tests/test_poset_core.py::TestValidationProperties::test_from_relation_against_closure_oracle",
            "tests/test_poset_core.py::TestFromRelation::test_two_cycle_rejected"),
           "'One path per job: the closure rejects cycles itself' and 'Criterion-7 layers cut': "
           "treating an open generator as finished fails the closure property test"),
    Mutant(POSET, "return tuple(s & ~reduce(or_, (strict[k] for k in _bits(s)), 0) for s in strict)",
           "return tuple(s & ~reduce(or_, (self.rows[k] for k in _bits(s)), 0) for s in strict)",
           ("tests/test_poset_core.py::TestCovers",),
           PASSED_ROWS + " (the covers built from rows instead of strict_rows)"),
    Mutant(POSET, "hit = row & free", "hit = 0",
           (WIDTH + "::test_width_against_oracle_on_random_posets",
            WIDTH + "::test_width_of_deep_staircase"),
           "'Criterion-7 layers cut': Mutation checks (matching only at the root fails "
           "both width-oracle tests and the deep staircase)", occurs=2, occurrence=1),
    Mutant(INTERVALS, "if not new & apart:", "if True:",
           (SEARCH + "::test_matches_backtracking_oracle_on_subfamilies",
            SEARCH + "::test_matches_exhaustive_orientation_oracle"),
           MATRIX + " (the apart refutation disabled)"),
    Mutant(INTERVALS, "dfs(above | new, below | down * (below >> v & col | cbit[v]))",
           "dfs(above | bit[v] * (above >> u & col | cbit[u]), below | down * cbit[v])",
           (SEARCH + "::test_search_node_counts",),
           MATRIX + " (the closure adding 1 << b, not b's up-set: 50 / 440 / 3,418 nodes on "
           "the whole tree, 26 / 227 / 1,714 on the a < b half)"),
    Mutant(INTERVALS, "new = (above >> shift[v] & row | bit[v]) * (above >> u & col | cbit[u])",
           "new = bit[v] * (above >> u & col | cbit[u])",
           (SEARCH + "::test_search_node_counts",),
           MATRIX + " (b's up-set replaced by 1 << b in the tested product too)"),
    Mutant(INTERVALS, "dfs(above | new, below | down * (below >> v & col | cbit[v]))",
           "dfs(above | new, below)", (SEARCH + "::test_search_node_counts",),
           MATRIX + " (the below update dropped)"),
    Mutant(INTERVALS, "open_ = later & ~(above | below)", "open_ = later & ~above",
           (SEARCH + "::test_search_node_counts",),
           ROWS + " (the undecided test reading only the pairs decided as a < b)"),
    Mutant(INTERVALS, "branches = [((x, y), (y, x)) for x in range(m) for y in range(m)]",
           "branches = [((y, x), (x, y)) for x in range(m) for y in range(m)]",
           (SEARCH + "::test_matches_backtracking_oracle_on_full_grounds",),
           TABLES + " (the pair table transposed)"),
    Mutant(INTERVALS, "dfs(above | new, below | down * (below >> v & col | cbit[v]))",
           "dfs(above | new, below | down * (below >> v & col | cbit[u]))",
           (SEARCH + "::test_search_node_counts",),
           TABLES + " (the column bit of u in place of v's in the below update)"),
    Mutant(INTERVALS, "del dfs", "pass", (SEARCH + "::test_search_leaves_no_cycle",),
           TABLES + " (dfs kept, so its tables wait for a full collection)"),
    Mutant(INTERVALS,
           "return solutions + [OrderRelationTable(ground, r) for r in mirrors[::-1][:room]]",
           "return solutions + [OrderRelationTable(ground, r) for r in mirrors[:room]]",
           (SEARCH + "::test_second_half_mirrors_first",), MIRROR + " (the mirrors not reversed)"),
    Mutant(INTERVALS, "room = None if limit is None else limit - len(solutions)", "room = None",
           (SEARCH + "::test_limits_across_the_mirror",), MIRROR + " (room ignoring limit)"),
    Mutant(INTERVALS, "dfs(cbit[a] << b, cbit[b] << a)", "dfs(cbit[b] << a, cbit[a] << b)",
           (SEARCH + "::test_matches_backtracking_oracle_on_subfamilies",),
           MIRROR + " (the first pair seeded as b < a)"),
    Mutant(INTERVALS, "overlap = [le_lo[hi] & ge_hi[lo] & ~(1 << i) for i, (lo, hi) in enumerate(keys)]",
           "overlap = [le_lo[hi] & ge_hi[lo + 1] & ~(1 << i) for i, (lo, hi) in enumerate(keys)]",
           (SEARCH + "::test_matches_backtracking_oracle_on_full_grounds",),
           ROWS + " (the overlap definition leaving out intervals that touch)"),
    Mutant(INTERVALS, "return all(c1 ^ c2 == full ^ 1 << i", "return all(c1 | c2 == full",
           (PREDICATES,), ROWS + " (are_conjugate reading as are_pseudo_conjugate)"),
    Mutant(INTERVALS, "return all(c1 | c2 == full for c1, c2 in _comparability(t1, t2))",
           "return any(c1 | c2 == full for c1, c2 in _comparability(t1, t2))",
           (PREDICATES,), ROWS + " (are_pseudo_conjugate asking one element, not all)"),
    Mutant(INTERVALS, "return [(t1.rows[i] | t1.down_rows[i], t2.rows[i] | t2.down_rows[i])",
           "return [(t1.rows[i] | t1.down_rows[i], t2.rows[i])",
           (PREDICATES,), ROWS + " (the second table's down rows left out)"),
    Mutant(INTERVALS,
           "return cls(ground, _close(_pair_rows(len(ground), generators), len(ground)), _checked=True)",
           "return cls(ground, _close(_pair_rows(len(ground), [(b, a) for a, b in generators]), "
           "len(ground)), _checked=True)",
           ("tests/test_interval_orders.py::TestOrderRelationTable"
            "::test_from_relation_matches_closure_oracle",),
           ROWS + " (from_relation closing the reversed generators)"),
    Mutant(CLI, "max_ground=None if args.force else CONJ_MAX_GROUND)", "max_ground=None)",
           ("tests/test_cli.py::TestConjugateSearch::test_span_budget",),
           ROWS + " (the CLI passing no max_ground)"),
    Mutant(CLI, "max_ground=None if args.force else CONJ_MAX_GROUND)", "max_ground=CONJ_MAX_GROUND)",
           ("tests/test_cli.py::TestConjugateSearch::test_force_lifts_span_budget",),
           ROWS + " (the CLI ignoring --force)"),
)

# Runs pytest, then names the file each mutated module was loaded from.
RUNNER = """\
import sys, pytest
modules, args = sys.argv[1].split(","), sys.argv[2:]
code = pytest.main(args)
for name in modules:
    module = sys.modules.get(name)
    print("LOADED", name, getattr(module, "__file__", None))
sys.exit(int(code))
"""


def _module(path: str) -> str:
    # src/intrank/poset.py -> intrank.poset
    return os.path.splitext(os.path.relpath(path, "src"))[0].replace(os.sep, ".")


def _copy(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".bench_out", ".pytest_cache",
                                    ".hypothesis", "*.pyc")
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name), ignore=ignore)
        else:
            shutil.copy2(src, os.path.join(dest, name))


def _apply(dest: str, m: Mutant) -> str | None:
    # Replaces the one line in the copy; returns why the entry is stale, or None.
    path = os.path.join(dest, m.file)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    hits = [i for i, text in enumerate(lines) if text.strip() == m.line]
    if len(hits) != m.occurs:
        return f"line found {len(hits)} times in {m.file}, not {m.occurs}"
    i = hits[m.occurrence]
    lines[i] = lines[i][:len(lines[i]) - len(lines[i].lstrip())] + m.replacement
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    return None


def _run(dest: str, modules, tests) -> tuple[int | None, str]:
    # The exit code is None if the run passed its time limit.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # no stale bytecode of the unmutated line
    argv = [sys.executable, "-c", RUNNER, ",".join(modules), "-q", "-x",
            "-p", "no:cacheprovider", "--no-header", *tests]
    try:
        proc = subprocess.run(argv, cwd=dest, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT_S} s"
    out = proc.stdout + proc.stderr
    expected = {name: os.path.join(dest, "src", *name.split(".")) + ".py" for name in modules}
    for line in out.splitlines():
        if line.startswith("LOADED "):
            _, name, where = line.split(" ", 2)
            if where != expected[name]:
                raise SystemExit(f"{name} was loaded from {where}, not from the copy")
    return proc.returncode, out


def check(m: Mutant) -> tuple[str, str]:
    """The verdict on one entry (killed, survived or stale) and a detail."""
    with tempfile.TemporaryDirectory(prefix="intrank-mutant-") as dest:
        _copy(dest)
        stale = _apply(dest, m)
        if stale:
            return "stale", stale
        code, out = _run(dest, [_module(m.file)], m.tests)
    if code is None:
        return "killed", out  # a mutant that never ends is caught too
    if code == 0:
        return "survived", ""
    if code == 1:
        failed = [line for line in out.splitlines() if line.startswith(("FAILED", "ERROR"))]
        return "killed", failed[0] if failed else "a named test failed"
    # 2: interrupted, 4: usage error (a node id not found), 5: no tests collected.
    tail = out.strip().splitlines()[-1:] or [""]
    return "stale", f"pytest exit {code}: {tail[0]}"


def baseline(mutants) -> tuple[int | None, str]:
    """Runs every named test once on an unmutated copy."""
    tests = list(dict.fromkeys(t for m in mutants for t in m.tests))
    modules = list(dict.fromkeys(_module(m.file) for m in mutants))
    with tempfile.TemporaryDirectory(prefix="intrank-mutant-") as dest:
        _copy(dest)
        return _run(dest, modules, tests)


def main() -> int:
    start = time.monotonic()
    code, out = baseline(MUTANTS)
    if code != 0:
        print(out)
        print("the named tests fail on the unmutated copy")
        return 1
    bad = 0
    for k, m in enumerate(MUTANTS):
        verdict, detail = check(m)
        wrong = verdict == "stale" or (verdict == "survived") != m.survivor
        bad += wrong
        mark = " (known survivor)" if m.survivor else ""
        flag = "  <-- unexpected" if wrong else ""
        print(f"{k:2d} {verdict:8s} {m.file}: {m.replacement!r}{mark}{flag}", flush=True)
        if detail:
            print(f"   {detail}", flush=True)
    print(f"{len(MUTANTS)} entries, {bad} unexpected, {time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
