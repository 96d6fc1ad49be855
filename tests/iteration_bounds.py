"""Opt-in checks of how many iterations the rank operator takes to a chain.

    python3 tests/iteration_bounds.py

The conjectured bound is ceil((n - 3) / 2) iterations for a bounded poset
of size n, met by a chain of n - 3 elements beside one point, with a
bottom and a top added. The script runs three checks of it:

- size-11: lifts generate.ENUM_MAX_FREE to 9 in this process only, streams
  the record of every bounded poset of size 11 into aggregate_by, which
  holds no list, and checks the count, the means and the most iterations
  (and how many posets take them) against the figures below.
- permutations: every stage after the first is a set of (lo, hi) keys
  under two-sided dominance, an order of dimension at most 2. For each
  permutation of m = 1..10 inner points, with a bottom and a top (size
  k = m + 2), it counts the key steps to a chain and checks that the most
  is floor((k - 2) / 2), taken by the permutation (1, ..., m - 1, 0): the
  chain beside one point.
- search: a seeded local search for a counterexample at n = 12..24. Each
  climb starts from a core of n - 2 elements, bottom and top added, and
  for a fixed number of steps adds or removes one cover of the core,
  keeping the new poset when it takes at least as many iterations. The
  first climb at each n starts from the chain beside one point, the others
  from seeded random-graph cores. It fails if a poset exceeds the bound.

Uses the standard library and the package only; the name keeps pytest
from collecting it. Exits nonzero if a check fails.
"""

from __future__ import annotations

import importlib
import itertools
import os
import random
import sys
import time
from fractions import Fraction

# This checkout's package, ahead of any installed copy.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from intrank import Poset, aggregate_by, iterate_to_chain, run_iteration_experiment  # noqa: E402

# The package exports a function named generate, so the modules are looked up by name.
generate = importlib.import_module("intrank.generate")
rank = importlib.import_module("intrank.rank")

# Size 11: posets, mean final chain size, mean iterations, most iterations
# and the posets that take them.
SIZE_11 = (183231, Fraction(1374821, 183231), Fraction(92297, 61077), 4, 291)
SEARCH_SIZES = range(12, 25)
SEARCH_CLIMBS = 8  # per size
SEARCH_STEPS = 2000  # per climb
SEARCH_SEED = 0


def bound(n: int) -> int:
    return (n - 2) // 2  # ceil((n - 3) / 2)


def size_11() -> bool:
    generate.ENUM_MAX_FREE = 9
    most: dict[int, int] = {}

    def records():
        for p in generate._bounded_posets(11):
            record = run_iteration_experiment([p], ["P"])[0]
            most[record.iterations] = most.get(record.iterations, 0) + 1
            yield record

    m = aggregate_by(records(), "size")[11]
    top = max(most)
    got = (m.count, m.final_chain_size, m.iterations, top, most[top])
    print(f"size 11: {m.count} posets, mean final chain size {m.final_chain_size}"
          f" (~{float(m.final_chain_size):.4f}), mean iterations {m.iterations}"
          f" (~{float(m.iterations):.4f}), mean rank width {m.avg_rank_width}"
          f" (~{float(m.avg_rank_width):.4f}); most iterations {top}, by {most[top]} posets"
          f" (bound {bound(11)})")
    return got == SIZE_11 and top == bound(11)


def key_steps(keys: tuple[tuple[int, int], ...]) -> int:
    # Keys listed descending, bottom first, as iterate_to_chain lists them.
    steps, image = 0, rank.RankPoset(keys, tuple((i,) for i in range(len(keys))))
    while not image.is_chain():
        image = rank.RankPoset(*rank._group(rank._ranks(*rank._key_heights(image.keys))))
        steps += 1
    return steps


def permutations() -> bool:
    ok = True
    for k in range(3, 13):
        m = k - 2
        most, reached, family = -1, 0, None
        for perm in itertools.permutations(range(m)):
            # Inner point i is the key (i + 1, perm[i] + 1); the bottom and
            # top keys are (m + 1, m + 1) and (0, 0).
            keys = ((m + 1, m + 1), *((i + 1, perm[i] + 1) for i in reversed(range(m))), (0, 0))
            steps = key_steps(keys)
            if steps > most:
                most, reached = steps, 0
            reached += steps == most
            if perm == (*range(1, m), 0):
                family = steps
        print(f"k = {k}: most key steps {most}, by {reached} permutations;"
              f" (1, ..., m - 1, 0) takes {family}; bound {bound(k)}", flush=True)
        ok &= most == family == bound(k)
    return ok


def chain_beside_point(c: int) -> Poset:
    # Core elements 0 < 1 < ... < c - 2, and c - 1 beside them.
    return Poset.from_relation(c, [(i, i + 1) for i in range(c - 2)])


def iterations(core: Poset) -> int:
    return iterate_to_chain(core.add_bounds()).iterations_to_chain


def climb(core: Poset, rng: random.Random) -> tuple[int, Poset]:
    best = iterations(core)
    for _ in range(SEARCH_STEPS):
        a, b = rng.sample(range(core.n), 2)
        covers = core.covers()
        if (a, b) in covers:
            gens = covers - {(a, b)}
        elif not core.comparable(a, b):
            gens = covers | {(a, b)}
        else:
            continue
        candidate = Poset.from_relation(core.n, gens)
        steps = iterations(candidate)
        if steps >= best:
            best, core = steps, candidate
    return best, core


def search() -> bool:
    rng = random.Random(SEARCH_SEED)
    ok = True
    for n in SEARCH_SIZES:
        c = n - 2
        starts = [chain_beside_point(c)] + [
            generate.random_graph_poset(generate.GenConfig(
                "random-graph", c, p=rng.choice((0.1, 0.2, 0.3)), seed=rng.randrange(2**32),
                add_bounds=False))
            for _ in range(SEARCH_CLIMBS - 1)]
        results = [climb(core, rng) for core in starts]
        best, core = max(results, key=lambda r: r[0])
        at_bound = sum(steps >= bound(n) for steps, _ in results)
        print(f"n = {n}: most iterations found {best}, bound {bound(n)}; {at_bound} of"
              f" {SEARCH_CLIMBS} climbs of {SEARCH_STEPS} steps reached the bound", flush=True)
        if best > bound(n):
            ok = False
            print(f"  counterexample core (bottom and top added): {sorted(core.covers())}")
    return ok


def main() -> int:
    failed = 0
    for check in (size_11, permutations, search):
        start = time.monotonic()
        ok = check()
        failed += not ok
        print(f"{check.__name__}: {'ok' if ok else 'FAIL'} in {time.monotonic() - start:.0f} s",
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
