from collections import Counter

import pytest

from intrank import (Poset, aggregate_by, enumerate_bounded_posets, enumerate_posets,
                     run_iteration_experiment)
from intrank.generate import _bounded_posets


def chain(n: int) -> Poset:
    return Poset.from_relation(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n: int) -> Poset:
    return Poset.from_relation(n, [])


def diamond() -> Poset:
    return Poset.from_relation(
        4, [(0, 1), (0, 2), (1, 3), (2, 3)], labels=("BOT", "a", "b", "TOP"))


def n5() -> Poset:
    """Bounded 5-element poset with maximal chains of sizes 4 and 3."""
    return Poset.from_relation(
        5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)],
        labels=("BOT", "x", "y", "z", "TOP"))


def two_stage() -> Poset:
    """BOT < a < b < c < TOP beside BOT < d < TOP: the only bounded poset on
    at most six elements that takes two iterations (stages of 6 and 5)."""
    return Poset.from_relation(
        6, [(0, 1), (1, 2), (2, 3), (3, 5), (0, 4), (4, 5)],
        labels=("BOT", "a", "b", "c", "d", "TOP"))


def boolean_lattice(k: int) -> Poset:
    """The subsets of a k-set under inclusion."""
    return Poset([sum(1 << t for t in range(1 << k) if s & t == s) for s in range(1 << k)],
                 labels=tuple(f"{s:0{k}b}" for s in range(1 << k)))


def cube3() -> Poset:
    return boolean_lattice(3)


def standard_example(k: int) -> Poset:
    """S_k: minimal a_0..a_{k-1} (elements 0..k-1) below maximal
    b_0..b_{k-1} (elements k..2k-1), with a_i < b_j iff i != j."""
    return Poset.from_relation(2 * k, [(i, k + j) for i in range(k) for j in range(k) if i != j])


def crowns(*sizes: int) -> Poset:
    """Disjoint crowns: the k-crown has minimal a_0..a_{k-1} below maximal
    b_0..b_{k-1}, with a_i < b_i and a_i < b_{i+1 mod k}. Every element
    meets two others, so refining colours never tells the crowns apart."""
    pairs, base = [], 0
    for k in sizes:
        pairs += [(base + i, base + k + j) for i in range(k) for j in (i, (i + 1) % k)]
        base += 2 * k
    return Poset.from_relation(base, pairs)


def bounded_chains(count: int, size: int) -> Poset:
    """`count` disjoint chains of `size` elements, with a bottom and a top added."""
    return Poset.from_relation(count * size, [(c * size + i, c * size + i + 1)
                                              for c in range(count)
                                              for i in range(size - 1)]).add_bounds()


@pytest.fixture(scope="session")
def bounded_corpus():
    """All bounded posets of sizes 3 through 9, up to isomorphism."""
    out = []
    for size in range(3, 10):
        out.extend(enumerate_bounded_posets(size))
    return out


@pytest.fixture(scope="session")
def size10_run():
    """One streamed pass over the 16,999 bounded posets of size 10: their
    means by size, and how many posets take each number of iterations.

    Each record goes to aggregate_by as it is made; no list holds them."""
    iterations = Counter()

    def records():
        for p in _bounded_posets(10):
            record = run_iteration_experiment([p], ["P"])[0]
            iterations[record.iterations] += 1
            yield record

    return aggregate_by(records(), "size"), iterations


@pytest.fixture(scope="session")
def free_posets_by_size():
    return {n: enumerate_posets(n) for n in range(1, 7)}
