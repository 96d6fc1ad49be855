import pytest

from intrank import Poset, enumerate_bounded_posets, enumerate_posets


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


def cube3() -> Poset:
    rows = []
    for s in range(8):
        m = 0
        for t in range(8):
            if s & t == s:
                m |= 1 << t
        rows.append(m)
    return Poset(rows, labels=tuple(f"{s:03b}" for s in range(8)))


@pytest.fixture(scope="session")
def bounded_corpus():
    """All bounded posets of sizes 3 through 9, up to isomorphism."""
    out = []
    for size in range(3, 10):
        out.extend(enumerate_bounded_posets(size))
    return out


@pytest.fixture(scope="session")
def free_posets_by_size():
    return {n: enumerate_posets(n) for n in range(1, 7)}
