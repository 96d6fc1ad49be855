"""Per-stage poset structure against the brute-force oracles.

Chain heights (level masks, down heights swept bottom first over the up-set
rows), the chain test (distinct up-set sizes), the top (the AND of all
rows), the bottom, the covers (from up-set rows alone) and down rows must
agree with recursion over p.lt, pairwise comparability, a scan of the
up-sets and down-sets, the pairwise cover definition and the transpose of
the rows, on the inputs and on every stage image.
"""

import pytest

from intrank import CycleError, iterate_to_chain, rank_image
from conftest import diamond, two_stage
from oracles import brute_height, brute_heights, brute_is_chain
from test_rank_kernel import random_posets


def assert_structure_matches(p):
    assert (p.up_heights, p.down_heights) == brute_heights(p)
    assert p.is_chain() == brute_is_chain(p)
    in_every_upset = [j for j in range(p.n) if all(p.leq(i, j) for i in range(p.n))]
    assert p.top == (in_every_upset[0] if in_every_upset else None)
    in_every_downset = [i for i in range(p.n) if all(p.leq(i, j) for j in range(p.n))]
    assert p.bottom == (in_every_downset[0] if in_every_downset else None)
    assert p.cover_rows == tuple(
        sum(1 << j for j in range(p.n)
            if p.lt(i, j) and not any(p.lt(i, k) and p.lt(k, j) for k in range(p.n)))
        for i in range(p.n))
    assert p.down_rows == tuple(sum(1 << i for i in range(p.n) if p.leq(i, j))
                                for j in range(p.n))
    # views of the first, middle and last element
    for a in sorted({0, p.n // 2, p.n - 1}):
        for view in (p.upset(a), p.downset(a), p.hourglass(a)):
            assert view.height() == brute_height(view.as_poset())


def with_stage_images(posets):
    for p in posets:
        yield p
        if p.n >= 2 and p.is_bounded():
            for stage in iterate_to_chain(p).stages:
                yield stage.order


def test_free_posets_and_stages(free_posets_by_size):
    free = [p for posets in free_posets_by_size.values() for p in posets]
    for p in with_stage_images(free):
        assert_structure_matches(p)


def test_bounded_corpus_and_stages(bounded_corpus):
    for p in with_stage_images(bounded_corpus):
        assert_structure_matches(p)


def test_random_posets_and_stages():
    for p in with_stage_images(random_posets()):
        assert_structure_matches(p)


def test_images_are_validated(monkeypatch):
    checked = []

    def refuse(rows, n):
        checked.append(n)
        raise CycleError("refused")

    p = two_stage()
    trace = iterate_to_chain(p)
    assert [len(stage) for stage in trace.stages] == [6, 5]
    monkeypatch.setattr("intrank.poset.check_partial_order", refuse)
    with pytest.raises(CycleError, match="refused"):
        rank_image(diamond())
    # The first stage is a rank image, validated as it is built.
    with pytest.raises(CycleError, match="refused"):
        iterate_to_chain(p)
    assert checked == [3, 6]
    # A later stage is built from keys; its order is validated when first read.
    with pytest.raises(CycleError, match="refused"):
        trace.stages[1].order
    assert checked == [3, 6, 5]
    # A refused read leaves the stage's keys, so a later read builds it.
    monkeypatch.undo()
    fresh = iterate_to_chain(p).stages[1]
    assert trace.stages[1].order == fresh.order
    assert trace.stages[1].intervals == fresh.intervals
