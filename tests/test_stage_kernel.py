"""Per-stage poset structure against the brute-force oracles.

Every stage of iterate_to_chain reads chain heights (level masks), the chain
test (distinct up-set sizes) and down rows (primed from the rank-image
sweep on image posets). These must agree with recursion over p.lt, pairwise
comparability and the transpose of the rows, on the inputs and on every
stage image.
"""

import pytest

from intrank import CycleError, iterate_to_chain, rank_image
from conftest import diamond
from oracles import brute_height, brute_heights, brute_is_chain
from test_rank_kernel import random_posets


def assert_structure_matches(p):
    assert (p.up_heights, p.down_heights) == brute_heights(p)
    assert p.is_chain() == brute_is_chain(p)
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
    def refuse(rows, n):
        raise CycleError("refused")

    monkeypatch.setattr("intrank.poset.check_partial_order", refuse)
    with pytest.raises(CycleError, match="refused"):
        rank_image(diamond())
