"""The rank-image kernel against the pairwise reference in tests/oracles.py.

rank_image, conjugate_image and rank_all build their rows from running-OR
endpoint masks (intervals._endpoint_rows); the oracles compare every pair of
intervals. Both must give
the same intervals, rows, labels and blocks, and iterate_to_chain the same
stages and preorder levels. After its first stage, iterate_to_chain ranks
integer keys alone (rank._key_heights, RankPoset.is_chain); the oracles
rank every stage's poset.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intrank import (
    GenConfig,
    IntervalOrder,
    Poset,
    RankPoset,
    conjugate_image,
    iterate_to_chain,
    random_graph_poset,
    random_kdim_poset,
    rank_all,
    rank_image,
)
from intrank.intervals import _endpoint_rows
from intrank.rank import _key_heights

from oracles import (
    brute_heights,
    brute_is_chain,
    brute_iteration_stages,
    brute_preorder_levels,
    brute_rank_all,
    brute_rank_image,
)


def assert_kernel_matches(p):
    for image, order in ((rank_image, "dual-weak"), (conjugate_image, "subset")):
        got, want = image(p), brute_rank_image(p, order)
        assert got.intervals == want.intervals
        assert got.order.rows == want.order.rows
        assert got.order.labels == want.order.labels
        assert got.blocks == want.blocks
    assert rank_all(p) == brute_rank_all(p)
    trace = iterate_to_chain(p)
    assert trace.preorder_levels == brute_preorder_levels(p)
    assert [(len(s), s.blocks, s.intervals, s.order.rows, s.order.labels)
            for s in trace.stages] == \
        [(len(s), s.blocks, s.intervals, s.order.rows, s.order.labels)
         for s in brute_iteration_stages(p)]


def random_posets():
    out = []
    for i in range(100):
        n = 10 + i * 30 // 99
        out.append(random_graph_poset(GenConfig("random-graph", n, p=0.1 + i % 5 * 0.1,
                                                seed=i)))
        out.append(random_kdim_poset(GenConfig("random-kdim", n, k=2 + i % 3, seed=i)))
    return out


def test_bounded_corpus(bounded_corpus):
    for p in bounded_corpus:
        assert_kernel_matches(p)


def test_random_posets_10_to_40():
    posets = random_posets()
    assert len(posets) == 200
    assert {p.n - 2 for p in posets} == set(range(10, 41))
    for p in posets:
        assert_kernel_matches(p)


@pytest.mark.parametrize("n", [100, 400])
def test_large_random_graph(n):
    p = random_graph_poset(GenConfig("random-graph", n, p=0.1, seed=n))
    assert rank_image(p).order.n > n // 2  # many distinct ranks, not a near-chain
    assert_kernel_matches(p)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sets(st.integers(0, 12).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, 12))),
               min_size=1, max_size=20))
def test_key_kernel_matches_induced_poset(keys):
    # Stage keys are distinct and listed bottom first, as _image lists them:
    # descending under the dual-weak order, by (-lo, hi) under containment.
    blocks = tuple((i,) for i in range(len(keys)))
    dual_weak = sorted(keys, reverse=True)
    p = Poset(_endpoint_rows(dual_weak, IntervalOrder.DUAL_WEAK))
    assert tuple(map(tuple, _key_heights(dual_weak))) == brute_heights(p)
    assert RankPoset(dual_weak, blocks).is_chain() == brute_is_chain(p)
    contained = sorted(keys, key=lambda k: (-k[0], k[1]))
    assert RankPoset(contained, blocks, IntervalOrder.SUBSET).is_chain() == \
        brute_is_chain(Poset(_endpoint_rows(contained, IntervalOrder.SUBSET)))


def test_keys_and_blocks_pair_up():
    # len() counts blocks while is_chain, intervals and the rows read keys.
    with pytest.raises(ValueError, match="2 keys but 0 blocks"):
        RankPoset(((1, 1), (0, 0)), ())
