from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import antichain, chain, cube3, diamond, n5
from intrank import (
    CapExceeded,
    IntInterval,
    IntervalOrder,
    Poset,
    RangeError,
    RankAssignment,
    RankPoset,
    TooSmall,
    UnboundedError,
    average_rank_width,
    classify_rank_function,
    conjugate_image,
    conjugate_rank,
    is_interval_rank_function,
    iterate_to_chain,
    phi,
    rank_all,
    rank_image,
    standard_rank,
    total_preorder,
)


def iv(lo, hi):
    return IntInterval(lo, hi)


def ranks_by_label(p, ra):
    return {p.labels[a]: ra[a] for a in range(p.n)}


class TestStandardRank:
    def test_chain3(self):
        p = chain(3)
        ra = standard_rank(p)
        assert ra.ranks == (iv(2, 2), iv(1, 1), iv(0, 0))
        assert ra.bound == 2

    def test_n5_table(self):
        p = n5()
        got = ranks_by_label(p, standard_rank(p))
        assert got == {"TOP": iv(0, 0), "y": iv(1, 1), "z": iv(1, 2),
                       "x": iv(2, 2), "BOT": iv(3, 3)}

    def test_extremes(self, bounded_corpus):
        for p in bounded_corpus[:60]:
            ra = standard_rank(p)
            h = p.height()
            assert ra[p.top] == iv(0, 0)
            assert ra[p.bottom] == iv(h - 1, h - 1)
            for a in range(p.n):
                assert 0 <= ra[a].lo <= ra[a].hi <= h - 1

    def test_rejects_unbounded(self):
        with pytest.raises(UnboundedError):
            standard_rank(antichain(3))

    def test_rejects_tiny(self):
        with pytest.raises(TooSmall):
            standard_rank(chain(1))

    def test_two_element_poset(self):
        ra = standard_rank(chain(2))
        assert ra.ranks == (iv(1, 1), iv(0, 0))

    def test_width_zero_iff_spindle(self, bounded_corpus):
        for p in bounded_corpus[:120]:
            ra = standard_rank(p)
            spindle = set(p.spindle_elements())
            for a in range(p.n):
                assert (ra[a].width() == 0) == (a in spindle)

    def test_strict_homomorphism_both_endpoints(self, bounded_corpus):
        for p in bounded_corpus[:120]:
            ra = standard_rank(p)
            for a in range(p.n):
                for b in range(p.n):
                    if p.lt(a, b):
                        assert ra[a].lo > ra[b].lo
                        assert ra[a].hi > ra[b].hi


class TestConjugateRank:
    def test_chain3_middle(self):
        # phi([1,1], 3) stretches the point rank to [1, 2*2-1]
        ra = conjugate_rank(chain(3))
        assert ra[1] == iv(1, 3)

    def test_n5_z(self):
        p = n5()
        assert conjugate_rank(p)[p.index("z")] == iv(1, 4)

    def test_extremes(self, bounded_corpus):
        for p in bounded_corpus[:60]:
            ra = conjugate_rank(p)
            h = p.height()
            assert ra[p.top] == iv(0, 2 * (h - 1))
            assert ra[p.bottom] == iv(h - 1, h - 1)
            assert ra.bound == 2 * (h - 1)

    def test_intervals_always_valid(self, bounded_corpus):
        # lower end never crosses the stretched upper end
        for p in bounded_corpus[:200]:
            for a in range(p.n):
                r = conjugate_rank(p)[a]
                assert 0 <= r.lo <= r.hi


class TestClassification:
    def test_standard_is_dual_weak(self, bounded_corpus):
        for p in bounded_corpus[:40]:
            assert classify_rank_function(standard_rank(p)) is IntervalOrder.DUAL_WEAK

    def test_conjugate_is_subset(self, bounded_corpus):
        for p in bounded_corpus[:40]:
            assert classify_rank_function(conjugate_rank(p)) is IntervalOrder.SUBSET

    def test_constant_is_none(self):
        p = chain(2)
        f = RankAssignment(p, (iv(1, 1), iv(1, 1)), 1)
        assert classify_rank_function(f) is None

    def test_weak_and_superset_directions(self):
        p = chain(2)
        weak = RankAssignment(p, (iv(0, 0), iv(1, 1)), 1)
        assert classify_rank_function(weak) is IntervalOrder.WEAK
        sup = RankAssignment(p, (iv(0, 3), iv(1, 2)), 3)
        assert classify_rank_function(sup) is IntervalOrder.SUPERSET

    def test_rank_count_must_match_poset(self):
        # The ranks of a 4-chain would classify as dual-weak on a 3-chain.
        four = standard_rank(chain(4)).ranks
        for ranks in (four, four[:1]):
            message = f"need 3 ranks, one per element, not {len(ranks)}"
            with pytest.raises(ValueError, match=message):
                RankAssignment(chain(3), ranks, 3)

    def test_vacuous_reports_dual_weak(self):
        p = antichain(2)
        f = RankAssignment(p, (iv(0, 0), iv(5, 5)), 5)
        assert classify_rank_function(f) is IntervalOrder.DUAL_WEAK


class TestIsIntervalRankFunction:
    def test_standard_against_dual_weak(self):
        p = n5()
        assert is_interval_rank_function(standard_rank(p), "dual-weak")

    def test_conjugate_against_subset(self):
        p = n5()
        assert is_interval_rank_function(conjugate_rank(p), IntervalOrder.SUBSET)

    def test_standard_not_strong(self):
        assert not is_interval_rank_function(standard_rank(n5()), "strong")

    def test_order_strictness_weaker_than_endpoint_strictness(self):
        # one shared endpoint still satisfies the weak order strictly,
        # but the endpoint map is no longer strictly monotone
        p = chain(2)
        f = RankAssignment(p, (iv(0, 1), iv(0, 2)), 2)
        assert is_interval_rank_function(f, "weak")
        assert classify_rank_function(f) is None


class TestRankImage:
    def test_n5_is_five_chain(self):
        rp = rank_image(n5())
        assert rp.is_chain()
        assert rp.intervals == (iv(3, 3), iv(2, 2), iv(1, 2), iv(1, 1), iv(0, 0))
        assert all(len(b) == 1 for b in rp.blocks)

    def test_diamond_collapses_middle(self):
        rp = rank_image(diamond())
        assert rp.is_chain()
        assert rp.intervals == (iv(2, 2), iv(1, 1), iv(0, 0))
        assert rp.blocks == ((0,), (1, 2), (3,))

    def test_distinct_ranks_do_not_collapse(self):
        # two middle chains of unequal length: every rank is distinct but
        # the image is not a chain
        p = Poset.from_relation(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 4)])
        rp = rank_image(p)
        assert len(rp) == 6
        assert all(len(b) == 1 for b in rp.blocks)
        assert set(rp.intervals) == {iv(0, 0), iv(1, 1), iv(1, 3),
                                     iv(2, 2), iv(3, 3), iv(4, 4)}
        assert not rp.is_chain()

    def test_block_partition(self, bounded_corpus):
        for p in bounded_corpus[:120]:
            rp = rank_image(p)
            seen = sorted(e for blk in rp.blocks for e in blk)
            assert seen == list(range(p.n))
            ra = standard_rank(p)
            for i, blk in enumerate(rp.blocks):
                for e in blk:
                    assert ra[e] == rp.intervals[i]
                    assert rp.block_index(e) == i

    def test_block_index_outside_the_source(self):
        with pytest.raises(LookupError, match="element 5 not in any block"):
            rank_image(diamond()).block_index(5)

    def test_image_order_is_dual_weak_restriction(self, bounded_corpus):
        for p in bounded_corpus[:80]:
            rp = rank_image(p)
            for i, x in enumerate(rp.intervals):
                for j, y in enumerate(rp.intervals):
                    expected = y.lo <= x.lo and y.hi <= x.hi
                    assert rp.order.leq(i, j) == expected

    def test_map_is_strict_homomorphism(self, bounded_corpus):
        for p in bounded_corpus[:80]:
            rp = rank_image(p)
            ra = standard_rank(p)
            pos = {ivl: k for k, ivl in enumerate(rp.intervals)}
            for a in range(p.n):
                for b in range(p.n):
                    if p.lt(a, b):
                        ia, ib = pos[ra[a]], pos[ra[b]]
                        assert ia != ib and rp.order.lt(ia, ib)

    def test_height_never_drops(self, bounded_corpus):
        for p in bounded_corpus[:200]:
            assert rank_image(p).order.height() >= p.height()

    def test_width_never_grows(self, bounded_corpus):
        for p in bounded_corpus[:200]:
            assert rank_image(p).order.width() <= p.width()

    def test_graded_gives_chain(self):
        assert rank_image(cube3()).is_chain()
        assert rank_image(chain(6)).is_chain()
        assert rank_image(diamond()).is_chain()

    def test_linear_extension_listing(self, bounded_corpus):
        # intervals are listed image-bottom first, consistent with the order
        for p in bounded_corpus[:40]:
            rp = rank_image(p)
            for i in range(len(rp)):
                for j in range(len(rp)):
                    if rp.order.lt(i, j):
                        assert i < j


class TestRankAll:
    def test_diamond_fixed(self):
        p = diamond()
        assert rank_all(p) == p

    def test_chain_fixed(self):
        p = chain(5)
        assert rank_all(p) == p

    def test_n5_becomes_chain(self):
        p = n5()
        q = rank_all(p)
        assert q.is_chain()
        order = sorted(range(q.n), key=lambda a: q.down_rows[a].bit_count())
        assert [q.labels[a] for a in order] == ["BOT", "x", "z", "y", "TOP"]

    def test_extends_order(self, bounded_corpus):
        for p in bounded_corpus[:150]:
            q = rank_all(p)
            for a in range(p.n):
                assert p.rows[a] & ~q.rows[a] == 0

    def test_ungraded_strictly_grows(self, bounded_corpus):
        for p in bounded_corpus[:150]:
            q = rank_all(p)
            before = sum(r.bit_count() for r in p.rows)
            after = sum(r.bit_count() for r in q.rows)
            if p.is_graded():
                assert after >= before
            else:
                assert after > before

    def test_rank_all_graded_implies_image_graded(self, bounded_corpus):
        for p in bounded_corpus[:150]:
            if rank_all(p).is_graded():
                assert rank_image(p).order.is_graded()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_criterion_3_over_random_relations(data):
    # Bounded posets on up to 10 elements, closed from random generator
    # pairs that point upward along a random labelling, so never cyclic.
    n = data.draw(st.integers(1, 8))
    label = data.draw(st.permutations(range(n)))
    slots = [(label[i], label[j]) for i in range(n) for j in range(i + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    p = Poset.from_relation(n, [s for s, k in zip(slots, keep) if k]).add_bounds()
    h = p.height()
    ri = rank_image(p)
    assert ri.order.height() >= h
    assert ri.order.width() <= p.width()
    q = rank_all(p)
    assert all(p.rows[a] & ~q.rows[a] == 0 for a in range(p.n))
    if not oracles.brute_is_graded(p):
        assert sum(r.bit_count() for r in q.rows) > sum(r.bit_count() for r in p.rows)
    ci = conjugate_image(p)
    image = [phi(x, h) for x in ri.intervals]
    assert dict(zip(image, ri.blocks)) == dict(zip(ci.intervals, ci.blocks))
    at = {x: k for k, x in enumerate(ci.intervals)}
    assert all(ri.order.leq(i, j) == ci.order.leq(at[x], at[y])
               for i, x in enumerate(image) for j, y in enumerate(image))


class TestPhi:
    def test_examples(self):
        assert phi(iv(1, 2), 4) == iv(1, 4)
        assert phi(iv(0, 0), 4) == iv(0, 6)
        assert phi(iv(0, 0), 2) == iv(0, 2)

    def test_range_error(self):
        with pytest.raises(RangeError):
            phi(iv(3, 3), 2)

    def test_maps_standard_onto_conjugate(self, bounded_corpus):
        for p in bounded_corpus[:150]:
            h = p.height()
            std = standard_rank(p)
            conj = conjugate_rank(p)
            for a in range(p.n):
                assert phi(std[a], h) == conj[a]

    def test_order_embedding(self, bounded_corpus):
        # dual-weak comparisons become containment comparisons and back
        for p in bounded_corpus[:60]:
            h = p.height()
            values = set(standard_rank(p).ranks)
            for x in values:
                for y in values:
                    dw = IntervalOrder.DUAL_WEAK.leq(x, y)
                    assert dw == (phi(x, h).lo >= phi(y, h).lo
                                  and phi(x, h).hi <= phi(y, h).hi)


class TestConjugateImage:
    def test_isomorphic_to_rank_image(self, bounded_corpus):
        # phi is an order isomorphism from dual-weak to containment that
        # keeps the listing, so both images have the same rows and blocks.
        for p in bounded_corpus:
            a = rank_image(p)
            b = conjugate_image(p)
            assert (a.order.rows, a.blocks) == (b.order.rows, b.blocks)

    def test_phi_matches_blocks(self, bounded_corpus):
        for p in bounded_corpus[:60]:
            h = p.height()
            a = rank_image(p)
            b = conjugate_image(p)
            mapped = {phi(x, h): blk for x, blk in zip(a.intervals, a.blocks)}
            assert mapped == dict(zip(b.intervals, b.blocks))

    def test_n5(self):
        ci = conjugate_image(n5())
        assert len(ci) == 5
        assert ci.is_chain()
        assert set(ci.intervals) == {iv(3, 3), iv(2, 4), iv(1, 4),
                                     iv(1, 5), iv(0, 6)}


class TestIteration:
    def test_chain_takes_zero(self):
        trace = iterate_to_chain(chain(4))
        assert trace.iterations_to_chain == 0
        assert trace.stages == ()
        assert trace.preorder_levels == ((3,), (2,), (1,), (0,))

    def test_diamond_takes_one(self):
        p = diamond()
        trace = iterate_to_chain(p)
        assert trace.iterations_to_chain == 1
        assert trace.preorder_levels == ((3,), (1, 2), (0,))

    def test_n5_takes_one(self):
        p = n5()
        trace = iterate_to_chain(p)
        assert trace.iterations_to_chain == 1
        names = [tuple(p.labels[a] for a in lvl) for lvl in trace.preorder_levels]
        assert names == [("TOP",), ("y",), ("z",), ("x",), ("BOT",)]

    def test_stage_shape(self, bounded_corpus):
        for p in bounded_corpus[:120]:
            trace = iterate_to_chain(p)
            assert trace.iterations_to_chain == len(trace.stages)
            if trace.stages:
                assert trace.stages[-1].is_chain()
                for stage in trace.stages[:-1]:
                    assert not stage.is_chain()

    def test_levels_partition_and_extend(self, bounded_corpus):
        for p in bounded_corpus[:120]:
            levels = iterate_to_chain(p).preorder_levels
            flat = sorted(e for lvl in levels for e in lvl)
            assert flat == list(range(p.n))
            at = {e: k for k, lvl in enumerate(levels) for e in lvl}
            for a in range(p.n):
                for b in range(p.n):
                    if p.lt(a, b):
                        assert at[a] > at[b]

    def test_total_preorder_diamond(self):
        p = diamond()
        assert total_preorder(p) == ((3,), (1, 2), (0,))

    def test_cap_never_fires_small(self, bounded_corpus):
        for p in bounded_corpus:
            if p.n <= 6:
                iterate_to_chain(p)

    def test_requires_bounded(self):
        with pytest.raises(UnboundedError):
            iterate_to_chain(antichain(2))


class TestAverageRankWidth:
    def test_graded_zero(self):
        assert average_rank_width(cube3()) == 0
        assert average_rank_width(diamond()) == 0
        assert average_rank_width(antichain(3).add_bounds()) == 0

    def test_n5(self):
        assert average_rank_width(n5()) == Fraction(1, 5)

    def test_zero_iff_graded(self, bounded_corpus):
        for p in bounded_corpus[:200]:
            assert (average_rank_width(p) == 0) == p.is_graded()


class TestExhaustiveOracles:
    """Rank extremality against full enumeration of strict rank functions."""

    def test_standard_rank_is_containment_maximal(self, bounded_corpus):
        small = [p for p in bounded_corpus if p.n <= 5]
        assert len(small) == 8
        for p in small:
            h = p.height()
            std = standard_rank(p)
            for f in oracles.strict_rank_functions(
                    p, IntervalOrder.DUAL_WEAK, h - 1):
                for a in range(p.n):
                    assert f[a].lo >= std[a].lo and f[a].hi <= std[a].hi

    def test_enumeration_contains_the_operators(self, bounded_corpus):
        # sanity on the oracle itself: the two operators are members of the
        # families they are extremal in, and every member is order-strict
        for p in bounded_corpus:
            if p.n > 4:
                continue
            h = p.height()
            dual = list(oracles.strict_rank_functions(
                p, IntervalOrder.DUAL_WEAK, h - 1))
            assert standard_rank(p).ranks in dual
            sub = list(oracles.strict_rank_functions(
                p, IntervalOrder.SUBSET, 2 * (h - 1)))
            assert conjugate_rank(p).ranks in sub
            for f in dual[:50]:
                fa = RankAssignment(p, f, h - 1)
                assert is_interval_rank_function(fa, IntervalOrder.DUAL_WEAK)

    def test_conjugate_rank_is_weakly_minimal(self, bounded_corpus):
        small = [p for p in bounded_corpus if p.n <= 5]
        for p in small:
            h = p.height()
            conj = conjugate_rank(p)
            for f in oracles.strict_rank_functions(
                    p, IntervalOrder.SUBSET, 2 * (h - 1)):
                for a in range(p.n):
                    assert conj[a].lo <= f[a].lo and conj[a].hi <= f[a].hi


def test_convergence_within_size_steps(bounded_corpus):
    # the iteration cap equals the element count; nothing in the corpus
    # comes close to it
    for p in bounded_corpus:
        try:
            trace = iterate_to_chain(p)
        except CapExceeded:
            pytest.fail(f"iteration did not converge on {p!r}")
        assert trace.iterations_to_chain <= p.n


def test_cap_raises_after_size_stages(monkeypatch):
    # Force every stage to read as non-chain: the cap stops after |p| stages.
    tested = []
    monkeypatch.setattr(RankPoset, "is_chain", lambda stage: tested.append(stage.keys))
    p = diamond()
    with pytest.raises(CapExceeded, match="no chain after 4 iterations"):
        iterate_to_chain(p)
    assert len(tested) == p.n


# How long the iteration takes. Conjectured, not proved: a bounded poset of
# size n reaches a chain within ceil((n - 3) / 2) iterations, and the bounded
# chain of n - 3 elements plus one point incomparable to it takes exactly
# that many. Size n maps to (most iterations, posets that take that many).
MOST_ITERATIONS = {3: (0, 1), 4: (1, 1), 5: (1, 4), 6: (2, 1), 7: (2, 9), 8: (3, 2),
                   9: (3, 34), 10: (4, 10)}


def test_most_iterations_by_size(bounded_corpus, size10_run):
    counts = {n: Counter() for n in MOST_ITERATIONS}
    for p in bounded_corpus:
        counts[p.n][iterate_to_chain(p).iterations_to_chain] += 1
    counts[10] = size10_run[1]  # the pass that pins the size-10 means
    most = {n: max(c.items()) for n, c in counts.items()}
    assert most == MOST_ITERATIONS
    assert all(k == -(-(n - 3) // 2) for n, (k, _) in most.items())


@pytest.mark.parametrize("n", range(4, 41))
def test_chain_plus_point_takes_the_most(n):
    p = Poset.from_relation(n - 2, [(i, i + 1) for i in range(n - 4)]).add_bounds()
    assert iterate_to_chain(p).iterations_to_chain == -(-(n - 3) // 2)
