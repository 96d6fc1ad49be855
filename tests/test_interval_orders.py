import random
import sys
import types

import pytest

import oracles
from intrank import (
    BudgetExceeded,
    CycleError,
    GroundMismatch,
    IntInterval,
    IntervalOrder,
    OrderRelationTable,
    all_intervals,
    are_conjugate,
    are_pseudo_conjugate,
    find_conjugates_of_strong,
    group_conjugates_by_isomorphism,
    interval_poset,
    leq_strong,
    leq_weak,
    subset,
)
from intrank.intervals import _orientations


def iv(lo, hi):
    return IntInterval(lo, hi)


class TestIntInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            iv(2, 1)
        with pytest.raises(ValueError):
            iv(-1, 0)

    def test_width_and_str(self):
        assert iv(1, 4).width() == 3
        assert str(iv(0, 2)) == "[0,2]"
        assert iv(3, 3).width() == 0


class TestPointwiseOrders:
    def test_strong(self):
        assert leq_strong(iv(1, 2), iv(3, 4))
        assert not leq_strong(iv(1, 2), iv(2, 3))
        assert not leq_strong(iv(2, 3), iv(1, 2))
        assert leq_strong(iv(2, 4), iv(2, 4))

    def test_subset(self):
        assert subset(iv(3, 4), iv(2, 4))
        assert subset(iv(1, 3), iv(1, 3))
        assert not subset(iv(1, 3), iv(2, 4))
        assert not subset(iv(2, 4), iv(1, 3))

    def test_weak(self):
        assert leq_weak(iv(2, 4), iv(3, 4))
        assert leq_weak(iv(1, 3), iv(1, 3))
        assert not leq_weak(iv(1, 3), iv(2, 2))
        assert not leq_weak(iv(2, 2), iv(1, 3))

    def test_weak_is_product_order(self):
        ground = all_intervals(0, 4)
        for x in ground:
            for y in ground:
                assert leq_weak(x, y) == (x.lo <= y.lo and x.hi <= y.hi)
                assert subset(x, y) == (x.lo >= y.lo and x.hi <= y.hi)

    @pytest.mark.parametrize("order", list(IntervalOrder))
    def test_partial_order_axioms(self, order):
        ground = all_intervals(0, 5)
        for x in ground:
            assert order.leq(x, x)
        for x in ground:
            for y in ground:
                if x != y and order.leq(x, y):
                    assert not order.leq(y, x)
                    for z in ground:
                        if order.leq(y, z):
                            assert order.leq(x, z)

    def test_enum_round_trip(self):
        assert IntervalOrder("dual-weak") is IntervalOrder.DUAL_WEAK
        assert IntervalOrder.DUAL_WEAK.leq(iv(2, 3), iv(1, 2))
        assert IntervalOrder.SUPERSET.leq(iv(1, 4), iv(2, 3))
        assert not IntervalOrder.WEAK.lt(iv(1, 2), iv(1, 2))


class TestGroundSets:
    def test_small_ground(self):
        assert all_intervals(1, 2) == [iv(1, 1), iv(1, 2), iv(2, 2)]

    def test_count(self):
        assert len(all_intervals(1, 4)) == 10
        assert all_intervals(0, 0) == [iv(0, 0)]

    def test_bad_range(self):
        with pytest.raises(ValueError):
            all_intervals(3, 2)

    def test_interval_poset_weak_chain(self):
        p = interval_poset(all_intervals(1, 2), "weak")
        assert p.height() == 3

    def test_interval_poset_subset_v(self):
        p = interval_poset(all_intervals(1, 2), IntervalOrder.SUBSET)
        assert p.width() == 2
        assert p.height() == 2

    def test_interval_poset_singleton(self):
        p = interval_poset([iv(0, 0)], "strong")
        assert p.n == 1

    def test_large_endpoints(self):
        # Rows depend only on how endpoints compare, never on their size.
        big = 10 ** 12
        p = interval_poset([iv(0, big), iv(big, big)], "weak")
        assert p.rows == interval_poset([iv(0, 1), iv(1, 1)], "weak").rows
        assert ([t.rows for t in find_conjugates_of_strong(big, big + 2)]
                == [t.rows for t in find_conjugates_of_strong(0, 2)])
        with pytest.raises(ValueError, match="a poset needs at least one element"):
            interval_poset([], "weak")

    def test_interval_poset_rejects_duplicates(self):
        with pytest.raises(ValueError):
            interval_poset([iv(1, 2), iv(1, 2)], "weak")


class TestOrderRelationTable:
    def test_from_order_matches_pointwise(self):
        # Full grounds, and shuffled subfamilies that reach lo = 0 and the
        # top hi in any position, in every order, by both constructors.
        rng = random.Random(0)
        pool = all_intervals(0, 6)
        grounds = [all_intervals(0, k) for k in range(6)]
        grounds += [rng.sample(pool, rng.randint(1, len(pool))) for _ in range(200)]
        for ground in grounds:
            for order in IntervalOrder:
                want = tuple(sum(1 << j for j, y in enumerate(ground) if order.leq(x, y))
                             for x in ground)
                assert OrderRelationTable.from_order(ground, order).rows == want
                assert interval_poset(ground, order.value).rows == want

    def test_from_order_validates_once(self, monkeypatch):
        import intrank.poset
        calls = []
        check = intrank.poset.check_partial_order
        monkeypatch.setattr(intrank.poset, "check_partial_order",
                            lambda rows, n: calls.append(n) or check(rows, n))
        OrderRelationTable.from_order(all_intervals(0, 3), "weak")
        assert calls == [10]

    def test_construction_validates(self):
        from intrank import CycleError
        ground = (iv(0, 0), iv(1, 1))
        with pytest.raises(CycleError):
            OrderRelationTable(ground, (0b11, 0b11))  # mutual relation

    def test_is_its_own_poset(self):
        ground = all_intervals(1, 3)
        t = OrderRelationTable.from_order(ground, "weak")
        assert t.to_poset() is t
        assert t == interval_poset(ground, "weak")
        assert t.labels == tuple(str(x) for x in ground)

    def test_ground_must_be_distinct(self):
        with pytest.raises(ValueError):
            OrderRelationTable((iv(0, 1), iv(0, 1)), (0b01, 0b10))

    @pytest.mark.parametrize("seed", range(20))
    def test_from_relation_matches_closure_oracle(self, seed):
        rng = random.Random(seed)
        ground = tuple(rng.sample(all_intervals(0, 3), rng.randint(1, 7)))
        m = len(ground)
        # pairs pointing up in index order never close into a cycle
        gens = [(i, j) for i in range(m) for j in range(i + 1, m)
                if rng.random() < 0.3]
        t = OrderRelationTable.from_relation(ground, gens)
        assert type(t) is OrderRelationTable
        assert t.ground == ground
        assert t.strict_pairs() == {(a, b) for a, b in oracles.closure_pairs(m, gens)
                                    if a != b}

    def test_from_relation_rejects(self):
        ground = all_intervals(1, 2)
        with pytest.raises(CycleError):
            OrderRelationTable.from_relation(ground, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(IndexError):
            OrderRelationTable.from_relation(ground, [(0, 3)])

    def test_strict_pairs(self):
        t = OrderRelationTable.from_strict_pairs(
            (iv(0, 0), iv(2, 2)), [(0, 1)])
        assert t.strict_pairs() == frozenset({(0, 1)})
        assert t.to_poset().is_chain()

    def test_strict_pairs_rejects_out_of_range(self):
        ground = all_intervals(0, 2)
        n = len(ground)
        for pair in [(-1, 0), (0, -1), (0, n), (n, 0)]:
            with pytest.raises(IndexError, match=f"out of range for {n} elements"):
                OrderRelationTable.from_strict_pairs(ground, [pair])


class TestConjugacy:
    def test_chain_vs_antichain(self):
        ground = tuple(all_intervals(1, 2))
        total = OrderRelationTable.from_strict_pairs(
            ground, [(0, 1), (1, 2), (0, 2)])
        discrete = OrderRelationTable.from_strict_pairs(ground, [])
        assert are_conjugate(total, discrete)
        assert are_pseudo_conjugate(total, discrete)

    def test_order_not_conjugate_with_itself(self):
        t = OrderRelationTable.from_order(all_intervals(1, 2), "weak")
        assert not are_conjugate(t, t)

    def test_weak_subset_not_conjugate(self):
        ground = all_intervals(2, 4)
        w = OrderRelationTable.from_order(ground, "weak")
        s = OrderRelationTable.from_order(ground, "subset")
        assert not are_conjugate(w, s)
        assert are_pseudo_conjugate(w, s)

    def test_pseudo_conjugate_witness_pair(self):
        # [3,4] inside [2,4] and [2,4] weakly below [3,4]: comparable in both
        assert subset(iv(3, 4), iv(2, 4))
        assert leq_weak(iv(2, 4), iv(3, 4))

    @pytest.mark.parametrize("hi", [1, 2, 3, 4, 5])
    def test_weak_subset_pseudo_conjugate_small_grounds(self, hi):
        ground = all_intervals(0, hi)
        w = OrderRelationTable.from_order(ground, "weak")
        s = OrderRelationTable.from_order(ground, "subset")
        assert are_pseudo_conjugate(w, s)

    def test_weak_incomparable_means_strict_containment(self):
        ground = all_intervals(0, 5)
        for x in ground:
            for y in ground:
                if x != y and not leq_weak(x, y) and not leq_weak(y, x):
                    assert (subset(x, y) and x != y) or (subset(y, x) and x != y)

    def test_doubly_comparable_shares_endpoint(self):
        ground = all_intervals(0, 5)
        for x in ground:
            for y in ground:
                if x == y:
                    continue
                weak_cmp = leq_weak(x, y) or leq_weak(y, x)
                sub_cmp = subset(x, y) or subset(y, x)
                if weak_cmp and sub_cmp:
                    assert x.lo == y.lo or x.hi == y.hi

    def test_predicates_match_oracles(self):
        # every ordered pair of the five orders on 0..k, k <= 4, and each
        # search solution on 1..3 against the strong order and itself
        pairs = []
        for hi in range(5):
            tables = [OrderRelationTable.from_order(all_intervals(0, hi), o)
                      for o in IntervalOrder]
            pairs += [(t1, t2) for t1 in tables for t2 in tables]
        strong = OrderRelationTable.from_order(all_intervals(1, 3), "strong")
        for t in find_conjugates_of_strong(1, 3):
            pairs += [(t, strong), (strong, t), (t, t)]
        for t1, t2 in pairs:
            assert are_conjugate(t1, t2) == oracles.brute_are_conjugate(t1, t2)
            assert (are_pseudo_conjugate(t1, t2)
                    == oracles.brute_are_pseudo_conjugate(t1, t2))

    def test_ground_mismatch(self):
        t1 = OrderRelationTable.from_order(all_intervals(1, 2), "weak")
        t2 = OrderRelationTable.from_order(all_intervals(2, 3), "weak")
        with pytest.raises(GroundMismatch):
            are_conjugate(t1, t2)
        with pytest.raises(GroundMismatch):
            are_pseudo_conjugate(t1, t2)


class TestConjugateSearch:
    def test_endpoints_1_2(self):
        sols = find_conjugates_of_strong(1, 2)
        assert len(sols) == 2
        shapes = {frozenset(t.strict_pairs()) for t in sols}
        # the middle interval [1,2] sits above both points, or below both
        assert shapes == {frozenset({(0, 1), (2, 1)}),
                          frozenset({(1, 0), (1, 2)})}

    def test_trivial_ground(self):
        sols = find_conjugates_of_strong(0, 0)
        assert len(sols) == 1
        assert sols[0].strict_pairs() == frozenset()

    @pytest.mark.parametrize("lo,hi", [(1, 2), (1, 3), (0, 2)])
    def test_matches_exhaustive_orientation_oracle(self, lo, hi):
        ground = tuple(all_intervals(lo, hi))
        expected = oracles.brute_transitive_orientations(ground)
        got = {frozenset(t.strict_pairs()) for t in find_conjugates_of_strong(lo, hi)}
        assert got == expected

    def test_results_pass_conjugacy(self):
        ground = all_intervals(1, 3)
        strong = OrderRelationTable.from_order(ground, "strong")
        sols = find_conjugates_of_strong(1, 3)
        assert len(sols) == 4
        for t in sols:
            assert are_conjugate(t, strong)

    def test_limit_short_circuits(self):
        sols = find_conjugates_of_strong(1, 3, limit=2)
        assert len(sols) == 2
        full = find_conjugates_of_strong(1, 3)
        assert [t.rows for t in sols] == [t.rows for t in full[:2]]

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="limit must be nonnegative"):
            find_conjugates_of_strong(0, 2, limit=-1)
        assert find_conjugates_of_strong(0, 2, limit=0) == []

    @pytest.mark.parametrize("span", range(6))
    def test_matches_backtracking_oracle_on_full_grounds(self, span):
        # Shifting every endpoint keeps the overlap graph and the ground's
        # order, so lo = 0 and lo = 1 stand for every lo.
        for lo in (0, 1):
            ground = tuple(all_intervals(lo, lo + span))
            for limit in (None, 0, 1, 2, 3):
                got = find_conjugates_of_strong(lo, lo + span, limit, max_ground=None)
                assert ([t.rows for t in got]
                        == oracles.backtrack_orientations(ground, limit))

    def test_matches_backtracking_oracle_on_subfamilies(self):
        # Subfamilies of up to 8 intervals, in random order: full grounds of
        # span 3 and more have no solutions, so only subfamilies exercise
        # enumeration. k pairwise-overlapping intervals have k! orientations.
        rng = random.Random(0)
        pool = all_intervals(0, 6)
        solutions = 0
        for _ in range(300):
            ground = tuple(rng.sample(pool, rng.randint(1, 8)))
            for limit in (None, 2):
                got = _orientations(ground, limit)
                assert ([t.rows for t in got]
                        == oracles.backtrack_orientations(ground, limit))
                assert all(t.ground == ground for t in got)
                solutions += len(got)
        assert solutions > 1000

    @pytest.mark.parametrize("hi,nodes", [(2, 47), (3, 385), (4, 2819)])
    def test_search_node_counts(self, hi, nodes):
        # Deciding a < b adds b and its whole up-set to the rows of a and of
        # each element below a. A closure that adds only b still finds every
        # solution, by branching on pairs it should have forced: it takes
        # 50, 440 and 3,418 nodes.
        dfs = next(c for c in _orientations.__code__.co_consts
                   if isinstance(c, types.CodeType) and c.co_name == "dfs")
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call" and frame.f_code is dfs

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            find_conjugates_of_strong(0, hi, max_ground=None)
        finally:
            sys.setprofile(previous)
        assert calls == nodes

    def test_ground_budget(self):
        with pytest.raises(BudgetExceeded):
            find_conjugates_of_strong(0, 4)  # 15 intervals
        assert find_conjugates_of_strong(1, 3, max_ground=6)

    def test_endpoints_1_4_has_no_conjugate(self):
        # The overlap graph of the ten intervals on 1..4 admits no
        # transitive orientation (its induced 7-interval subgraph on the
        # witness already fails the implication-class criterion), so the
        # strong order on this ground has no exact conjugate. The
        # independent oracle agrees.
        ground = tuple(all_intervals(1, 4))
        assert not oracles.gamma_orientable(ground)
        witness = oracles.STRONG_1_4_WITNESS
        assert set(witness) <= set(ground)
        assert not oracles.gamma_orientable(witness)
        assert oracles.brute_transitive_orientations(witness) == set()
        assert find_conjugates_of_strong(1, 4) == []

    def test_oracle_agrees_on_orientable_grounds(self):
        assert oracles.gamma_orientable(tuple(all_intervals(1, 3)))
        assert oracles.gamma_orientable(tuple(all_intervals(1, 2)))

    def test_isomorphism_grouping(self):
        classes = group_conjugates_by_isomorphism(find_conjugates_of_strong(1, 3))
        assert sorted(len(c) for c in classes) == [2, 2]
        two = group_conjugates_by_isomorphism(find_conjugates_of_strong(1, 2))
        assert sorted(len(c) for c in two) == [1, 1]
