import itertools
import random
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (antichain, boolean_lattice, bounded_chains, chain, crowns, cube3,
                      diamond, n5, standard_example)
from intrank import (CycleError, GenConfig, NotComparable, Poset, SubsetView, UnboundedError,
                     generate)
from intrank.poset import check_partial_order


class TestFromRelation:
    def test_single_edge_closure(self):
        p = Poset.from_relation(2, [(0, 1)])
        pairs = {(i, j) for i in range(2) for j in range(2) if p.leq(i, j)}
        assert pairs == {(0, 0), (1, 1), (0, 1)}

    def test_transitivity_forced(self):
        p = Poset.from_relation(3, [(0, 1), (1, 2)])
        assert p.leq(0, 2)

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            Poset.from_relation(2, [(0, 1), (1, 0)])

    def test_long_cycle_rejected(self):
        with pytest.raises(CycleError):
            Poset.from_relation(3, [(0, 1), (1, 2), (2, 0)])

    def test_out_of_range_pair(self):
        for pair in [(0, 5), (5, 0), (-1, 0), (0, -1)]:
            with pytest.raises(IndexError) as err:
                Poset.from_relation(2, [pair])
            assert str(err.value) == f"pair {pair} out of range for 2 elements"

    def test_needs_an_element(self):
        with pytest.raises(ValueError, match="at least one element"):
            Poset.from_relation(0, [])

    def test_closure_idempotent(self):
        p = Poset.from_relation(4, [(0, 1), (1, 2), (0, 3)])
        again = Poset.from_relation(
            4, [(i, j) for i in range(4) for j in range(4) if p.leq(i, j)])
        assert again == Poset(p.rows)

    def test_closure_matches_naive_oracle(self):
        gens = [(0, 2), (2, 4), (1, 2), (4, 5)]
        p = Poset.from_relation(6, gens)
        expected = oracles.closure_pairs(6, gens)
        got = {(i, j) for i in range(6) for j in range(6) if p.leq(i, j)}
        assert got == expected

    def test_labels_checked(self):
        with pytest.raises(ValueError):
            Poset.from_relation(2, [], labels=("a",))
        with pytest.raises(ValueError):
            Poset.from_relation(2, [], labels=("a", "a"))

    def test_default_labels_shared_per_size(self):
        # Posets built without labels read x0..x{n-1}, from one tuple per size.
        for n in (1, 3, 7):
            a = Poset.from_relation(n, [])
            b = Poset([(1 << n) - 1 >> i << i for i in range(n)])
            assert a.labels == tuple(f"x{i}" for i in range(n))
            assert a.labels is b.labels
        assert Poset.from_relation(3, [], labels=("a", "b", "c")).labels == ("a", "b", "c")

    def test_long_chain_closes_without_recursion(self):
        # The closure walks 5,000 generators deep from element 0.
        n = 5000
        p = Poset.from_relation(n, [(i, i + 1) for i in reversed(range(n - 1))])
        full = (1 << n) - 1
        assert p.rows == tuple(full >> i << i for i in range(n))

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            Poset((0b10, 0b11))  # row 0 lacks its own reflexive bit
        with pytest.raises(ValueError):
            check_partial_order((0b011, 0b110, 0b100), 3)  # 0<1<2 but not 0<2
        with pytest.raises(CycleError):
            check_partial_order((0b11, 0b11), 2)

    @pytest.mark.parametrize("rows", [(0b101, 0b10), (-1,)])
    def test_row_bits_outside_the_elements(self, rows):
        with pytest.raises(ValueError, match="relation bits out of range"):
            Poset(rows)


class TestDunders:
    def test_len_and_repr(self):
        assert len(chain(3)) == 3
        assert repr(chain(3)) == "Poset(n=3, pairs=6)"

    def test_equality_and_hash(self):
        p, q = chain(3), Poset(chain(3).rows)
        assert p == q and hash(p) == hash(q)
        assert p.__eq__(p.rows) is NotImplemented
        assert p != p.rows


def relations(n, max_size=12):
    """Generator pairs on 0..n-1, cycles and self-loops included."""
    return st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    max_size=max_size)


def pair_rows(n, pairs):
    return tuple(sum(1 << j for i, j in pairs if i == a) for a in range(n))


class TestValidationProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.data())
    def test_from_relation_against_closure_oracle(self, data):
        n = data.draw(st.integers(1, 8))
        gens = data.draw(relations(n))
        closure = oracles.closure_pairs(n, gens)
        mutual = sorted((a, b) for a, b in closure if a != b and (b, a) in closure)
        if mutual:
            # The error names the first pair related both ways, i then j ascending.
            i, j = mutual[0]
            with pytest.raises(CycleError, match=f"^elements {i} and {j} are mutually related$"):
                Poset.from_relation(n, gens)
        else:
            assert Poset.from_relation(n, gens).rows == pair_rows(n, closure)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.data())
    def test_check_partial_order_against_axioms(self, data):
        # Closed relations with a few flipped pairs sit next to partial
        # orders; raw generator sets are mostly far from them.
        n = data.draw(st.integers(1, 8))
        rel = set(data.draw(relations(n)))
        if data.draw(st.booleans()):
            rel = oracles.closure_pairs(n, rel)
        rel ^= set(data.draw(relations(n, max_size=2)))
        reflexive = all((a, a) in rel for a in range(n))
        antisymmetric = not any(a != b and (b, a) in rel for a, b in rel)
        transitive = all((a, d) in rel for a, b in rel for c, d in rel if b == c)
        rows = pair_rows(n, rel)
        if reflexive and antisymmetric and transitive:
            check_partial_order(rows, n)
        elif reflexive and transitive:
            with pytest.raises(CycleError):
                check_partial_order(rows, n)
        elif antisymmetric:
            with pytest.raises(ValueError):
                check_partial_order(rows, n)
        else:
            with pytest.raises((ValueError, CycleError)):
                check_partial_order(rows, n)


class TestCovers:
    def test_chain_reduction(self):
        assert set(chain(3).covers().pairs) == {(0, 1), (1, 2)}

    def test_redundant_edge_removed(self):
        p = Poset.from_relation(3, [(0, 1), (1, 2), (0, 2)])
        assert set(p.covers().pairs) == {(0, 1), (1, 2)}

    def test_antichain_empty(self):
        assert len(antichain(3).covers()) == 0

    def test_cover_container_protocol(self):
        cov = diamond().covers()
        assert (0, 1) in cov and (0, 3) not in cov
        assert sorted(cov) == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_closure_of_covers_recovers_relation(self, free_posets_by_size):
        for p in free_posets_by_size[5]:
            rebuilt = Poset.from_relation(p.n, list(p.covers().pairs))
            assert rebuilt.rows == p.rows


class TestSubsetViews:
    def test_chain_upset(self):
        assert chain(3).upset(1).element_set() == {1, 2}

    def test_n5_downset(self):
        p = n5()
        z = p.index("z")
        assert p.downset(z).element_set() == {p.index("BOT"), z}

    def test_hourglass_contains_bounds(self, bounded_corpus):
        for p in bounded_corpus[:50]:
            for a in range(p.n):
                hg = p.hourglass(a).element_set()
                assert p.bottom in hg and p.top in hg

    def test_interval_requires_comparable(self):
        p = diamond()
        with pytest.raises(NotComparable):
            p.interval(1, 2)
        assert p.interval(0, 3).element_set() == {0, 1, 2, 3}

    def test_view_height_matches_induced_poset(self, bounded_corpus):
        for p in [n5()] + bounded_corpus[::10]:
            for a in range(p.n):
                for view in (p.upset(a), p.downset(a), p.hourglass(a),
                             p.interval(p.bottom, a)):
                    assert view.height() == view.as_poset().height()

    def test_len_and_contains(self):
        view = chain(4).upset(2)
        assert len(view) == 2
        assert 3 in view and 1 not in view

    def test_as_poset_keeps_labels(self):
        p = n5()
        sub = p.downset(p.index("y")).as_poset()
        assert set(sub.labels) == {"BOT", "x", "y"}

    @pytest.mark.parametrize("members", [(-1,), (3,), (0, 1, 3)])
    def test_members_out_of_range(self, members):
        # as_poset builds without validation, and height() shifts by each
        # member, so a member outside 0..n-1 is refused when the view is made.
        bad = members[0] if members[0] < 0 else members[-1]
        with pytest.raises(IndexError) as err:
            SubsetView(chain(3), members)
        assert str(err.value) == f"element {bad} out of range for 3 elements"


class TestHeightWidth:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_chain_extremes(self, n):
        assert chain(n).height() == n
        assert chain(n).width() == 1
        assert antichain(n).height() == 1
        assert antichain(n).width() == n

    def test_n5_height(self):
        assert n5().height() == 4

    def test_bounded_antichain_width(self):
        p = antichain(4).add_bounds()
        assert p.width() == 4

    def test_cube_width(self):
        assert cube3().width() == 3

    def test_against_oracles_small(self, free_posets_by_size):
        for n in (3, 4, 5):
            for p in free_posets_by_size[n]:
                assert p.height() == oracles.brute_height(p)
                assert p.width() == oracles.brute_width(p)

    @pytest.mark.parametrize("model", ["random-graph", "random-kdim"])
    def test_width_against_oracle_on_random_posets(self, model):
        for n in range(8, 13):
            for seed in range(6):
                p = generate(GenConfig(model, n, p=0.3, seed=seed, add_bounds=False))
                assert p.width() == oracles.brute_width(p)

    def test_width_of_deep_staircase(self):
        # L_i < R_i, R_{i+1} for i < k and L* < R_0: matching L* last shifts
        # every earlier match, an augmenting path k + 1 edges long.
        k = 1200
        rows = [1 << i | 1 << (k + 1 + i) | 1 << (k + 2 + i) for i in range(k)]
        rows.append(1 << k | 1 << (k + 1))
        rows += [1 << (k + 1 + i) for i in range(k + 1)]
        p = Poset(rows)
        assert p.n == 2402 and p.height() == 2
        assert p.width() == 1201


class TestChains:
    def test_diamond_chains(self):
        p = diamond()
        assert len(p.maximal_chains()) == 2
        assert len(p.spindle_chains()) == 2
        assert set(p.spindle_elements()) == {0, 1, 2, 3}

    def test_n5_spindle(self):
        p = n5()
        names = {p.labels[a] for a in p.spindle_elements()}
        assert names == {"BOT", "x", "y", "TOP"}
        assert p.spindle_length(p.index("z")) == 3
        assert p.spindle_length(p.index("x")) == 4

    def test_chain_is_its_own_spindle(self):
        p = chain(4)
        assert p.maximal_chains() == [(0, 1, 2, 3)]
        assert p.spindle_chains() == [(0, 1, 2, 3)]

    def test_maximal_chains_against_oracle(self, free_posets_by_size, bounded_corpus):
        # listed in lexicographic order: minimal elements, then covers, by index
        for p in free_posets_by_size[5][::7] + bounded_corpus:
            assert p.maximal_chains() == sorted(oracles.brute_maximal_chains(p))

    def test_long_chain_maximal_chains(self):
        n = 1500
        full = (1 << n) - 1
        p = Poset([full >> i << i for i in range(n)], validate=False)
        assert p.maximal_chains() == [tuple(range(n))]

    def test_bounded_chains_run_bottom_to_top(self, bounded_corpus):
        for p in bounded_corpus[:40]:
            for c in p.maximal_chains():
                assert c[0] == p.bottom and c[-1] == p.top

    def test_spindle_length_formula(self, bounded_corpus):
        # height(up a) + height(down a) <= height + 1, tight exactly on spindles
        for p in bounded_corpus[:60]:
            h = p.height()
            spindle = set(p.spindle_elements())
            for a in range(p.n):
                s = p.spindle_length(a)
                assert s <= h
                assert (s == h) == (a in spindle)


class TestGradedness:
    def test_named_instances(self):
        assert cube3().is_graded()
        assert not n5().is_graded()
        assert chain(5).is_graded()
        assert diamond().is_graded()

    def test_needs_top(self):
        with pytest.raises(UnboundedError):
            antichain(2).is_graded()

    def test_against_chain_length_oracle(self, bounded_corpus):
        for p in bounded_corpus:
            if p.n <= 7:
                assert p.is_graded() == oracles.brute_is_graded(p)

    def test_graded_means_all_spindle(self, bounded_corpus):
        for p in bounded_corpus[:100]:
            assert p.is_graded() == (len(p.spindle_elements()) == p.n)


class TestShapeOps:
    def test_add_bounds_on_antichain(self):
        p = antichain(2).add_bounds()
        assert p.is_isomorphic(diamond())

    def test_add_bounds_always_fresh(self):
        p = chain(1).add_bounds()
        assert p.is_chain() and p.n == 3
        again = p.add_bounds()
        assert again.n == 5 and again.height() == 5

    def test_add_bounds_renames_clashes(self):
        p = Poset.from_relation(2, [(0, 1)], labels=("BOT", "TOP")).add_bounds()
        assert len(set(p.labels)) == 4

    def test_dual_involution(self, free_posets_by_size):
        for p in free_posets_by_size[4]:
            assert p.dual().dual() == p

    def test_dual_preserves_height_width(self, free_posets_by_size):
        for p in free_posets_by_size[5][::5]:
            assert p.dual().height() == p.height()
            assert p.dual().width() == p.width()

    def test_is_chain(self):
        assert chain(4).is_chain()
        assert not diamond().is_chain()
        assert chain(1).is_chain()

    def test_is_bounded(self):
        assert diamond().is_bounded()
        assert not antichain(2).is_bounded()
        assert chain(1).is_bounded()

    def test_height_morphisms(self, bounded_corpus):
        # up-heights strictly drop and down-heights strictly grow along <
        for p in bounded_corpus[:80]:
            for a in range(p.n):
                for b in range(p.n):
                    if p.lt(a, b):
                        assert p.up_heights[a] > p.up_heights[b]
                        assert p.down_heights[a] < p.down_heights[b]


# Block designs and graphs, as blocks of points (edges of vertices), for
# incidence posets: points below the blocks that hold them.
FANO = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
AG23 = sorted({tuple(sorted(3 * ((t * dx + x) % 3) + (t * dy + y) % 3 for t in range(3)))
               for dx, dy in ((0, 1), (1, 0), (1, 1), (1, 2)) for x in range(3) for y in range(3)})
PETERSEN = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
CUBE = [(a, b) for a in range(8) for b in range(a + 1, 8) if (a ^ b).bit_count() == 1]
K33 = [(a, b) for a in range(3) for b in range(3, 6)]
K4 = list(itertools.combinations(range(4), 2))
K5 = list(itertools.combinations(range(5), 2))


class TestIsomorphism:
    def test_relabelled_diamond(self):
        q = Poset.from_relation(4, [(2, 0), (2, 3), (0, 1), (3, 1)])
        assert diamond().is_isomorphic(q)

    def test_chain_vs_v(self):
        v = Poset.from_relation(3, [(0, 1), (0, 2)])
        assert not chain(3).is_isomorphic(v)

    def test_dual_usually_differs(self):
        v = Poset.from_relation(3, [(0, 1), (0, 2)])
        assert not v.is_isomorphic(v.dual())

    def test_canonical_form_invariant_under_permutation(self, free_posets_by_size):
        for p in free_posets_by_size[5]:
            for perm in itertools.permutations(range(p.n)):
                assert oracles.relabel(p, perm).canonical_form() == p.canonical_form()

    def test_orbits_match_oracle(self, free_posets_by_size):
        # The search's automorphisms with the swaps of twins give the orbits
        # of the whole group, for every class up to six elements.
        for ps in free_posets_by_size.values():
            for p in ps:
                got = {frozenset(e for e in range(p.n) if m >> e & 1) for m in p._orbits()}
                assert got == oracles.brute_orbits(p)

    def test_distinct_classes_have_distinct_forms(self, free_posets_by_size):
        forms = {p.canonical_form() for p in free_posets_by_size[5]}
        assert len(forms) == len(free_posets_by_size[5])

    @staticmethod
    def assert_forms_match_oracle(posets):
        # equal forms <=> equal oracle forms, over every pair
        forms = [p.canonical_form() for p in posets]
        brute = [oracles.brute_canonical_form(p) for p in posets]
        for i in range(len(posets)):
            for j in range(i + 1, len(posets)):
                assert (forms[i] == forms[j]) == (brute[i] == brute[j]), (i, j)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_labelled_posets_match_oracle(self, n):
        labelled = {oracles.relabel(q, perm).rows
                    for q in oracles.upper_triangle_posets(n)
                    for perm in itertools.permutations(range(n))}
        self.assert_forms_match_oracle([Poset(rows) for rows in sorted(labelled)])

    @pytest.mark.parametrize("n", [6, 7])
    def test_relabelled_pairs_match_oracle(self, n):
        rng = random.Random(n)
        posets = []
        for _ in range(3):
            slots = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            base = Poset.from_relation(n, slots)
            for q in (base, base.dual()):
                posets.append(q)
                for _ in range(2):
                    posets.append(oracles.relabel(q, rng.sample(range(n), n)))
        self.assert_forms_match_oracle(posets)

    def test_n6_classes_have_distinct_oracle_forms(self, free_posets_by_size):
        reps = free_posets_by_size[6]
        assert len(reps) == 318
        assert len({oracles.brute_canonical_form(p) for p in reps}) == 318

    @pytest.mark.parametrize("p", [
        boolean_lattice(4), standard_example(5), standard_example(6), bounded_chains(4, 3),
        crowns(3, 4), crowns(3, 3, 4).add_bounds(),
    ], ids=["2^4", "S5", "S6", "4x3-chains", "crowns-3-4", "bounded-crowns-3-3-4"])
    def test_symmetric_inputs_invariant_under_relabelling(self, p):
        rng = random.Random(p.n)
        for _ in range(10):
            perm = rng.sample(range(p.n), p.n)
            assert oracles.relabel(p, perm).canonical_form() == p.canonical_form()

    def test_crowns_refinement_cannot_split(self):
        # colour refinement leaves each pair with one cell of minimal and one
        # of maximal elements; only the search tells them apart
        forms = {crowns(*sizes).canonical_form() for sizes in [(6,), (3, 3), (4, 4), (8,)]}
        assert len(forms) == 4

    @pytest.mark.parametrize("points,blocks,nodes", [
        (7, FANO, 13), (9, AG23, 13), (10, PETERSEN, 10), (8, CUBE, 7),
        (6, K33, 12), (4, K4, 7), (5, K5, 12),
    ], ids=["fano", "ag23", "petersen", "cube", "k33", "k4", "k5"])
    def test_search_node_counts(self, points, blocks, nodes):
        # Incidence posets are vertex- and block-transitive, so the search
        # skips each member in the orbit, under the automorphisms fixing the
        # path, of one already tried. With no orbit pruning it takes 35, 56,
        # 53, 28, 35, 16 and 42 nodes.
        p = Poset.from_relation(points + len(blocks),
                                [(x, points + k) for k, blk in enumerate(blocks) for x in blk])
        search = next(c for c in Poset._canonical.func.__code__.co_consts
                      if isinstance(c, types.CodeType) and c.co_name == "search")
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call" and frame.f_code is search

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            p.canonical_form()
        finally:
            sys.setprofile(previous)
        assert calls == nodes


class TestComparabilityGraph:
    def test_chain_complete(self):
        assert len(chain(4).comparability_graph()) == 6

    def test_antichain_empty(self):
        assert chain(1).comparability_graph() == frozenset()
        assert antichain(5).comparability_graph() == frozenset()

    def test_n5_edge_count(self):
        assert len(n5().comparability_graph()) == 8

    def test_pairs_against_lt(self, free_posets_by_size):
        for n in range(1, 6):
            for p in free_posets_by_size[n]:
                pairs = itertools.product(range(n), repeat=2)
                lt = {(a, b) for a, b in pairs if p.lt(a, b)}
                assert p.strict_pairs() == lt
                assert p.comparability_graph() == {(min(e), max(e)) for e in lt}
