import hashlib
import importlib
import random
import tracemalloc

import pytest

import oracles
from intrank import (
    BudgetExceeded,
    GenConfig,
    Poset,
    SubsetView,
    check_partial_order,
    enumerate_bounded_posets,
    enumerate_posets,
    generate,
    random_corpus,
    random_graph_poset,
    random_kdim_poset,
)

FREE_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}

# sha256 of repr([p.rows for p in enumerate_posets(n)]), the representatives
# canonical augmentation generates, in its order; these rows are what
# `gen --model exhaustive` writes.
REPRESENTATIVE_DIGESTS = {
    5: "176ae17935a1c5c1792c3b9e24604e69cb4b540a8379a63bd03e849f05201f13",
    6: "b91442f04d164f1db6e6f090f20caf8d49072e062ef9222f428055039c4abe29",
    7: "0dabfe8436e669ea0ef3abbf6621004a739a1ccd8abf6cf1b50a7800c4c2def1",
}

# sha256 of repr(sorted(p.canonical_form() for p in enumerate_posets(n))):
# the class set, recorded from the dedup-by-canonical-form enumeration.
CLASS_SET_DIGESTS = {
    5: "d5a50b2a81070a9c5065cb8d18be758e3adc8e4c08fe83b1856b04f63a325319",
    6: "b7e960b005edd90a3f940823bf1aaf0c4eb285f891f1f49b2e02bd94697da172",
    7: "da84bc805d56551910bb197ac3d76be6147abfa2972fecf7d4a0abd2eca5f63b",
    8: "fb155e93367906e8fd497bc54970fbf64cc65c5e133f8295f3b81980f404f6f3",
}

# (candidates built by _extend_with_maximal, canonical_form calls) of
# enumerate_posets(n). The class pins cannot see a pre-test that admits
# extra candidates and discards them later; these counts can.
SEARCH_EFFORT = {
    2: (2, 1), 3: (7, 3), 4: (23, 9), 5: (87, 30), 6: (412, 124), 7: (2536, 679),
    8: (20453, 5030),
}

gen_module = importlib.import_module("intrank.generate")


@pytest.fixture(scope="module")
def eight():
    return enumerate_posets(8)


def graph_cfg(n, p, seed, add_bounds=True):
    return GenConfig(model="random-graph", n=n, p=p, seed=seed,
                     add_bounds=add_bounds)


def kdim_cfg(n, k, seed, add_bounds=True):
    return GenConfig(model="random-kdim", n=n, k=k, seed=seed,
                     add_bounds=add_bounds)


class TestExhaustiveEnumeration:
    @pytest.mark.parametrize("n,count", sorted(FREE_COUNTS.items()))
    def test_free_counts(self, n, count, free_posets_by_size):
        assert len(free_posets_by_size[n]) == count

    def test_pairwise_non_isomorphic(self, free_posets_by_size):
        for ps in free_posets_by_size.values():
            forms = {p.canonical_form() for p in ps}
            assert len(forms) == len(ps)

    def test_every_class_represented(self, free_posets_by_size):
        # close every upper-triangle relation subset on 5 elements; each
        # result must land on exactly one listed representative
        reps = {p.canonical_form() for p in free_posets_by_size[5]}
        seen = {q.canonical_form() for q in oracles.upper_triangle_posets(5)}
        assert seen == reps

    def test_all_valid_posets(self, free_posets_by_size):
        for ps in free_posets_by_size.values():
            for p in ps:
                check_partial_order(p.rows, p.n)

    def test_deterministic_order(self):
        a = [p.rows for p in enumerate_posets(4)]
        b = [p.rows for p in enumerate_posets(4)]
        assert a == b

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_posets(9)

    @pytest.mark.parametrize("n", sorted(REPRESENTATIVE_DIGESTS))
    def test_representatives_pinned(self, n):
        rows = repr([p.rows for p in enumerate_posets(n)])
        assert hashlib.sha256(rows.encode()).hexdigest() == REPRESENTATIVE_DIGESTS[n]

    @pytest.mark.parametrize("n", sorted(CLASS_SET_DIGESTS))
    def test_class_sets_pinned(self, n, eight):
        ps = eight if n == 8 else enumerate_posets(n)
        forms = repr(sorted(p.canonical_form() for p in ps))
        assert hashlib.sha256(forms.encode()).hexdigest() == CLASS_SET_DIGESTS[n]

    def test_search_effort_pinned(self, monkeypatch):
        counts = {}
        extend, canonical_form = gen_module._extend_with_maximal, Poset.canonical_form

        def extend_spy(*args):
            counts["built"] += 1
            return extend(*args)

        def key_spy(self):
            counts["searched"] += 1
            return canonical_form(self)

        monkeypatch.setattr(gen_module, "_extend_with_maximal", extend_spy)
        monkeypatch.setattr(Poset, "canonical_form", key_spy)
        got = {}
        for n in SEARCH_EFFORT:
            counts.update(built=0, searched=0)
            enumerate_posets(n)
            got[n] = counts["built"], counts["searched"]
        assert got == SEARCH_EFFORT

    def test_eight_elements_at_the_budget(self, eight):
        # OEIS A000112
        assert len(eight) == 16999

    def test_kept_ideals_one_per_orbit(self, free_posets_by_size):
        # Against the orbits of the order ideals under every automorphism:
        # the ideals a representative is extended by meet each exactly once.
        for n in range(1, 6):
            for q in free_posets_by_size[n]:
                kept = gen_module._ideal_orbits(q)
                orbits = oracles.brute_ideal_orbits(q)
                assert all(sum(m in orbit for m in kept) == 1 for orbit in orbits)
                assert len(kept) == len(orbits)

    def test_order_ideals_hold_a_prefix_of_each_twin_class(self, free_posets_by_size):
        # Against every mask: the order ideals that hold, in each class of
        # twins (equal strict up- and down-sets), a prefix by index.
        for ps in free_posets_by_size.values():
            for q in ps:
                classes = {}
                for e, key in enumerate(zip(q.strict_rows, q.strict_down_rows)):
                    classes[key] = classes.get(key, 0) | 1 << e
                want = [m for m in range(1 << q.n)
                        if all(q.down_rows[e] & ~m == 0 for e in range(q.n) if m >> e & 1)
                        and all(t & ((1 << (m & t).bit_length()) - 1) == m & t
                                for t in classes.values())]
                got = gen_module._order_ideals(q)
                assert len(got) == len(set(got))
                assert sorted(got) == want

    def test_candidates_inherit_down_rows_and_heights(self, monkeypatch):
        built = []
        extend = gen_module._extend_with_maximal

        def spy(*args):
            built.append(extend(*args))
            return built[-1]

        monkeypatch.setattr(gen_module, "_extend_with_maximal", spy)
        for n in range(2, 7):
            enumerate_posets(n)
        assert built
        for child in built:
            fresh = Poset(child.rows)
            assert vars(child)["down_rows"] == fresh.down_rows
            assert vars(child)["down_heights"] == fresh.down_heights

    def test_bad_n(self):
        with pytest.raises(ValueError):
            enumerate_posets(0)


class TestBoundedEnumeration:
    def test_size_3(self):
        ps = enumerate_bounded_posets(3)
        assert len(ps) == 1
        assert ps[0].is_chain()

    def test_size_4(self):
        ps = enumerate_bounded_posets(4)
        assert len(ps) == 2
        assert {p.is_chain() for p in ps} == {True, False}
        for p in ps:
            assert p.is_bounded()

    def test_total_corpus(self, bounded_corpus):
        assert len(bounded_corpus) == 2450
        by_size = {}
        for p in bounded_corpus:
            by_size[p.n] = by_size.get(p.n, 0) + 1
        assert by_size == {3: 1, 4: 2, 5: 5, 6: 16, 7: 63, 8: 318, 9: 2045}

    def test_all_bounded_and_distinct(self, bounded_corpus):
        forms = set()
        for p in bounded_corpus:
            assert p.is_bounded()
            forms.add(p.canonical_form())
        assert len(forms) == 2450

    @pytest.mark.parametrize("size", range(3, 10))
    def test_bounds_adjoined_to_free_enumeration(self, size):
        expected = [q.add_bounds() for q in enumerate_posets(size - 2)]
        got = enumerate_bounded_posets(size)
        assert [(p.rows, p.labels) for p in got] == [(p.rows, p.labels) for p in expected]

    def test_bounded_labels_are_core_names_then_bounds(self):
        # One label tuple per size, shared: x0.. for the core, then BOT, TOP.
        ps = (enumerate_bounded_posets(6) + random_corpus("random-graph", [3, 7], 10)
              + random_corpus("random-kdim", [3, 7], 10))
        shared = {}
        for p in ps:
            assert p.labels == tuple(f"x{i}" for i in range(p.n - 2)) + ("BOT", "TOP")
            assert shared.setdefault(p.n, p.labels) is p.labels

    def test_bounded_enumeration_builds_no_free_list(self):
        # Each free poset is bounded as it is generated, so the peak of
        # the run stays near what the returned list retains.
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ps = enumerate_bounded_posets(9)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ps) == 2045
        assert peak - base <= 1.2 * (retained - base)

    def test_size_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            enumerate_bounded_posets(2)
        with pytest.raises(BudgetExceeded,
                           match="bounded enumeration supports up to size 10"):
            enumerate_bounded_posets(11)
        # One budget: lifting the free one lifts the bounded one too.
        monkeypatch.setattr(gen_module, "ENUM_MAX_FREE", 9)
        gen_module._bounded_posets(11)

    def test_cores_plus_bounds(self):
        # stripping the fresh bounds recovers exactly the free posets
        frees = {p.canonical_form() for p in enumerate_posets(4)}
        bounded = enumerate_bounded_posets(6)
        assert len(bounded) == 16
        stripped = set()
        for p in bounded:
            core = tuple(a for a in range(p.n) if a not in (p.bottom, p.top))
            stripped.add(SubsetView(p, core).as_poset().canonical_form())
        assert stripped == frees


class TestGenConfig:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            GenConfig(model="bogus", n=5)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            GenConfig(model="random-graph", n=0)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            GenConfig(model="random-graph", n=5, p=1.5)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            GenConfig(model="random-kdim", n=5, k=0)

    def test_defaults(self):
        cfg = GenConfig(model="random-graph", n=7)
        assert (cfg.p, cfg.k, cfg.seed, cfg.add_bounds) == (0.5, 3, 0, True)

    def test_model_mismatch_rejected(self):
        with pytest.raises(ValueError):
            random_graph_poset(kdim_cfg(5, 2, 0))
        with pytest.raises(ValueError):
            random_kdim_poset(graph_cfg(5, 0.5, 0))


class TestRandomGraphModel:
    def test_p_zero_is_antichain(self):
        p = random_graph_poset(graph_cfg(6, 0.0, 1, add_bounds=False))
        assert p.n == 6
        assert all(p.rows[i] == 1 << i for i in range(6))

    def test_p_one_is_chain(self):
        p = random_graph_poset(graph_cfg(6, 1.0, 1, add_bounds=False))
        assert p.is_chain()

    def test_bounds_added(self):
        p = random_graph_poset(graph_cfg(6, 0.3, 5))
        assert p.n == 8
        assert p.is_bounded()

    def test_always_valid(self):
        for seed in range(50):
            p = random_graph_poset(graph_cfg(9, 0.4, seed))
            check_partial_order(p.rows, p.n)

    def test_deterministic_per_seed(self):
        assert (random_graph_poset(graph_cfg(8, 0.5, 42))
                == random_graph_poset(graph_cfg(8, 0.5, 42)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_pair_oracle(self, n):
        for prob in (0.0, 0.3, 0.5, 1.0):
            for seed in range(6):
                for add_bounds in (True, False):
                    cfg = graph_cfg(n, prob, seed, add_bounds)
                    assert random_graph_poset(cfg) == oracles.brute_graph_poset(cfg)

    def test_density_monotone_in_p(self):
        means = []
        for prob in (0.0, 0.5, 1.0):
            total = 0
            for seed in range(100):
                p = random_graph_poset(graph_cfg(7, prob, seed,
                                                 add_bounds=False))
                total += sum(r.bit_count() - 1 for r in p.rows)
            means.append(total / 100)
        assert means[0] < means[1] < means[2]
        assert means[0] == 0.0
        assert means[2] == 21.0


class TestKdimModel:
    def test_k1_is_chain(self):
        p = random_kdim_poset(kdim_cfg(7, 1, 3, add_bounds=False))
        assert p.is_chain()

    def test_equal_permutations_give_chain(self):
        # seed chosen so both shuffles of range(3) coincide
        p = random_kdim_poset(kdim_cfg(3, 2, 4, add_bounds=False))
        assert p.is_chain()

    def test_intersection_of_permutations(self):
        for seed in range(30):
            p = random_kdim_poset(kdim_cfg(6, 3, seed, add_bounds=False))
            check = random.Random(seed)
            pos = []
            for _ in range(3):
                perm = list(range(6))
                check.shuffle(perm)
                pos.append({e: perm.index(e) for e in range(6)})
            for a in range(6):
                for b in range(6):
                    expected = all(pp[a] <= pp[b] for pp in pos)
                    assert p.leq(a, b) == expected

    @pytest.mark.parametrize("n", [1, 2, 5, 30, 60])
    def test_matches_position_oracle(self, n):
        for k in (1, 2, 3, 5):
            for seed in range(20):
                for add_bounds in (True, False):
                    cfg = kdim_cfg(n, k, seed, add_bounds)
                    assert random_kdim_poset(cfg) == oracles.brute_kdim_poset(cfg)

    def test_always_valid(self):
        for seed in range(50):
            p = random_kdim_poset(kdim_cfg(9, 3, seed))
            check_partial_order(p.rows, p.n)

    def test_bounds_added(self):
        p = random_kdim_poset(kdim_cfg(5, 2, 0))
        assert p.n == 7 and p.is_bounded()


class TestGenerateAndCorpus:
    def test_generate_dispatch(self):
        g = generate(graph_cfg(6, 0.3, 9))
        k = generate(kdim_cfg(6, 2, 9))
        assert g.is_bounded() and k.is_bounded()
        assert g == generate(graph_cfg(6, 0.3, 9))

    def test_generate_rejects_exhaustive(self):
        with pytest.raises(ValueError):
            generate(GenConfig(model="exhaustive", n=4))

    def test_corpus_seed_schedule(self):
        corpus = random_corpus("random-graph", (5,), 4, seed=100)
        singles = [generate(graph_cfg(5, 0.5, 100 + i)) for i in range(4)]
        assert corpus == singles

    def test_corpus_index_runs_across_sizes(self):
        corpus = random_corpus("random-kdim", (3, 4), 2, k=2, seed=10)
        seeds = (10, 11, 12, 13)
        sizes = (3, 3, 4, 4)
        singles = [generate(kdim_cfg(n, 2, s)) for n, s in zip(sizes, seeds)]
        assert corpus == singles

    def test_corpus_size(self):
        assert len(random_corpus("random-kdim", (4,), 17, k=2)) == 17

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            random_corpus("random-graph", (5,), -3)
        assert random_corpus("random-graph", (5,), 0) == []

    def test_no_bounds_flag(self):
        assert generate(graph_cfg(5, 0.5, 1, add_bounds=False)).n == 5


def test_enumeration_matches_closure_oracle_n4(free_posets_by_size):
    reps = {p.canonical_form() for p in free_posets_by_size[4]}
    seen = {q.canonical_form() for q in oracles.upper_triangle_posets(4)}
    assert seen == reps
