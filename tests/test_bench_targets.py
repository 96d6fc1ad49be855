"""The bench's span tracer wraps names that exist in the package.

`bench/spans.py` wraps each (module, attribute) pair of its `LAYERS` table,
plus `generate._extend_with_maximal`, by name. A renamed or deleted target
would otherwise fail only when the bench installs its tracer.
"""

import importlib
import importlib.util
from functools import cached_property
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [target for targets in load_spans().LAYERS.values() for target in targets]


@pytest.mark.parametrize("module_name, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_layer_target_exists(module_name, attr):
    module = importlib.import_module(f"intrank.{module_name}")
    if attr.startswith("Poset."):
        assert attr[len("Poset."):] in module.Poset.__dict__
    else:
        assert callable(getattr(module, attr, None))


def test_candidate_counter_target_exists():
    generate = importlib.import_module("intrank.generate")
    assert callable(getattr(generate, "_extend_with_maximal", None))


def test_enumeration_checks_every_candidate_and_keys_every_parent(monkeypatch):
    # The bench's CALLED_ON table expects poset.check_partial_order and
    # poset.canonical_form on the enumerate workload, and counts candidates
    # at generate._extend_with_maximal. Every candidate is built there and
    # checked once on its rows; every poset that is extended is keyed
    # through canonical_form, whose search gives its automorphisms.
    generate = importlib.import_module("intrank.generate")
    poset = importlib.import_module("intrank.poset")
    parents, built, checked, keyed = [], [], [], []
    extend, check = generate._extend_with_maximal, poset.check_partial_order
    canonical_form = poset.Poset.canonical_form

    def extend_spy(q, *args):
        before = len(checked)
        parents.append(q)
        built.append(extend(q, *args))
        assert checked[before:] == [built[-1].rows]
        return built[-1]

    def check_spy(rows, n):
        checked.append(rows)
        return check(rows, n)

    def key_spy(self):
        keyed.append(self)
        return canonical_form(self)

    monkeypatch.setattr(generate, "_extend_with_maximal", extend_spy)
    monkeypatch.setattr(poset, "check_partial_order", check_spy)
    monkeypatch.setattr(poset.Poset, "canonical_form", key_spy)
    assert len(generate.enumerate_posets(4)) == 16
    assert len(built) >= 16
    assert {id(q) for q in parents} <= {id(p) for p in keyed}


def test_isomorphism_grouping_reads_up_heights(monkeypatch):
    # CALLED_ON expects poset.chain_heights on the conjugate-search workload.
    intervals = importlib.import_module("intrank.intervals")
    poset = importlib.import_module("intrank.poset")
    original = poset.Poset.__dict__["up_heights"]
    calls = []

    def counted(self):
        calls.append(self)
        return original.func(self)

    spy = cached_property(counted)
    spy.__set_name__(poset.Poset, "up_heights")
    monkeypatch.setattr(poset.Poset, "up_heights", spy)
    tables = intervals.find_conjugates_of_strong(0, 2, max_ground=None)
    assert len(intervals.group_conjugates_by_isomorphism(tables)) >= 1
    assert calls


def test_iteration_checks_each_first_stage_once(monkeypatch):
    # The bench pins poset.check_partial_order.calls on iterate-random at one
    # per poset that is not a chain: the rows of each first stage are
    # checked as its rank image is built, and nothing else is checked.
    generate = importlib.import_module("intrank.generate")
    poset = importlib.import_module("intrank.poset")
    rank = importlib.import_module("intrank.rank")
    experiments = importlib.import_module("intrank.experiments")
    posets = generate.random_corpus("random-graph", range(4, 14), 10, seed=0)
    checked, check = [], poset.check_partial_order
    monkeypatch.setattr(poset, "check_partial_order",
                        lambda rows, n: checked.append(n) or check(rows, n))
    experiments.run_iteration_experiment(posets)
    monkeypatch.undo()
    non_chains = [p for p in posets if not p.is_chain()]
    assert 0 < len(non_chains) < len(posets)
    assert checked == [len(rank.rank_image(p)) for p in non_chains]
