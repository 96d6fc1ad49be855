"""The bench's span tracer wraps names that exist in the package, and the
bench's seed-0 outputs and call counts hold.

`bench/spans.py` wraps each (module, attribute) pair of its `LAYERS` table,
plus `generate._extend_with_maximal`, by name. A renamed or deleted target
would otherwise fail only when the bench installs its tracer. The bench
modules are loaded read-only from `bench/`.
"""

import importlib
import importlib.util
import json
from functools import cached_property
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [target for targets in load_bench("spans").LAYERS.values() for target in targets]


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


@pytest.mark.parametrize("name", ["iterate-random", "cli-corpus"])
def test_seed0_job_matches_recorded_digests(name, tmp_path):
    # One job of the workload, run as the bench's warm-up job runs it: every
    # verdict of its check holds and its output digests are the recorded ones.
    workloads = load_bench("workloads")
    workload = workloads.WORKLOADS[name]
    inp = workload.inputs(0, str(tmp_path))
    try:
        ops = workloads.Ops()
        with workload.capture() as captured:
            workload.job(inp, ops)
        ok, digests = workload.check(inp, ops.outputs, captured)
    finally:
        workload.close(inp)
    assert ok and all(ok)
    assert digests == json.loads((BENCH / "digests.json").read_text())[name]


def test_conjugate_search_checks_each_solution_table_once(monkeypatch):
    # The bench expects check_partial_order.calls == intervals.solutions on
    # conjugate-search: each table the search finds is checked as it is
    # built, and grouping the tables checks nothing.
    intervals = importlib.import_module("intrank.intervals")
    poset = importlib.import_module("intrank.poset")
    checked, check = [], poset.check_partial_order
    monkeypatch.setattr(poset, "check_partial_order",
                        lambda rows, n: checked.append(rows) or check(rows, n))
    tables = []
    for k in range(5):
        found = intervals.find_conjugates_of_strong(0, k, max_ground=None)
        intervals.group_conjugates_by_isomorphism(found)
        tables += found
    assert len(tables) == 7
    assert checked == [t.rows for t in tables]


def test_cli_corpus_checks_and_closures_per_document(monkeypatch, tmp_path):
    # The bench reads 3,000 checks and 2,000 Poset.from_relation calls on
    # cli-corpus's 1,000 documents: gen checks each poset it draws, and
    # iterate and stats each close a document's relation once and check the
    # first stage of each poset that is not a chain.
    cli = importlib.import_module("intrank.cli")
    poset = importlib.import_module("intrank.poset")
    corpus, count = tmp_path / "corpus", 40
    checked, closed = [], []
    check, from_relation = poset.check_partial_order, poset.Poset.from_relation.__func__
    monkeypatch.setattr(poset, "check_partial_order",
                        lambda rows, n: checked.append(n) or check(rows, n))
    monkeypatch.setattr(poset.Poset, "from_relation", classmethod(
        lambda cls, *args, **kwargs: closed.append(cls) or from_relation(cls, *args, **kwargs)))

    def counts(argv):
        before = len(checked), len(closed)
        assert cli.main(argv) == 0
        return len(checked) - before[0], len(closed) - before[1]

    assert counts(["gen", "--model", "random-kdim", "--k", "2", "--n", "4",
                   "--count", str(count), "--seed", "0", "--out", str(corpus)]) == (count, 0)
    files = sorted(corpus.iterdir())
    iterated = [counts(["iterate", str(f)]) for f in files]
    stats = counts(["stats", "--corpus", str(corpus), "--group", "height",
                    "--csv", str(tmp_path / "records.csv"), "--fit", "linear"])
    monkeypatch.undo()
    non_chains = [not cli.load_poset(str(f)).is_chain() for f in files]
    assert len(files) == count and 0 < sum(non_chains) < count
    assert iterated == [(int(nc), 1) for nc in non_chains]
    assert stats == (sum(non_chains), count)
