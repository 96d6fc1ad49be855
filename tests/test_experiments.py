import csv
import math
import os
import random
from fractions import Fraction

import pytest

from conftest import chain, diamond, n5
from intrank import (
    CSV_COLUMNS,
    DegenerateInput,
    DomainError,
    EmptyInput,
    FitResult,
    GroupMeans,
    IterationRecord,
    aggregate_by,
    enumerate_bounded_posets,
    experiments,
    iterate_to_chain,
    linear_fit,
    log_fit,
    run_iteration_experiment,
    write_records_csv,
)


class TestRunExperiment:
    def test_size4_corpus(self):
        records = run_iteration_experiment(enumerate_bounded_posets(4))
        got = {(r.iterations, r.final_chain_size) for r in records}
        assert got == {(0, 4), (1, 3)}
        assert all(r.size == 4 for r in records)

    def test_chain9(self):
        (r,) = run_iteration_experiment([chain(9)])
        assert (r.size, r.height, r.width) == (9, 9, 1)
        assert (r.iterations, r.final_chain_size, r.final_height) == (0, 9, 9)
        assert r.avg_rank_width == 0

    def test_n5_record(self):
        (r,) = run_iteration_experiment([n5()], ids=["N5"])
        assert r.poset_id == "N5"
        assert (r.size, r.height, r.width) == (5, 4, 2)
        assert (r.iterations, r.final_chain_size) == (1, 5)
        assert r.avg_rank_width == Fraction(1, 5)

    def test_default_ids(self):
        records = run_iteration_experiment([chain(3), diamond()])
        assert [r.poset_id for r in records] == ["P00000", "P00001"]

    def test_id_length_mismatch(self):
        with pytest.raises(ValueError):
            run_iteration_experiment([chain(3)], ids=["a", "b"])

    def test_one_shot_generator_with_ids(self):
        posets = [chain(3), diamond(), n5()]
        ids = ["a", "b", "c"]
        assert (run_iteration_experiment((p for p in posets), ids)
                == run_iteration_experiment(posets, ids))

    def test_final_height_equals_final_chain_size(self, bounded_corpus):
        # a chain's height is its size, so the two final columns agree,
        # and the final chain has one element per level of the preorder
        posets = bounded_corpus[:200]
        for p, r in zip(posets, run_iteration_experiment(posets), strict=True):
            assert r.final_height == r.final_chain_size
            assert r.final_chain_size == len(iterate_to_chain(p).preorder_levels)
            assert r.final_chain_size <= r.size
            assert r.final_height >= r.height


class TestAggregate:
    def test_size4_means(self):
        records = run_iteration_experiment(enumerate_bounded_posets(4))
        table = aggregate_by(records, "size")
        g = table[4]
        assert g.count == 2
        assert g.iterations == Fraction(1, 2)
        assert g.final_chain_size == Fraction(7, 2)
        assert g.avg_rank_width == 0

    def test_size5_rank_width(self):
        records = run_iteration_experiment(enumerate_bounded_posets(5))
        table = aggregate_by(records, "size")
        assert table[5].avg_rank_width == Fraction(1, 25)

    def test_group_by_height(self):
        records = run_iteration_experiment([chain(3), diamond(), n5()])
        table = aggregate_by(records, "height")
        assert set(table) == {3, 4}
        assert table[3].count == 2
        assert table[4].final_height == 5

    def test_permutation_invariant(self, bounded_corpus):
        records = run_iteration_experiment(bounded_corpus[:80])
        shuffled = records[:]
        random.Random(7).shuffle(shuffled)
        assert aggregate_by(records, "size") == aggregate_by(shuffled, "size")

    def test_one_shot_generator(self, bounded_corpus):
        # A generator gives the list's table, each record read exactly once.
        records = run_iteration_experiment(bounded_corpus[:80])
        reads = []

        def stream():
            for r in records:
                reads.append(r.poset_id)
                yield r

        assert aggregate_by(stream(), "height") == aggregate_by(records, "height")
        assert reads == [r.poset_id for r in records]

    def test_size10_row(self, size10_run):
        # A result of this code, not a value from the paper: criterion 2
        # pins the paper's sizes 3..9. Mean final chain size and final
        # height are both 119488/16999 (about 7.0291).
        assert size10_run[0] == {10: GroupMeans(
            key=10, count=16999, iterations=Fraction(24277, 16999),
            final_chain_size=Fraction(119488, 16999), final_height=Fraction(119488, 16999),
            avg_rank_width=Fraction(25504, 84995))}

    def test_empty(self):
        with pytest.raises(EmptyInput):
            aggregate_by([], "size")

    def test_bad_key(self):
        def unread():
            raise AssertionError("a record was read")
            yield

        records = run_iteration_experiment([chain(3)])
        for given in (records, unread()):
            with pytest.raises(ValueError):
                aggregate_by(given, "width")


class TestFits:
    def test_linear_exact(self):
        fit = linear_fit((1, 2, 3), (3, 5, 7))
        assert fit.kind == "linear"
        assert fit.a == pytest.approx(2.0, abs=1e-9)
        assert fit.b == pytest.approx(1.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_log_exact(self):
        fit = log_fit((1.0, math.e, math.e ** 2), (0.0, 1.0, 2.0))
        assert fit.kind == "logarithmic"
        assert fit.a == pytest.approx(1.0, abs=1e-9)
        assert fit.b == pytest.approx(0.0, abs=1e-9)

    def test_noisy_r2_in_range(self):
        rng = random.Random(11)
        xs = list(range(1, 40))
        ys = [2 * x + rng.uniform(-3, 3) for x in xs]
        fit = linear_fit(xs, ys)
        assert 0.0 <= fit.r_squared <= 1.0
        assert fit.r_squared > 0.9

    @pytest.mark.parametrize("fit", [linear_fit, log_fit])
    def test_one_shot_iterables(self, fit):
        xs, ys = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
        assert fit((x for x in xs), (y for y in ys)) == fit(xs, ys)

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            linear_fit((2, 2, 2), (1, 2, 3))
        with pytest.raises(DegenerateInput):
            linear_fit((1,), (1,))

    def test_log_domain(self):
        with pytest.raises(DomainError):
            log_fit((0, 1, 2), (1, 2, 3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            linear_fit((1, 2), (1, 2, 3))

    def test_constant_target(self):
        fit = linear_fit((1, 2, 3), (5, 5, 5))
        assert fit.a == pytest.approx(0.0, abs=1e-9)
        assert fit.r_squared == 1.0

    def test_rounded_once_from_exact_values(self):
        # a = 4/5, b = 1/2 and R^2 = 16/25 exactly, each rounded once
        fit = linear_fit((1, 2, 3, 4), (1, 3, 2, 4))
        assert fit == FitResult("linear", 0.8, 0.5, 0.64)
        means = [Fraction(1), Fraction(3), Fraction(2), Fraction(4)]
        assert linear_fit((1, 2, 3, 4), means) == fit


class TestCsv:
    def test_schema_and_roundtrip(self, tmp_path):
        records = run_iteration_experiment([chain(3), n5()])
        path = tmp_path / "out.csv"
        write_records_csv(records, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert path.read_text(encoding="utf-8").splitlines()[0] == (
            "poset_id,size,height,width,iterations,final_chain_size,final_height,avg_rank_width")
        assert len(rows) == 3
        for row, rec in zip(rows[1:], records):
            assert row[0] == rec.poset_id
            assert [int(v) for v in row[1:7]] == [
                rec.size, rec.height, rec.width, rec.iterations,
                rec.final_chain_size, rec.final_height]
            assert float(row[7]) == float(rec.avg_rank_width)

    def test_failed_write_keeps_old_file(self, tmp_path):
        # Records that fail part way leave the earlier CSV byte for byte,
        # with no temporary file beside it.
        path = tmp_path / "out.csv"
        write_records_csv(run_iteration_experiment([chain(3), n5(), diamond()]), path)
        before = path.read_bytes()

        def failing():
            yield run_iteration_experiment([chain(4)])[0]
            raise OSError("records lost")

        with pytest.raises(OSError, match="records lost"):
            write_records_csv(failing(), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_record_is_plain_data(self):
        r = IterationRecord("x", 3, 3, 1, 0, 3, 3, Fraction(0))
        assert r.poset_id == "x"
        with pytest.raises(AttributeError):
            r.size = 4


class TestWriteAtomic:
    def test_failed_rename_leaves_nothing(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename refused"):
            experiments._write_atomic(str(tmp_path / "out.poset"), "text\n")
        assert os.listdir(tmp_path) == []

    def test_file_gets_plain_open_mode(self, tmp_path):
        experiments._write_atomic(str(tmp_path / "a.poset"), "text\n")
        with open(tmp_path / "b.poset", "w", encoding="utf-8"):
            pass
        assert (tmp_path / "a.poset").read_text(encoding="utf-8") == "text\n"
        assert (tmp_path / "a.poset").stat().st_mode == (tmp_path / "b.poset").stat().st_mode
        assert sorted(os.listdir(tmp_path)) == ["a.poset", "b.poset"]
