import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import chain, diamond, n5, two_stage
from intrank import (
    InvalidDocument,
    Poset,
    cli,
    enumerate_bounded_posets,
    enumerate_posets,
    random_corpus,
)
from intrank.cli import (
    format_poset_document,
    load_poset,
    parse_matrix_document,
    parse_poset_document,
    poset_to_dot,
)
from oracles import brute_iteration_stages

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

N5_DOC = """\
# five elements, one short side
elements: BOT x y z TOP
BOT < x
x < y
y < TOP
BOT < z
z < TOP
"""

# The only bounded poset on at most six elements that takes two iterations.
TWO_STAGE_DOC = """\
elements: BOT a b c d TOP
BOT < a
a < b
b < c
c < TOP
BOT < d
d < TOP
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestDocumentFormat:
    def test_round_trip(self):
        for p in (chain(4), diamond(), n5()):
            q = parse_poset_document(format_poset_document(p))
            assert q == p

    def test_round_trip_unusual_labels(self):
        p = diamond()
        for labels in (("a#", "x<", "<<", "elements"), ("é", "a:b", "-1", "[0,1]")):
            q = Poset(p.rows, labels)
            assert parse_poset_document(format_poset_document(q)) == q

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.data())
    def test_round_trip_property(self, data):
        labels = data.draw(st.lists(st.text(), min_size=1, max_size=6, unique=True))
        n = len(labels)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        p = Poset.from_relation(n, [(min(a, b), max(a, b)) for a, b in pairs], labels)
        try:
            text = format_poset_document(p)
        except InvalidDocument:
            assume(False)
        assert parse_poset_document(text) == p

    @pytest.mark.parametrize("bad", ["#x", "a b", "a\tb", "<", "", "elements:x"])
    def test_unwritable_label_rejected(self, bad):
        p = Poset.from_relation(2, [(0, 1)], labels=(bad, "y"))
        with pytest.raises(InvalidDocument, match="cannot be written"):
            format_poset_document(p)

    def test_parse_named_example(self):
        p = parse_poset_document(N5_DOC)
        assert p.labels == ("BOT", "x", "y", "z", "TOP")
        assert p.leq(p.index("BOT"), p.index("TOP"))
        assert p.is_isomorphic(n5())

    def test_comments_and_blanks_ignored(self):
        p = parse_poset_document("\n# c\nelements: a b\n\na < b\n# d\n")
        assert p.n == 2 and p.lt(0, 1)

    def test_missing_elements_line(self):
        with pytest.raises(Exception, match="missing elements"):
            parse_poset_document("a < b\n")

    def test_duplicate_elements_line(self):
        doc = "elements: a\nelements: b\n"
        with pytest.raises(Exception, match="line 2"):
            parse_poset_document(doc)

    def test_duplicate_names(self):
        with pytest.raises(Exception, match="duplicate element names"):
            parse_poset_document("elements: a a\n")

    def test_bad_relation_line(self):
        with pytest.raises(Exception, match="line 2"):
            parse_poset_document("elements: a b\na <= b\n")

    def test_strict_self_relation(self, tmp_path, capsys):
        doc = "elements: a b\na < a\na < b\n"
        with pytest.raises(InvalidDocument, match="line 2: '<' is strict"):
            parse_poset_document(doc)
        assert cli.main(["rank", write(tmp_path / "self.poset", doc)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_name(self):
        with pytest.raises(Exception, match="unknown element"):
            parse_poset_document("elements: a b\na < c\n")

    @pytest.mark.parametrize("relation", ["a < c", "c < a"])
    def test_unknown_name_by_line(self, relation):
        doc = f"elements: a b\na < b\n{relation}\n"
        with pytest.raises(InvalidDocument, match="^line 3: unknown element 'c'$"):
            parse_poset_document(doc)

    def test_empty_element_list(self):
        with pytest.raises(InvalidDocument, match="line 1: empty element list"):
            parse_poset_document("elements:\n")

    @pytest.mark.parametrize("bad", ["#a", "#", "elements:x", "<"])
    def test_reader_refuses_what_the_writer_refuses(self, bad):
        doc = f"elements: {bad} b\n{bad} < b\n"
        with pytest.raises(InvalidDocument, match=f"^line 1: '{bad}' is not a valid name$"):
            parse_poset_document(doc)
        with pytest.raises(InvalidDocument, match="cannot be written"):
            format_poset_document(Poset.from_relation(2, [(0, 1)], labels=(bad, "b")))

    def test_unreadable_name_exits_2(self, tmp_path, capsys):
        assert cli.main(["rank", write(tmp_path / "hash.poset", "elements: #a b\n#a < b\n")]) == 2
        assert "'#a' is not a valid name" in capsys.readouterr().err

    def test_angle_bracket_name(self):
        with pytest.raises(Exception, match="not a valid name"):
            parse_poset_document("elements: a < b\n")

    def test_matrix_with_and_without_spaces(self):
        dense = parse_matrix_document("110\n011\n001\n")
        spaced = parse_matrix_document("1 1 0\n0 1 1\n0 0 1\n")
        tabbed = parse_matrix_document("1\t1\t0\n0\t1\t1\n0\t0\t1\n")
        assert dense == spaced == tabbed
        assert dense.is_chain()

    def test_matrix_bad_entry(self):
        with pytest.raises(Exception, match="0/1"):
            parse_matrix_document("12\n01\n")

    def test_matrix_not_square(self):
        with pytest.raises(Exception, match="square"):
            parse_matrix_document("10\n0\n")

    def test_dot_output(self):
        dot = poset_to_dot(diamond())
        assert dot.startswith("digraph poset {")
        assert "rankdir=BT;" in dot
        for edge in ('"BOT" -> "a";', '"BOT" -> "b";',
                     '"a" -> "TOP";', '"b" -> "TOP";'):
            assert edge in dot
        assert '"BOT" -> "TOP";' not in dot


class TestGen:
    def test_exhaustive_bounded(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert cli.main(["gen", "--model", "exhaustive", "--n", "4",
                         "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 2 posets to {out}\n"
        files = sorted(os.listdir(out))
        assert files == ["poset_00000.poset", "poset_00001.poset"]
        shapes = {load_poset(str(out / f)).is_chain() for f in files}
        assert shapes == {True, False}

    def test_exhaustive_free(self, tmp_path):
        out = tmp_path / "free"
        assert cli.main(["gen", "--model", "exhaustive", "--n", "3",
                         "--no-bounds", "--out", str(out)]) == 0
        assert len(os.listdir(out)) == 5

    def test_rerun_is_stable(self, tmp_path):
        out = tmp_path / "c"
        args = ["gen", "--model", "random-graph", "--n", "6", "--seed", "3",
                "--count", "4", "--out", str(out)]
        assert cli.main(args) == 0
        first = {f: (out / f).read_bytes() for f in os.listdir(out)}
        assert cli.main(args) == 0
        second = {f: (out / f).read_bytes() for f in os.listdir(out)}
        assert first == second
        assert len(first) == 4

    def test_random_matches_random_corpus(self, tmp_path):
        out = tmp_path / "k"
        assert cli.main(["gen", "--model", "random-kdim", "--n", "7", "--k", "2",
                         "--seed", "5", "--count", "3", "--no-bounds",
                         "--out", str(out)]) == 0
        expected = random_corpus("random-kdim", [7], 3, k=2, seed=5, add_bounds=False)
        assert [(out / f"poset_{i:05d}.poset").read_text(encoding="utf-8")
                for i in range(3)] == [format_poset_document(p) for p in expected]

    @pytest.mark.parametrize("bounds, n, listing", [
        ("--bounds", 6, enumerate_bounded_posets),
        ("--no-bounds", 4, enumerate_posets),
    ])
    def test_exhaustive_matches_enumeration(self, tmp_path, bounds, n, listing):
        # gen writes each representative as it is generated, in the order
        # the enumeration lists them.
        expected = listing(n)
        out = tmp_path / "e"
        assert cli.main(["gen", "--model", "exhaustive", "--n", str(n), bounds,
                         "--out", str(out)]) == 0
        assert len(os.listdir(out)) == len(expected)
        assert [(out / f"poset_{i:05d}.poset").read_text(encoding="utf-8")
                for i in range(len(expected))] == [format_poset_document(p) for p in expected]

    def test_budget_exit(self, tmp_path, capsys):
        # The size is checked before --out is created.
        out = tmp_path / "x"
        code = cli.main(["gen", "--model", "exhaustive", "--n", "12",
                         "--out", str(out)])
        assert code == 3
        assert "budget exceeded" in capsys.readouterr().err
        assert not out.exists()

    def test_bounded_size_below_three_exit(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = cli.main(["gen", "--model", "exhaustive", "--n", "2", "--out", str(out)])
        assert code == 2
        assert "bounded enumeration starts at size 3" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_count_exit(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = cli.main(["gen", "--model", "random-graph", "--n", "5", "--count", "-3",
                         "--out", str(out)])
        assert code == 2
        assert "count must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad, message", [
        (["--n", "0", "--count", "3"], "n must be positive"),
        (["--n", "5", "--p", "1.5"], "p must lie in [0, 1]"),
    ])
    def test_invalid_config_leaves_no_out(self, tmp_path, capsys, bad, message):
        # Every config is checked before the corpus is streamed into --out.
        out = tmp_path / "x"
        assert cli.main(["gen", "--model", "random-graph", *bad, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_model_exit(self, tmp_path, capsys):
        code = cli.main(["gen", "--model", "nope", "--n", "4",
                         "--out", str(tmp_path / "x")])
        assert code == 1
        assert "usage error" in capsys.readouterr().err


class TestRank:
    def test_standard(self, tmp_path, capsys):
        path = write(tmp_path / "n5.poset", N5_DOC)
        assert cli.main(["rank", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "BOT [3,3] spindle=true",
            "x [2,2] spindle=true",
            "y [1,1] spindle=true",
            "z [1,2] spindle=false",
            "TOP [0,0] spindle=true",
        ]

    def test_conjugate(self, tmp_path, capsys):
        path = write(tmp_path / "n5.poset", N5_DOC)
        assert cli.main(["rank", path, "--conjugate"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "z [1,4]" in lines
        assert all("spindle" not in line for line in lines)

    def test_matrix_input(self, tmp_path, capsys):
        path = write(tmp_path / "m.mat", "11\n01\n")
        assert cli.main(["rank", path, "--matrix"]) == 0
        assert capsys.readouterr().out == ("x0 [1,1] spindle=true\n"
                                           "x1 [0,0] spindle=true\n")

    def test_unbounded_input_exit(self, tmp_path, capsys):
        path = write(tmp_path / "anti.poset", "elements: a b\n")
        assert cli.main(["rank", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit(self, capsys):
        assert cli.main(["rank", "/nonexistent/file.poset"]) == 2
        capsys.readouterr()

    def test_invalid_document_exit(self, tmp_path, capsys):
        path = write(tmp_path / "bad.poset", "elements: a b\na <= b\n")
        assert cli.main(["rank", path]) == 2
        assert "error" in capsys.readouterr().err


class TestIterate:
    def test_diamond(self, tmp_path, capsys):
        doc = "elements: BOT a b TOP\nBOT < a\nBOT < b\na < TOP\nb < TOP\n"
        path = write(tmp_path / "d.poset", doc)
        assert cli.main(["iterate", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "iterations: 1"
        assert out[1] == "levels: [TOP][a b][BOT]"

    def test_chain_zero_iterations(self, tmp_path, capsys):
        p = chain(5)
        path = write(tmp_path / "c.poset", format_poset_document(p))
        assert cli.main(["iterate", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "iterations: 0"
        assert out[1] == "levels: [x4][x3][x2][x1][x0]"

    @pytest.mark.parametrize("doc, sizes", [(N5_DOC, [5]), (TWO_STAGE_DOC, [6, 5])],
                             ids=["n5", "two-stage"])
    def test_trace(self, tmp_path, capsys, doc, sizes):
        path = write(tmp_path / "p.poset", doc)
        assert cli.main(["iterate", path, "--trace"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"iterations: {len(sizes)}"
        want = brute_iteration_stages(parse_poset_document(doc))
        assert [len(s) for s in want] == sizes
        assert [line for line in out if line.startswith("stage ")] == [
            f"stage {k}: {len(s)} values: " + ", ".join(
                "{" + " ".join(map(str, blk)) + "}->" + str(iv)
                for iv, blk in zip(s.intervals, s.blocks))
            for k, s in enumerate(want, start=1)]

    @pytest.mark.parametrize("doc, stages", [(N5_DOC, 1), (TWO_STAGE_DOC, 2)],
                             ids=["n5", "two-stage"])
    def test_dot_files(self, tmp_path, capsys, doc, stages):
        path = write(tmp_path / "p.poset", doc)
        dotdir = tmp_path / "dots"
        assert cli.main(["iterate", path, "--dot", str(dotdir)]) == 0
        assert f"wrote {stages + 1} dot files" in capsys.readouterr().out
        files = sorted(os.listdir(dotdir))
        assert files == [f"stage_{k}.dot" for k in range(stages + 1)]
        stage0 = (dotdir / "stage_0.dot").read_text()
        assert '"BOT" -> "TOP";' not in stage0
        want = brute_iteration_stages(parse_poset_document(doc))
        for k, s in enumerate(want, start=1):
            assert (dotdir / f"stage_{k}.dot").read_text() == poset_to_dot(s.order, f"stage_{k}")
        if doc == N5_DOC:
            assert '"BOT" -> "x";' in stage0
            # the image is the 5-chain of rank intervals
            assert '"[1,2]" -> "[1,1]";' in (dotdir / "stage_1.dot").read_text()

    def test_two_stage_document(self):
        assert parse_poset_document(TWO_STAGE_DOC) == two_stage()


class TestConjugateSearch:
    def test_small_ground(self, capsys):
        assert cli.main(["conjugate-search", "--lo", "1", "--hi", "2"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[-1] == "found 2 conjugate orders in 2 isomorphism classes"
        assert sum(1 for ln in lines if ln.startswith("order ")) == 2
        assert sum(1 for ln in lines if ln == "  conjugate: true") == 2

    def test_trivial_ground(self, capsys):
        assert cli.main(["conjugate-search", "--lo", "0", "--hi", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "order 0: (no relations)"
        assert out[1] == "  conjugate: true"
        assert out[2] == "found 1 conjugate orders in 1 isomorphism classes"

    def test_limit(self, capsys):
        assert cli.main(["conjugate-search", "--lo", "1", "--hi", "3",
                         "--limit", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1].startswith("found 1 conjugate orders")

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_rejected(self, capsys, limit):
        code = cli.main(["conjugate-search", "--lo", "0", "--hi", "2", "--limit", limit])
        assert code == 1
        captured = capsys.readouterr()
        assert "--limit must be at least 1" in captured.err
        assert captured.out == ""

    def test_span_budget(self, capsys):
        code = cli.main(["conjugate-search", "--lo", "0", "--hi", "4"])
        assert code == 3
        assert "--force" in capsys.readouterr().err

    def test_force_lifts_span_budget(self, capsys):
        assert cli.main(["conjugate-search", "--lo", "0", "--hi", "4", "--force"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["found 0 conjugate orders in 0 isomorphism classes"]

    def test_reversed_endpoints(self, capsys):
        code = cli.main(["conjugate-search", "--lo", "3", "--hi", "1"])
        assert code == 1
        assert "usage error" in capsys.readouterr().err


class TestStats:
    @pytest.fixture()
    def chain_corpus(self, tmp_path):
        d = tmp_path / "chains"
        d.mkdir()
        for n in range(3, 7):
            doc = format_poset_document(chain(n))
            write(d / f"chain{n}.poset", doc)
        return str(d)

    def test_table(self, chain_corpus, capsys):
        assert cli.main(["stats", "--corpus", chain_corpus]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["size", "count", "chain_size", "iterations",
                                  "final_height", "rank_width"]
        assert len(out) == 5
        assert out[1].split() == ["3", "1", "3.000", "0.000", "3.000", "0.000"]

    def test_linear_fit_on_chains(self, chain_corpus, capsys):
        assert cli.main(["stats", "--corpus", chain_corpus,
                         "--fit", "linear"]) == 0
        out = capsys.readouterr().out
        assert "fit: y = 1.0000*x + 0.0000, R^2 = 1.0000" in out

    def test_linear_fit_grouped_by_height(self, chain_corpus, capsys):
        # A chain's final size is its height, so the fit is y = x here too.
        assert cli.main(["stats", "--corpus", chain_corpus, "--group", "height",
                         "--fit", "linear"]) == 0
        out = capsys.readouterr().out
        assert "fit: y = 1.0000*x + 0.0000, R^2 = 1.0000" in out

    def test_log_fit_runs(self, chain_corpus, capsys):
        assert cli.main(["stats", "--corpus", chain_corpus,
                         "--fit", "log"]) == 0
        assert "ln(x)" in capsys.readouterr().out

    def test_csv_written(self, chain_corpus, tmp_path, capsys):
        target = tmp_path / "records.csv"
        assert cli.main(["stats", "--corpus", chain_corpus,
                         "--csv", str(target)]) == 0
        assert "wrote 4 records" in capsys.readouterr().out
        header = target.read_text().splitlines()[0]
        assert header.startswith("poset_id,size,height")

    def test_group_by_height(self, chain_corpus, capsys):
        assert cli.main(["stats", "--corpus", chain_corpus,
                         "--group", "height"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split()[0] == "height"

    def test_missing_corpus_exit(self, tmp_path, capsys):
        assert cli.main(["stats", "--corpus", str(tmp_path / "nope")]) == 2
        capsys.readouterr()

    def test_empty_corpus_exit(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["stats", "--corpus", str(empty)]) == 2
        assert "no .poset files" in capsys.readouterr().err

    def test_malformed_last_file_exit(self, chain_corpus, tmp_path, capsys):
        # The corpus is read one file at a time; a bad file late in it still
        # fails the whole command before anything is printed or written.
        write(tmp_path / "chains" / "zzz.poset", "elements: a b\na <= b\n")
        target = tmp_path / "records.csv"
        assert cli.main(["stats", "--corpus", chain_corpus, "--csv", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "zzz.poset: line 2:" in err
        assert not target.exists()

    def test_unrankable_file_is_named(self, chain_corpus, tmp_path, capsys):
        # A file that parses but cannot be iterated is named too.
        write(tmp_path / "chains" / "m.poset", "elements: a b\n")
        assert cli.main(["stats", "--corpus", chain_corpus]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "m.poset: rank operators need" in err


class TestUsage:
    def test_no_command(self, capsys):
        assert cli.main([]) == 1
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_option(self, capsys):
        assert cli.main(["gen", "--model", "exhaustive", "--n", "4"]) == 1
        capsys.readouterr()


class TestParserReuse:
    """main parses every call with one parser; no call's options leak into the next."""

    def test_trace_flag_does_not_carry_over(self, tmp_path, capsys):
        path = write(tmp_path / "n5.poset", N5_DOC)
        assert cli.main(["iterate", path, "--trace"]) == 0
        assert "stage 1:" in capsys.readouterr().out
        assert cli.main(["iterate", path]) == 0
        assert "stage" not in capsys.readouterr().out

    def test_conjugate_flag_does_not_carry_over(self, tmp_path, capsys):
        path = write(tmp_path / "n5.poset", N5_DOC)
        assert cli.main(["rank", path, "--conjugate"]) == 0
        assert "spindle=" not in capsys.readouterr().out
        assert cli.main(["rank", path]) == 0
        assert "z [1,2] spindle=false" in capsys.readouterr().out.splitlines()

    def test_usage_error_after_success(self, tmp_path, capsys):
        path = write(tmp_path / "n5.poset", N5_DOC)
        assert cli.main(["rank", path]) == 0
        assert cli.main(["rank"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_parser_built_once(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path / "n5.poset", N5_DOC)
        assert cli.main(["rank", path]) == 0
        built = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        for argv in (["rank", path], ["iterate", path], ["frobnicate"]):
            cli.main(argv)
        capsys.readouterr()
        assert built == []


def test_document_format_self_describing(tmp_path):
    # a generated file parses back to an equal poset through the file API
    p = n5()
    path = tmp_path / "x.poset"
    write(path, format_poset_document(p))
    assert load_poset(str(path)) == p


class TestWriteAtomic:
    def test_failed_rename_leaves_nothing(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename refused"):
            cli._write_atomic(str(tmp_path / "out.poset"), "text\n")
        assert os.listdir(tmp_path) == []

    def test_file_gets_plain_open_mode(self, tmp_path):
        cli._write_atomic(str(tmp_path / "a.poset"), "text\n")
        with open(tmp_path / "b.poset", "w", encoding="utf-8"):
            pass
        assert (tmp_path / "a.poset").read_text(encoding="utf-8") == "text\n"
        assert (tmp_path / "a.poset").stat().st_mode == (tmp_path / "b.poset").stat().st_mode
        assert sorted(os.listdir(tmp_path)) == ["a.poset", "b.poset"]


def test_import_does_not_load_numpy():
    code = "import sys, intrank, intrank.cli; assert 'numpy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_no_default_encoding(tmp_path):
    # Every file the CLI writes or reads names its encoding: each command
    # runs clean with a default-encoding open turned into an error.
    env = dict(os.environ, PYTHONPATH=SRC)
    corpus, dot = tmp_path / "corpus", tmp_path / "dot"
    for args in (["gen", "--model", "exhaustive", "--n", "5", "--out", str(corpus)],
                 ["iterate", str(corpus / "poset_00003.poset"), "--trace", "--dot", str(dot)],
                 ["stats", "--corpus", str(corpus), "--group", "height",
                  "--csv", str(tmp_path / "records.csv"), "--fit", "linear"]):
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", "from intrank.cli import entry; entry()", *args],
            env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, ""), f"{args}: {done.stderr}"
    assert (tmp_path / "records.csv").read_text(encoding="utf-8").startswith("poset_id,")
