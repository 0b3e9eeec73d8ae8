import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmgraph as cm
from cmgraph import propcheck
from cmgraph.cli import main
from cmgraph.errors import ParseError
from cmgraph.graphio import parse, parse_file, render, to_dot
from cmgraph.propcheck import GeneratorConfig, random_graph, run_suite

from conftest import G

HYP = settings(max_examples=100, deadline=None)


class TestParse:
    def test_basic(self):
        g = parse("nodes: a b c d\na -- b\na -> c\nb <-> d\n")
        assert g.edges == {(cm.LINE, "a", "b"), (cm.ARROW, "a", "c"), (cm.ARC, "b", "d")}

    def test_comments_and_blanks(self):
        g = parse("# header\n\na -- b  # trailing\n")
        assert g.edges == {(cm.LINE, "a", "b")}

    def test_loop_reports_line_number(self):
        with pytest.raises(ParseError) as err:
            parse("a -- b\na -- a\n")
        assert err.value.lineno == 2

    def test_bad_operator(self):
        with pytest.raises(ParseError):
            parse("a <- b\n")

    def test_bad_shape(self):
        with pytest.raises(ParseError):
            parse("a -- b -- c\n")

    def test_hash_inside_a_label_cuts_the_line(self):
        # the comment starts at '#', so "a#b -- c" reads as the lone word "a"
        with pytest.raises(ParseError, match="expected 'x OP y'") as err:
            parse("a#b -- c\n")
        assert err.value.lineno == 1

    def test_round_trip_exact(self):
        text = "nodes: a b c\na -- b\na -> c\nb <-> c\n"
        assert render(parse(text)) == text

    @given(
        st.integers(2, 8),
        st.floats(0.0, 0.9),
        st.integers(0, 2**48),
        st.sampled_from(("CG", "CMG", "AnG")),
    )
    @HYP
    def test_round_trip_random(self, n, density, seed, cls):
        g = random_graph(GeneratorConfig(n, density, seed, cls))
        assert parse(render(g)) == g

    @pytest.mark.parametrize("label", ["a#b", "c d", "x\ty", "--", "->", "<->", "nodes:", "nodes:x"])
    def test_render_rejects_labels_parse_cannot_read(self, label):
        with pytest.raises(ValueError):
            render(cm.build_graph([label, "z"], [(label, "z", cm.LINE)]))

    def test_render_rejects_isolated_and_empty_labels(self):
        with pytest.raises(ValueError):
            render(cm.build_graph(["a#b", "c d"]))  # would read back as the one node a
        with pytest.raises(ValueError):
            render(cm.MixedGraph(("",), (0,), (0,), (0,), (0,)))

    def test_render_keeps_labels_parse_reads(self):
        labels = ['a"b', "x\\", "-", "<-", "a:nodes:", "é"]
        g = cm.build_graph(labels, [('a"b', "-", cm.ARC), ("<-", "é", cm.ARROW)])
        assert parse(render(g)) == g

    def test_parse_rejects_labels_render_cannot_write(self):
        for text in ("a -- nodes:x\n", "nodes: nodes:\n"):
            with pytest.raises(ParseError):
                parse(text)


# a quoted DOT ID: no bare double quote, a backslash escapes the next character
_DOT_ID = r'"(?:[^"\\]|\\.)*"'
_DOT_LINE = re.compile(rf"  {_DOT_ID}( -> {_DOT_ID}( \[dir=(none|both)\])?)?;")


class TestDot:
    def test_edge_styles(self):
        dot = to_dot(G("a -- b; a -> c; b <-> c"))
        assert '"a" -> "b" [dir=none];' in dot
        assert '"a" -> "c";' in dot
        assert '"b" -> "c" [dir=both];' in dot

    def test_escapes_quotes_and_backslashes(self):
        g = parse('a"b -> c\nx\\ -- c\n"q" <-> \\\n')
        dot = to_dot(g).splitlines()
        assert dot[0] == "digraph G {" and dot[-1] == "}"
        for line in dot[1:-1]:
            assert _DOT_LINE.fullmatch(line), line
        assert '  "a\\"b" -> "c";' in dot
        assert '  "c" -> "x\\\\" [dir=none];' in dot
        assert '  "\\"q\\"" -> "\\\\" [dir=both];' in dot


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def g_ex_file(tmp_path, g_ex):
    path = tmp_path / "g_ex.graph"
    path.write_text(render(g_ex))
    return str(path)


class TestCli:
    def test_classify(self, capsys, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("a -> b\nb -- c\n")
        code, out, _ = run_cli(capsys, "classify", str(path))
        assert code == 0
        assert out.strip() == "CG CMG AnG"

    def test_classify_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("a -- a\n")
        code, _, err = run_cli(capsys, "classify", str(path))
        assert code == 2
        assert "line 1" in err

    def test_classify_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_bytes(b"a -- b\n\xff\xfe a -- b\n")
        code, _, err = run_cli(capsys, "classify", str(path))
        assert code == 2
        assert err == "error: line 2: byte 0xff is not UTF-8\n"

    def test_byte_order_mark_is_dropped(self, capsys, tmp_path):
        text = "nodes: a b\na -> b\nb -- c\n"
        plain, marked = tmp_path / "plain.graph", tmp_path / "bom.graph"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_file(str(marked)) == parse_file(str(plain))
        code, out, err = run_cli(capsys, "classify", str(marked))
        assert (code, out, err) == (0, "CG CMG AnG\n", "")

    def test_separate_connected_with_witness(self, capsys, g_ex_file):
        code, out, _ = run_cli(
            capsys, "separate", g_ex_file, "--a", "j", "--b", "h", "--given", "l"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "connected"
        assert lines[1].startswith("walk: ")

    def test_separate_methods_agree(self, capsys, g_ex_file):
        verdicts = []
        for method in ("c", "moral", "oracle"):
            _, out, _ = run_cli(
                capsys,
                "separate",
                g_ex_file,
                "--a",
                "j",
                "--b",
                "h",
                "--given",
                "l",
                "--method",
                method,
            )
            verdicts.append(out.splitlines()[0])
        assert verdicts == ["connected"] * 3

    def test_separate_disconnected(self, capsys, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("nodes: a b\n")
        code, out, _ = run_cli(capsys, "separate", str(path), "--a", "a", "--b", "b")
        assert code == 0
        assert out.strip() == "separated"

    def test_separate_moral_requires_cg(self, capsys, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("a <-> b\n")
        code, _, err = run_cli(
            capsys, "separate", str(path), "--a", "a", "--b", "b", "--method", "moral"
        )
        assert code == 2

    def test_transform_canonical_echo(self, capsys, tmp_path):
        text = "nodes: a b c\na -- b\na -> c\n"
        path = tmp_path / "g.graph"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "transform", str(path), "-M", "", "-C", "")
        assert code == 0
        assert out == text

    def test_transform_marginalize_row(self, capsys, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("m -> i\nj -> m\n")
        code, out, _ = run_cli(capsys, "transform", str(path), "-M", "m")
        assert code == 0
        assert "j -> i" in out

    def test_transform_overlap_rejected(self, capsys, g_ex_file):
        code, _, err = run_cli(
            capsys, "transform", g_ex_file, "-M", "k", "-C", "k"
        )
        assert code == 2

    def test_transform_ang_classifies(self, capsys, g_ex_file, tmp_path):
        code, out, _ = run_cli(capsys, "transform", g_ex_file, "-M", "k", "--ang")
        assert code == 0
        out_path = tmp_path / "out.graph"
        out_path.write_text(out)
        code, flags, _ = run_cli(capsys, "classify", str(out_path))
        assert code == 0
        assert "AnG" in flags

    def test_model_listing(self, capsys, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("nodes: a b\n")
        code, out, _ = run_cli(capsys, "model", str(path))
        assert code == 0
        assert out.strip() == "a ⊥ b | {}"

    def test_model_too_large(self, capsys, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("nodes: a b c d e f g h i\n")
        code, _, err = run_cli(capsys, "model", str(path))
        assert code == 3

    def test_equal_same_file(self, capsys, g_ex_file):
        code, out, _ = run_cli(capsys, "equal", g_ex_file, g_ex_file)
        assert code == 0
        assert out.strip() == "equal"

    def test_equal_arrow_vs_arc(self, capsys, tmp_path):
        p1 = tmp_path / "g1.graph"
        p2 = tmp_path / "g2.graph"
        p1.write_text("a -> b\n")
        p2.write_text("a <-> b\n")
        code, out, _ = run_cli(capsys, "equal", str(p1), str(p2))
        assert code == 0
        assert out.strip() == "equal"

    def test_equal_different(self, capsys, tmp_path):
        p1 = tmp_path / "g1.graph"
        p2 = tmp_path / "g2.graph"
        p1.write_text("a -- b\n")
        p2.write_text("nodes: a b\n")
        code, out, _ = run_cli(capsys, "equal", str(p1), str(p2))
        assert code == 0
        assert out.strip() == "not equal"

    def test_dot(self, capsys, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("a -> b\n")
        code, out, _ = run_cli(capsys, "dot", str(path))
        assert code == 0
        assert out.startswith("digraph")

    def test_check_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--suite", "marginalization", "--seed", "7", "--count", "25"
        )
        assert code == 0
        assert "property=marginalization" in out
        assert "failures=0" in out

    def test_check_max_nodes(self, capsys, monkeypatch):
        seen = []

        def recording(suite_id, **kw):
            seen.append(kw["max_nodes"])
            return run_suite(suite_id, **kw)

        monkeypatch.setattr(propcheck, "run_suite", recording)
        for args in (["--suite", "marginalization"], ["--max-nodes", "8"]):
            code, out, _ = run_cli(capsys, "check", "--count", "3", *args)
            assert code == 0 and "failures=0" in out
        # the default is 7; run_all runs every suite but the demo
        assert seen == [7] + [8] * (len(propcheck.SUITE_IDS) - 1)

    @pytest.mark.parametrize("suite", ["marginalization", "cg-unrepresentability", "all"])
    @pytest.mark.parametrize("max_nodes", ["2", "9"])
    def test_check_max_nodes_out_of_range(self, capsys, suite, max_nodes):
        code, out, err = run_cli(capsys, "check", "--suite", suite, "--max-nodes", max_nodes)
        assert code == 2
        assert out == ""
        assert f"max_nodes must be in 3..8, got {max_nodes}" in err

    @pytest.mark.parametrize("suite", ["marginalization", "all"])
    def test_check_negative_count(self, capsys, suite):
        code, out, err = run_cli(capsys, "check", "--suite", suite, "--count", "-1")
        assert code == 2
        assert out == ""
        assert "count must be non-negative" in err
