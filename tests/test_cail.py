"""Parser, graph construction, and cell-array extraction."""
import numpy as np
import pytest

from cesel import assets
from cesel.cail import (
    NodeKind,
    Scmt,
    TokenKind,
    build_graph,
    export_dot,
    load_scmt,
    parse_cail,
    script_to_array,
    to_graph_array,
)
from cesel.errors import DataFileError, EmptyGraph, StructureError, UnknownSymbol


@pytest.fixture(scope="module")
def scmt():
    return assets.bundled_scmt()


def kinds(script):
    return [t.kind for t in script.tokens]


def symbols(script):
    return [t.symbol for t in script.tokens if t.kind is TokenKind.SYMBOL]


class TestParse:
    def test_kmeans_script_tokens(self, scmt):
        script = parse_cail("Begin R(1) While F(1) M(1) End End", scmt)
        assert kinds(script) == [
            TokenKind.BEGIN, TokenKind.SYMBOL, TokenKind.WHILE,
            TokenKind.SYMBOL, TokenKind.SYMBOL, TokenKind.END, TokenKind.END,
        ]
        assert symbols(script) == ["R(1)", "F(1)", "M(1)"]

    def test_degenerate_empty_body(self, scmt):
        script = parse_cail("Begin End", scmt)
        assert kinds(script) == [TokenKind.BEGIN, TokenKind.END]

    def test_missing_frame_end(self, scmt):
        with pytest.raises(StructureError):
            parse_cail("Begin If M(1) End", scmt)

    def test_keywords_case_insensitive(self, scmt):
        a = parse_cail("BEGIN r(1) WHILE f(1) m(1) END END", scmt)
        b = parse_cail("begin R(1) while F(1) M(1) end end", scmt)
        assert kinds(a) == kinds(b)
        assert symbols(a) == symbols(b)

    def test_comments_and_newlines_are_separators(self, scmt):
        source = "begin  # header\nR(1)\n  while\nF(1) M(1)\nend\nend\n"
        script = parse_cail(source, scmt)
        assert symbols(script) == ["R(1)", "F(1)", "M(1)"]

    def test_unknown_symbol(self, scmt):
        with pytest.raises(UnknownSymbol):
            parse_cail("begin Q(1) end", scmt)
        with pytest.raises(UnknownSymbol):
            parse_cail("begin M(99) end", scmt)

    def test_else_outside_if(self, scmt):
        with pytest.raises(StructureError):
            parse_cail("begin else end end", scmt)

    def test_break_outside_loop(self, scmt):
        with pytest.raises(StructureError):
            parse_cail("begin break end", scmt)
        # break nested inside a loop through an if is fine
        parse_cail("begin while if M(1) break end end end", scmt)

    def test_trailing_tokens_rejected(self, scmt):
        with pytest.raises(StructureError):
            parse_cail("begin end M(1)", scmt)

    def test_begin_only_first(self, scmt):
        with pytest.raises(StructureError):
            parse_cail("begin begin end end", scmt)
        with pytest.raises(StructureError):
            parse_cail("M(1) begin end", scmt)


class TestBuildGraph:
    def test_kmeans_shape(self, scmt):
        graph = build_graph(parse_cail("begin R(1) while F(1) M(1) end end", scmt))
        assert [n.value for n in graph.nodes] == ["entry", "loop", "exit"]
        got = [(e.src, e.dst, e.symbols) for e in graph.edges]
        assert got == [
            (0, 1, ("R(1)",)),
            (1, 1, ("F(1)", "M(1)")),  # back edge
            (1, 2, ()),
        ]

    def test_empty_body_single_edge(self, scmt):
        graph = build_graph(parse_cail("begin end", scmt))
        assert [n.value for n in graph.nodes] == ["entry", "exit"]
        assert [(e.src, e.dst, e.symbols) for e in graph.edges] == [(0, 1, ())]

    def test_if_else_branch_and_join(self, scmt):
        graph = build_graph(
            parse_cail("begin M(1) if M(2) else M(3) end end", scmt)
        )
        kinds_ = [n.value for n in graph.nodes]
        assert kinds_ == ["entry", "branch", "join", "exit"]
        got = [(e.src, e.dst, e.symbols) for e in graph.edges]
        assert (0, 1, ("M(1)",)) in got
        assert (1, 2, ("M(2)",)) in got
        assert (1, 2, ("M(3)",)) in got
        assert (2, 3, ()) in got
        assert len(got) == 4

    def test_if_without_else_gets_fallthrough(self, scmt):
        graph = build_graph(parse_cail("begin if M(1) end end", scmt))
        labelled = [e for e in graph.edges if e.symbols]
        assert len(labelled) == 1 and labelled[0].symbols == ("M(1)",)
        branch, join = labelled[0].src, labelled[0].dst
        # the false path exists as an empty parallel edge
        assert any(e.src == branch and e.dst == join and not e.symbols for e in graph.edges)

    def test_single_entry_single_exit(self, scmt):
        source = "begin M(1) while if M(2) else M(3) end break end M(4) end"
        graph = build_graph(parse_cail(source, scmt))
        entry, exit_ = graph.entry, graph.exit
        assert all(e.dst != entry for e in graph.edges)
        assert all(e.src != exit_ for e in graph.edges)

    def test_while_has_exactly_one_back_edge(self, scmt):
        source = "begin while M(1) while M(2) end end end"
        graph = build_graph(parse_cail(source, scmt))
        loops = [i for i, n in enumerate(graph.nodes) if n is NodeKind.LOOP]
        for header in loops:
            back = [e for e in graph.edges if e.dst == header and e.src >= header]
            assert len(back) == 1

    def test_break_edge_carries_pending_symbols(self, scmt):
        graph = build_graph(parse_cail("begin while M(1) break M(2) end end", scmt))
        cells = to_graph_array(graph).cells
        # M(1) rides the break edge, M(2) the back edge; each appears once
        assert sorted(cells) == [("M(1)",), ("M(2)",)]


class TestGraphArray:
    def test_kmeans_cells(self, scmt):
        array = script_to_array("begin R(1) while F(1) M(1) end end", scmt, name="K")
        assert array.cells == (("R(1)",), ("F(1)", "M(1)"))

    def test_fcm_cells(self, scmt):
        array = script_to_array("begin R(1) while M(2) M(3) end end", scmt, name="F")
        assert array.cells == (("R(1)",), ("M(2)", "M(3)"))

    def test_empty_graph_error(self, scmt):
        graph = build_graph(parse_cail("begin end", scmt))
        with pytest.raises(EmptyGraph):
            to_graph_array(graph)

    def test_symbols_after_loop_attach_to_exit_edge(self, scmt):
        array = script_to_array("begin while M(1) end M(2) M(3) end", scmt)
        assert array.cells == (("M(1)",), ("M(2)", "M(3)"))


class TestInvariants:
    SOURCES = [
        "begin R(1) while F(1) M(1) end end",
        "begin M(1) if M(2) else M(3) end end",
        "begin while if M(1) break else M(2) end M(3) end M(4) end",
        "begin if M(1) end while M(2) end end",
        "begin M(1) M(2) M(3) end",
    ]

    def test_pipeline_is_deterministic(self, scmt):
        for source in self.SOURCES:
            a = script_to_array(source, scmt)
            b = script_to_array(source, scmt)
            assert a.cells == b.cells

    def test_every_symbol_in_exactly_one_cell(self, scmt):
        for source in self.SOURCES:
            script = parse_cail(source, scmt)
            array = to_graph_array(build_graph(script))
            flat = sorted(s for cell in array.cells for s in cell)
            assert flat == sorted(symbols(script))

    def test_cells_at_most_edges(self, scmt):
        for source in self.SOURCES:
            graph = build_graph(parse_cail(source, scmt))
            assert len(to_graph_array(graph).cells) <= len(graph.edges)

    def test_swapping_if_arms_keeps_cell_multiset(self, scmt):
        a = script_to_array("begin M(1) if M(2) else M(3) end M(4) end", scmt)
        b = script_to_array("begin M(1) if M(3) else M(2) end M(4) end", scmt)
        assert sorted(a.cells) == sorted(b.cells)

    def test_random_scripts_conserve_symbols(self, scmt):
        rng = np.random.default_rng(7)
        pool = list(scmt.entries)
        for _ in range(300):
            source = _random_script(rng, pool)
            script = parse_cail(source, scmt)
            try:
                array = to_graph_array(build_graph(script))
            except EmptyGraph:
                assert not symbols(script)
                continue
            flat = sorted(s for cell in array.cells for s in cell)
            assert flat == sorted(symbols(script))


def _random_script(rng, pool, max_items=8):
    """Small random structurally-valid script."""

    def block(depth, in_loop):
        items = []
        for _ in range(rng.integers(0, max_items)):
            roll = rng.random()
            if roll < 0.55 or depth >= 2:
                items.append(pool[rng.integers(len(pool))])
            elif roll < 0.75:
                inner = block(depth + 1, in_loop)
                items.append(f"while {inner} end")
            elif roll < 0.9:
                then = block(depth + 1, in_loop)
                other = block(depth + 1, in_loop)
                items.append(
                    f"if {then} end" if rng.random() < 0.5 else f"if {then} else {other} end"
                )
            elif in_loop:
                items.append("break")
        return " ".join(items)

    return f"begin {block(0, False)} end"


class TestDotExport:
    def test_kmeans_dot(self, scmt):
        graph = build_graph(parse_cail("begin R(1) while F(1) M(1) end end", scmt))
        dot = export_dot(graph)
        assert 'entry -> n1 [label="R(1)"]' in dot
        assert 'n1 -> n1 [label="F(1), M(1)"]' in dot
        assert "n1 -> exit;" in dot

    def test_empty_body_unlabeled_edge(self, scmt):
        dot = export_dot(build_graph(parse_cail("begin end", scmt)))
        assert "entry -> exit;" in dot
        assert "label" not in dot.split("entry -> exit")[1].split("\n")[0]

    def test_fcm_label(self, scmt):
        dot = export_dot(build_graph(parse_cail("begin R(1) while M(2) M(3) end end", scmt)))
        assert '[label="M(2), M(3)"]' in dot


class TestScmt:
    def test_bundled_table(self, scmt):
        assert "R(1)" in scmt and "M(19)" in scmt and "F(9)" in scmt
        assert scmt.groups == {"R", "M", "F"}

    def test_malformed_symbol_rejected(self):
        with pytest.raises(ValueError):
            Scmt({"R1": "broken"})

    def test_load_scmt_roundtrip(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("# comment\nR(1)\tdraw randoms\nM(1)\tdistance\n")
        table = load_scmt(path)
        assert table.entries == {"R(1)": "draw randoms", "M(1)": "distance"}

    def test_load_scmt_duplicate(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("R(1)\ta\nR(1)\tb\n")
        with pytest.raises(DataFileError, match="duplicate symbol"):
            load_scmt(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # a BOM before a script's first token or the table's first symbol
        # gives the same cells as the plain files
        bundled = assets._data_path("scripts")
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        for path in bundled.glob("*.cail"):
            (scripts / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        table = tmp_path / "scmt.tsv"
        table.write_bytes(b"\xef\xbb\xbf" + assets._data_path("scmt.tsv").read_bytes())
        assert load_scmt(table).entries == assets.bundled_scmt().entries
        bom = assets.load_script_arrays(scripts)
        plain = assets.load_script_arrays()
        assert [(a.name, a.cells) for a in bom] == [(a.name, a.cells) for a in plain]
        assert len(bom) == 15

    def test_scripts_in_one_problem_share_the_bundled_table(self, scmt):
        arrays = assets.load_script_arrays()
        names = {a.name for a in arrays}
        assert {"K", "F", "SPS", "SLE", "WLC"} <= names
        assert len(arrays) == 15
