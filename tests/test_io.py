import pytest
from hypothesis import given
from hypothesis import strategies as st

import skewspec.graph as graph_module
from skewspec import (
    VERTEX_CAP,
    Graph,
    OrientedGraph,
    ParseError,
    cycle,
    from_arcs,
    parse_graph,
    render_report,
    serialize_graph,
)
from oracles import reference_parse
from strategies import EDGE_ROUTES, graphs, oriented_graphs

HUGE = (2**63, -(2**63) - 1, 10**23, 99999999999999999999999, -(10**30))


@st.composite
def mutated_files(draw):
    """A valid graph file, then up to four edits that may break it:
    tags, field counts, non-integers, values beyond int64, self-loops,
    range errors, duplicates, extra and missing lines, comments and
    blank lines."""
    og = draw(oriented_graphs(max_n=6))
    n = og.n
    oriented = draw(st.booleans())
    tag = "a" if oriented else "e"
    pairs = og.arcs() if oriented else og.graph.edges
    pairs = draw(st.permutations(pairs))
    rows = [[tag, str(u), str(v)] for u, v in pairs]
    m = len(rows)
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(
            st.sampled_from(
                ["tag", "drop", "add", "word", "huge", "loop", "range",
                 "duplicate", "extra", "missing", "comment", "blank", "count"]
            )
        )
        at = draw(st.integers(0, max(len(rows) - 1, 0)))
        row = rows[at] if rows and rows[at] and not rows[at][0].startswith("#") else None
        if edit == "tag" and row:
            row[0] = draw(st.sampled_from(["a", "e", "x", "ug", "og"]))
        elif edit == "drop" and row and len(row) > 1:
            del row[draw(st.integers(0, len(row) - 1))]
        elif edit == "add" and row:
            row.append(draw(st.sampled_from(["0", "1", "x"])))
        elif edit == "word" and row and len(row) > 1:
            row[draw(st.integers(1, len(row) - 1))] = draw(
                st.sampled_from(["x", "1.5", "0x1", "--1", "1e3", "+1", "1_0"])
            )
        elif edit == "huge" and row and len(row) == 3:
            value = str(draw(st.sampled_from(HUGE)))
            if draw(st.booleans()):
                row[1] = row[2] = value
            else:
                row[draw(st.integers(1, 2))] = value
        elif edit == "loop" and row and len(row) == 3:
            row[2] = row[1]
        elif edit == "range" and row and len(row) == 3:
            row[draw(st.integers(1, 2))] = str(draw(st.sampled_from([n, n + 1, -1, -7])))
        elif edit == "duplicate" and row:
            copy = list(row)
            if len(copy) == 3 and draw(st.booleans()):
                copy[1], copy[2] = copy[2], copy[1]
            rows.insert(draw(st.integers(at + 1, len(rows))), copy)
        elif edit == "extra":
            u, v = draw(st.integers(-1, n)), draw(st.integers(-1, n))
            rows.append([tag, str(u), str(v)])
        elif edit == "missing" and rows:
            del rows[at]
        elif edit == "comment":
            rows.insert(at, ["#", draw(st.sampled_from(["note", "a 0 1", ""]))])
        elif edit == "blank":
            rows.insert(at, [])
        elif edit == "count":
            n = draw(st.integers(0, n + 1))
    sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
    body = [
        draw(st.sampled_from(["", " "])) + sep.join(row)
        + draw(st.sampled_from(["", " ", "  # trailing"]))
        for row in rows
    ]
    return "\n".join([f"{'og' if oriented else 'ug'} {n} {m}", *body]) + "\n"


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return (type(exc), exc.line, exc.reason, str(exc))


def parsed(text):
    obj = parse_graph(text)
    if isinstance(obj, OrientedGraph):
        return ("og", obj.n, obj.graph.edges, obj.direction)
    return ("ug", obj.n, obj.edges)


class TestParse:
    def test_undirected(self):
        g = parse_graph("ug 3 2\ne 0 1\ne 2 1\n")
        assert isinstance(g, Graph)
        assert g.edges == ((0, 1), (1, 2))

    def test_oriented(self):
        og = parse_graph("og 2 1\na 1 0\n")
        assert isinstance(og, OrientedGraph)
        assert og.arcs() == ((1, 0),)

    def test_comments_and_blank_lines(self):
        text = "# a square\n\nog 4 4  # header\n a 0 1\n\na 1 2\na 2 3 # wraps\na 0 3\n"
        og = parse_graph(text)
        assert og.arcs() == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_empty_file(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("# nothing here\n")
        assert exc.value.line == 1

    def test_bad_header(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("graph 3 2\n")
        assert exc.value.line == 1

    @pytest.mark.parametrize("header", ["ug -1 0", "og 3 -2"])
    def test_negative_header_counts(self, header):
        with pytest.raises(ParseError) as exc:
            parse_graph(header + "\n")
        assert exc.value.line == 1

    def test_bad_field_count(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("ug 3 1\ne 0 1 2\n")
        assert exc.value.line == 2

    def test_non_integer(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("ug 3 1\ne 0 x\n")
        assert exc.value.line == 2

    def test_wrong_tag_for_kind(self):
        with pytest.raises(ParseError):
            parse_graph("ug 3 1\na 0 1\n")
        with pytest.raises(ParseError):
            parse_graph("og 3 1\ne 0 1\n")

    def test_too_many_lines(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("ug 3 1\ne 0 1\ne 1 2\n")
        assert exc.value.line == 3

    def test_too_few_lines(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("ug 3 2\ne 0 1\n")
        assert "promises 2" in exc.value.reason

    def test_out_of_range(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("ug 3 1\ne 0 3\n")
        assert exc.value.line == 2

    def test_self_loop(self):
        with pytest.raises(ParseError):
            parse_graph("ug 3 1\ne 1 1\n")

    def test_duplicate_edge_mentions_first_line(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("ug 3 2\ne 0 1\ne 1 0\n")
        assert exc.value.line == 3 and "line 2" in exc.value.reason


class TestAgainstReference:
    """The numpy parser against the line-at-a-time reference."""

    @given(mutated_files())
    def test_same_result_or_same_error(self, text):
        expected = outcome(reference_parse, text)
        for route in EDGE_ROUTES:
            with route():
                assert outcome(parsed, text) == expected

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("og 4 1\na 0 99999999999999999999999\n", 2, "endpoint outside 0..3"),
            ("og 4 1\na -99999999999999999999999 0\n", 2, "endpoint outside 0..3"),
            (
                "ug 4 1\ne 99999999999999999999999 99999999999999999999999\n",
                2,
                "self-loop at vertex 99999999999999999999999",
            ),
            # The first bad line wins, whatever its kind.
            ("ug 4 3\ne 0 1\ne 1 0\ne 0 x\n", 3, "edge (0, 1) already given on line 2"),
            ("ug 4 3\ne 0 1\ne 0 x\ne 1 0\n", 3, "'x' is not an integer"),
            ("ug 4 3\ne 0 9\ne 2 2\nx 0 1\n", 2, "endpoint outside 0..3"),
            ("ug 4 2\ne 0 1\ne 1 2\ne 2 2\n", 4, "more than 2 'e' lines"),
            ("ug 4 2\ne 0 1\ne 1 1\ne 2 3\n", 3, "self-loop at vertex 1"),
            # Within a line: tag, field count, integer, self-loop, range.
            ("og 4 1\ne 0\n", 2, "expected 'a' line, found 'e'"),
            ("og 4 1\na 0 x 1\n", 2, "expected 3 fields, found 4"),
            ("og 4 1\na 7 7\n", 2, "self-loop at vertex 7"),
        ],
    )
    @pytest.mark.parametrize("route", EDGE_ROUTES)
    def test_first_error_wins(self, text, line, reason, route):
        with route(), pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert (exc.value.line, exc.value.reason) == (line, reason)
        assert outcome(reference_parse, text)[1:3] == (line, reason)

    def test_vertex_cap(self):
        assert parse_graph(f"og {VERTEX_CAP} 0\n").n == VERTEX_CAP
        for n in (VERTEX_CAP + 1, 10**20):
            with pytest.raises(ParseError) as exc:
                parse_graph(f"# big\nog {n} 0\n")
            assert exc.value.line == 2
            assert exc.value.reason == f"vertex count {n} is over the cap of {VERTEX_CAP}"


class TestSharedGraphs:
    # Short graphs of small order are shared within a process, in a cache
    # of fixed size.
    def test_cache_holds_at_most_its_cap(self):
        shared = graph_module._shared_graph
        cap = graph_module._SHARED_GRAPHS
        first = parse_graph("og 4 4\na 0 1\na 1 2\na 2 3\na 3 0\n")
        assert parse_graph("ug 4 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n") is first.graph
        for k in range(3, cap + 13):
            parse_graph(serialize_graph(cycle(k)))
            assert shared.cache_info().currsize <= cap
        assert shared.cache_info().currsize == cap
        # C4 was used longest ago, so it has been evicted.
        assert parse_graph(serialize_graph(cycle(4))) is not first.graph

    @pytest.mark.parametrize(
        "text",
        [
            "og 262144 0\n",
            "og 200000 3\na 0 1\na 5 199999\na 3 2\n",
            serialize_graph(from_arcs(65, [(i, i + 1) for i in range(64)])),
        ],
        ids=["edgeless-at-cap", "large-order", "64-edges"],
    )
    def test_large_graphs_are_not_shared(self, text):
        g = parse_graph(text).graph
        assert graph_module._shared_graph.cache_info().currsize == 0
        assert parse_graph(text).graph is not g
        assert parse_graph(text).graph == g


class TestRoundTrip:
    def test_c4(self):
        g = cycle(4)
        assert parse_graph(serialize_graph(g)) == g

    def test_oriented_example(self):
        og = from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        text = serialize_graph(og)
        assert text == "og 4 4\na 0 1\na 0 3\na 1 2\na 2 3\n"
        assert parse_graph(text) == og

    @given(graphs())
    def test_undirected_round_trip(self, g):
        assert parse_graph(serialize_graph(g)) == g

    @given(oriented_graphs())
    def test_oriented_round_trip(self, og):
        assert parse_graph(serialize_graph(og)) == og

    @given(oriented_graphs())
    def test_serialization_is_stable(self, og):
        text = serialize_graph(og)
        assert serialize_graph(parse_graph(text)) == text


class TestRenderReport:
    def test_key_order_and_float_format(self):
        doc = {"b": 1.4142135623730951, "a": [1, True, None], "c": {"x": 0.0}}
        out = render_report(doc)
        assert out == (
            '{\n  "b": 1.41421356237,\n  "a": [1, true, null],\n'
            '  "c": {\n    "x": 0\n  }\n}\n'
        )

    def test_empty_object(self):
        assert render_report({"a": {}}) == '{\n  "a": {}\n}\n'

    def test_negative_zero_normalized(self):
        assert render_report({"v": -0.0}) == '{\n  "v": 0\n}\n'

    def test_integers_and_small_floats(self):
        out = render_report({"a": 2.0, "b": 1e-08, "c": -1.5})
        assert '"a": 2' in out and '"b": 1e-08' in out and '"c": -1.5' in out

    def test_deterministic(self):
        doc = {"values": [0.1 + 0.2, 3.0], "flag": False}
        assert render_report(doc) == render_report(doc)

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            render_report({"x": object()})

    @pytest.mark.parametrize("v", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_floats(self, v):
        with pytest.raises(ValueError):
            render_report({"x": v})
