import pytest
from hypothesis import given

from skewspec import (
    Graph,
    OrientedGraph,
    ParseError,
    cycle,
    from_arcs,
    parse_graph,
    render_report,
    serialize_graph,
)
from strategies import graphs, oriented_graphs


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
