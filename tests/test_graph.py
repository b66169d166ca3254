"""Graph construction, dart indexing, and the edge-list format."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from kfactor import Graph, GraphFormatError, dart_edge, opposite, parse_graph, serialize_graph
from kfactor.graph import MAX_VERTICES


def test_dart_layout_on_a_triangle():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert g.n == 3 and g.m == 3
    assert g.endpoints == ((0, 1), (0, 2), (1, 2))
    # dart 2e runs low -> high, dart 2e+1 runs high -> low
    assert g.dart_tails == (0, 1, 0, 2, 1, 2)
    assert g.dart_heads == (1, 0, 2, 0, 2, 1)
    assert g.adjacency == ((0, 2), (1, 4), (3, 5))


def test_endpoints_are_normalized_low_high():
    g = Graph(4, [(3, 1), (2, 0)])
    assert g.endpoints == ((1, 3), (0, 2))
    assert g.edge_id(3, 1) == 0 == g.edge_id(1, 3)


def test_opposite_and_dart_edge():
    assert opposite(6) == 7
    assert opposite(7) == 6
    assert dart_edge(6) == 3 == dart_edge(7)


def test_degree_and_out_darts():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert g.degree(0) == 3
    assert g.degree(3) == 1
    assert g.out_darts(0) == (0, 2, 4)
    assert g.out_darts(2) == (3,)
    assert [g.head(d) for d in g.out_darts(0)] == [1, 2, 3]
    assert all(g.tail(d) == 0 for d in g.out_darts(0))


def test_adjacency_sorted_ascending():
    g = Graph(5, [(4, 0), (1, 0), (0, 3), (2, 0)])
    for v in range(5):
        darts = g.adjacency[v]
        assert list(darts) == sorted(darts)


def test_has_edge_and_edge_id_absent():
    g = Graph(3, [(0, 1)])
    assert g.has_edge(1, 0)
    assert not g.has_edge(1, 2)
    assert g.edge_id(1, 2) is None


def test_empty_and_isolated():
    g = Graph(0, [])
    assert g.n == 0 and g.m == 0
    g = Graph(3, [])
    assert g.adjacency == ((), (), ())


@pytest.mark.parametrize(
    "n, edges, fragment",
    [
        (-1, [], "non-negative"),
        (3, [(0, 3)], "out of range"),
        (3, [(1, 1)], "loop"),
        (3, [(0, 1), (1, 0)], "duplicate"),
        (3, [(5, 5)], "loop edge at vertex 5"),  # the loop test comes before the range test
    ],
)
def test_constructor_rejections(n, edges, fragment):
    with pytest.raises(ValueError, match=fragment):
        Graph(n, edges)


def test_parse_graph_happy_path():
    text = "# a square\n\n4 4\n0 1\n1 2\n 2 3 \n0 3\n# trailing comment\n"
    g = parse_graph(text)
    assert g.n == 4 and g.m == 4
    assert g.endpoints == ((0, 1), (1, 2), (2, 3), (0, 3))


def test_parse_graph_normalizes_endpoint_order():
    g = parse_graph("3 1\n2 0\n")
    assert g.endpoints == ((0, 2),)


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("", 1, "missing 'n m' header"),
        ("# only comments\n", 2, "missing 'n m' header"),
        ("3\n", 1, "expected header"),
        ("a b\n", 1, "header fields must be integers"),
        ("-1 0\n", 1, "non-negative"),
        ("3 1\n0 1\n1 2\n", 3, "extra edge line"),
        ("3 1\n0\n", 2, "expected edge line"),
        ("3 1\n0 x\n", 2, "edge fields must be integers"),
        ("3 1\n1 1\n", 2, "loop edge at vertex 1"),
        ("3 1\n0 7\n", 2, "vertex index 7 out of range"),
        ("3 2\n0 1\n1 0\n", 3, "duplicate edge (0, 1)"),
        ("3 2\n0 1\n", 3, "promised 2 edges, found 1"),
        # several faults: the first faulty line is reported, whichever layer refuses it
        ("3 2\n1 1\n0 x\n", 2, "loop"),
        ("3 2\n0 x\n1 1\n", 2, "integers"),
        ("3 2\n0 1\n1 0\n0 5\n", 3, "duplicate"),
    ],
)
def test_parse_graph_error_lines(text, line, fragment):
    with pytest.raises(GraphFormatError) as info:
        parse_graph(text)
    assert info.value.line == line
    assert fragment in str(info.value)
    assert str(info.value).startswith(f"line {line}:")


# characters str.splitlines ends a line at, besides '\n', '\r' and '\r\n'
OTHER_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("ch", OTHER_LINE_BREAKS)
def test_only_newline_ends_a_line(ch):
    # inside an edge line: one line with four fields, not two edges
    with pytest.raises(GraphFormatError) as info:
        parse_graph(f"3 2\n0 1{ch}1 2\n")
    assert info.value.line == 2 and "expected edge line" in str(info.value)
    # inside a comment line: the text after it is still comment
    with pytest.raises(GraphFormatError) as info:
        parse_graph(f"3 1\n# c{ch} 0 1\n")
    assert info.value.line == 3 and "promised 1 edges, found 0" in str(info.value)
    assert parse_graph(f"3 1\n# c{ch} 0 1\n0 1\n").endpoints == ((0, 1),)
    # on the line before a fault: the reported line is 1 + the newlines before it
    for text in (f"# {ch}\n3 1\n0 1\n1 2\n", f"3 1\n#{ch}{ch}\n0 1\n1 1\n", f"3 2\n0 1 {ch}\n1 1\n"):
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert info.value.line == text.count("\n", 0, text.rindex("1 ")) + 1


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),
        ("\n", 2),
        ("# c\x85 0 1", 2),
        ("# c\x0c\n", 2),
        ("3 2\n0 1\x0c", 3),
        ("3 2\n0 1\x0c\n", 3),
        ("3 2\r\n0 1\r\n", 3),
        ("3 2\r\n0 1", 3),
    ],
)
def test_end_of_file_errors_name_the_line_after_the_last(text, line):
    with pytest.raises(GraphFormatError) as info:
        parse_graph(text)
    assert info.value.line == line


def test_crlf_documents_parse():
    assert parse_graph("# a path\r\n3 2\r\n0 1\r\n\r\n1 2\r\n").endpoints == ((0, 1), (1, 2))
    assert parse_graph("3 1\r\n2 1").endpoints == ((1, 2),)
    with pytest.raises(GraphFormatError) as info:
        parse_graph("3 2\r\n0 1\r\n1 1\r\n")
    assert info.value.line == 3 and "loop" in str(info.value)


@st.composite
def faulty_edge_lists(draw):
    """(n, edges, comment flags): a simple edge list with loops, out-of-range ids and repeats planted."""
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
    edges = [p[::-1] if draw(st.booleans()) else p for p in edges]
    vertex = st.integers(min_value=-2, max_value=n + 2)
    for kind in draw(st.lists(st.sampled_from(["loop", "range", "repeat"]), max_size=3)):
        if kind == "loop":
            x = draw(vertex)
            bad = (x, x)
        elif kind == "range":
            bad = draw(st.tuples(vertex, vertex))
        elif edges:
            bad = draw(st.sampled_from(edges))[:: draw(st.sampled_from([1, -1]))]
        else:
            continue
        edges.insert(draw(st.integers(0, len(edges))), bad)
    comments = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, edges, comments


@given(faulty_edge_lists())
def test_parse_graph_refuses_what_graph_refuses_on_its_line(case):
    n, edges, comments = case
    lines = [f"{n} {len(edges)}"]
    line_of = []
    for (u, v), comment in zip(edges, comments):
        if comment:
            lines.extend(["# note", ""])
        lines.append(f"{u} {v}")
        line_of.append(len(lines))
    text = "\n".join(lines) + "\n"
    try:
        g = Graph(n, edges)
    except ValueError as exc:
        first_refused = next(i for i in range(len(edges)) if _refuses(n, edges[: i + 1]))
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert info.value.line == line_of[first_refused]
        assert info.value.reason == str(exc)
        return
    h = parse_graph(text)
    assert (h.n, h.m, h.endpoints, h.adjacency) == (g.n, g.m, g.endpoints, g.adjacency)
    assert (h.dart_tails, h.dart_heads) == (g.dart_tails, g.dart_heads)
    assert all(h.edge_id(u, v) == g.edge_id(u, v) for u, v in edges)


def _refuses(n, edges):
    try:
        Graph(n, edges)
    except ValueError:
        return True
    return False


def test_parse_graph_refuses_huge_vertex_count_before_allocating():
    # a 13-byte header must not build a million-entry adjacency list
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError) as info:
            parse_graph(f"# huge\n{MAX_VERTICES + 1} 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.line == 2
    assert f"vertex count {MAX_VERTICES + 1} exceeds the limit of {MAX_VERTICES}" in str(info.value)
    assert peak < 100_000
    assert MAX_VERTICES == 1_000_000


def test_format_error_is_a_value_error():
    err = GraphFormatError(7, "boom")
    assert isinstance(err, ValueError)
    assert err.line == 7 and err.reason == "boom"


def test_serialize_round_trip_fixed():
    g = Graph(4, [(2, 1), (0, 3)])
    text = serialize_graph(g)
    assert text == "4 2\n1 2\n0 3\n"
    h = parse_graph(text)
    assert h.n == g.n and h.endpoints == g.endpoints


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(n, edges)


@given(random_graphs())
def test_serialize_parse_round_trip(g):
    h = parse_graph(serialize_graph(g))
    assert h.n == g.n
    assert h.endpoints == g.endpoints
    assert h.adjacency == g.adjacency


@given(random_graphs())
def test_dart_indexing_invariants(g):
    assert len(g.dart_tails) == 2 * g.m == len(g.dart_heads)
    for d in range(2 * g.m):
        assert g.dart_tails[d] == g.dart_heads[opposite(d)]
        assert dart_edge(d) == dart_edge(opposite(d))
        u, v = g.endpoints[dart_edge(d)]
        assert {g.dart_tails[d], g.dart_heads[d]} == {u, v}
    # every dart appears exactly once across adjacency
    seen = sorted(d for ds in g.adjacency for d in ds)
    assert seen == list(range(2 * g.m))
