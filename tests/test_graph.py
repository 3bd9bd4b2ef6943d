"""Graph container, parsing, squaring."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from hamsquare import graph
from hamsquare.construct import construct_ham_cycle, construct_ham_path
from hamsquare.hamconn import HAM_CONNECTED, decide_hamiltonian_connectedness
from hamsquare.labelling import HAMILTONIAN, decide_hamiltonicity
from corpus import corpus, to_nx
from families import path_graph, cycle_graph, complete_graph, complete_bipartite
from test_labelling import _random_block_tree
from hamsquare.graph import (
    Graph,
    GraphParseError,
    edge,
    parse_edge_list,
    is_ham_cycle,
    is_ham_path,
)


def test_edge_normalizes():
    assert edge(2, 1) == (1, 2)
    assert edge(1, 2) == (1, 2)


def test_edge_rejects_loop():
    with pytest.raises(ValueError):
        edge(3, 3)


def test_no_vertex_is_adjacent_to_itself():
    # edge() rejects a loop, but adjacency in g and in its square is False
    p3 = path_graph(3)
    for v in p3.vertices:
        assert not p3.has_edge(v, v)
        assert not p3.square_has_edge(v, v)


def test_graph_validates_edges():
    with pytest.raises(ValueError):
        Graph(frozenset({0, 1}), frozenset({(1, 0)}))  # not normalized
    with pytest.raises(ValueError):
        Graph(frozenset({0}), frozenset({(0, 1)}))  # undeclared endpoint
    with pytest.raises(ValueError):
        Graph(frozenset({-1, 0}), frozenset({(-1, 0)}))  # negative vertex
    with pytest.raises(ValueError):
        Graph(frozenset({0, "a"}), frozenset())  # not an integer
    with pytest.raises(ValueError):
        Graph.from_edges([(2, 2)])


def test_neighbors_cannot_change_the_graph():
    g = path_graph(4)
    nb = g.neighbors(1)
    assert nb == {0, 2} and isinstance(nb, frozenset)
    with pytest.raises(AttributeError):
        nb.add(3)
    nb -= {0}  # rebinds the name; the graph keeps its neighbourhood
    assert g.neighbors(1) == {0, 2} and g.degree(1) == 2


def _same_graph(want, got):
    """got reads as want does: vertices, edges, m, adj, == and hash. It
    holds each vertex as one int object, in vertices and in adj."""
    assert got.vertices == want.vertices and got.edges == want.edges
    assert got.m == want.m == len(want.edges)
    assert got.adj == want.adj
    assert got == want and hash(got) == hash(want)
    one = {id(v) for v in got.adj}
    assert {id(v) for v in got.vertices} == one
    assert all(id(w) in one for nw in got.adj.values() for w in nw)


def _routes(g):
    """g built again by every other route: checked, from its edges, by both
    parsers from its text, and relabelled by the identity."""
    text = g.edge_list_text()
    return (Graph(g.vertices, g.edges),
            Graph.from_edges(g.edges, isolated=g.vertices),
            parse_edge_list(text), graph._parse_lines(text),
            g.relabelled({v: v for v in g.vertices}))


def test_square_equals_a_validated_build():
    # square() builds its adjacency without the checks of Graph(...); every
    # other route to the same graph reads the same
    rng = random.Random(3)
    graphs = list(corpus()) + [_random_block_tree(rng) for _ in range(100)]
    for _ in range(200):
        n = rng.randint(1, 30)
        vs = rng.sample(range(3 * n), n)
        es = {edge(*rng.sample(vs, 2)) for _ in range(rng.randint(0, 2 * n))
              if n > 1}
        g = Graph(frozenset(vs), frozenset(es))
        assert g.vertices == set(vs) and g.edges == es
        graphs.append(g)
    for g in graphs:
        sq = g.square()
        for got in _routes(sq):
            _same_graph(sq, got)


def test_square_adjacency_is_the_index_of_its_edges():
    # square() fills its adjacency while it collects its edges
    rng = random.Random(19)
    graphs = list(corpus()) + [_random_block_tree(rng) for _ in range(200)]
    for g in graphs:
        sq = g.square()
        assert sq.adj == Graph(sq.vertices, sq.edges).adj, g
        assert sq.edges == _square_by_bfs(g).edges, g


def test_parse_equals_a_validated_build():
    # parse_edge_list skips the checks of Graph(...): it has made them all
    rng = random.Random(5)
    graphs = list(corpus()) + [_random_block_tree(rng) for _ in range(100)]
    for _ in range(100):
        n = rng.randint(1, 200)
        label = rng.sample(range(3 * n), n)
        es = {edge(label[i], label[rng.randrange(i)]) for i in range(1, n)}
        g = Graph.from_edges(es, isolated=label[:1])
        assert g.vertices == set(label) and g.edges == es
        graphs.append(g)
    for g in graphs:
        rows = [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}"
                for u, v in g.edges] + [str(v) for v in g.vertices]
        rng.shuffle(rows)
        want = Graph.from_edges(g.edges, isolated=g.vertices)
        for got in _routes(g):
            _same_graph(want, got)
        canon = g.edge_list_text()
        first, _, rest = canon.partition("\n")
        flipped = " ".join(reversed(first.split())) + "\n" + rest
        # the canonical text, then near misses that take the per-line parser
        for text in (canon, "# shuffled\n" + "\n".join(rows), flipped,
                     canon.replace("\n", "\r\n"), canon.replace(" ", "\t"),
                     canon.replace(" ", "  "), canon.rstrip("\n")):
            _same_graph(want, parse_edge_list(text))
            _same_graph(want, graph._parse_lines(text))


def test_canonical_text_is_parsed_in_bulk(monkeypatch):
    texts = []
    per_line = graph._parse_lines
    monkeypatch.setattr(graph, "_parse_lines",
                        lambda text: texts.append(text) or per_line(text))
    g = path_graph(3000)
    assert parse_edge_list(g.edge_list_text()) == g
    assert texts == []
    for text in ("0 1\n2 1\n", "0 1\n1 2", "0 1\n1 2\n3\n"):
        parse_edge_list(text)
    assert len(texts) == 3


def test_equality_ignores_identity_of_adjacency():
    a = Graph.from_edges([(0, 1), (1, 2)])
    b = Graph.from_edges([(1, 2), (0, 1)])
    assert a == b
    assert hash(a) == hash(b)


def test_parse_basic_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.vertices == frozenset({0, 1, 2})
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_parse_collapses_duplicates():
    g = parse_edge_list("0 1\n0 1\n1 0")
    assert g.m == 1


def test_parse_rejects_self_loop():
    with pytest.raises(GraphParseError) as exc:
        parse_edge_list("0 0")
    assert exc.value.line_no == 1


def test_parse_comments_isolated_and_errors():
    g = parse_edge_list("# header\n0 1  # inline\n\n7\n")
    assert 7 in g.vertices
    assert g.degree(7) == 0
    with pytest.raises(GraphParseError):
        parse_edge_list("0 1 2")
    with pytest.raises(GraphParseError):
        parse_edge_list("a b")
    with pytest.raises(GraphParseError, match="vertices must be non-negative"):
        parse_edge_list("-1 2")
    assert parse_edge_list("00 01\n").edges == {(0, 1)}  # leading zeros
    # the parser's own checks are the only ones its graph gets
    big = "9" * 5000  # past int()'s digit limit
    for text, line_no in (("0 1\n-1\n", 2), ("0 1\n\nx\n", 3),
                          ("0 1\n1 -2\n", 2), ("0 1\n2 2\n", 2),
                          (f"0 1\n1 {big}\n", 2), (f"{big} 1\n", 1),
                          # a vertex token is ASCII digits, with no sign,
                          # underscore or other script's digit
                          ("0 1_0\n1_0 +2\n+2 0\n", 1), ("0 1\n+2 0\n", 2),
                          ("0 1\n0 \u0662\n", 2), ("0 1\n\u0662\n", 2),
                          ("0 1\n-0\n", 2)):
        with pytest.raises(GraphParseError) as exc:
            parse_edge_list(text)
        assert exc.value.line_no == line_no
    # text near the canonical form, converted in bulk or line by line,
    # gives what the per-line parser gives
    for text in ("0 1\n5 2\n", "0 1\n1 2\n", "0 1\r\n1 2\r\n",
                 "0 1\n1\t2\n", "0 1\n1  2\n", "0 1\n1 2", "0 1\n3 3\n",
                 "", "\n", f"0 {big}\n", "00 01\n1 2\n"):
        try:
            want = graph._parse_lines(text)
        except GraphParseError as e:
            with pytest.raises(GraphParseError) as exc:
                parse_edge_list(text)
            assert (str(exc.value), exc.value.line_no) == (str(e), e.line_no)
        else:
            got = parse_edge_list(text)
            assert got == want and got.adj == want.adj


def _square_by_bfs(g: Graph) -> Graph:
    # independent reference: networkx joins vertices at distance 1 or 2
    sq = nx.power(to_nx(g), 2)
    return Graph(frozenset(sq), frozenset(edge(u, v) for u, v in sq.edges))


def test_square_k2_fixed():
    k2 = path_graph(2)
    assert k2.square() == k2


def test_square_p3_is_triangle():
    assert path_graph(3).square() == complete_graph(3)


def test_square_c5_is_k5():
    # every pair in C5 is at distance <= 2
    assert cycle_graph(5).square() == complete_graph(5)


@pytest.mark.parametrize("g", [
    path_graph(6), cycle_graph(7), complete_bipartite(2, 3),
    Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]),
])
def test_square_matches_bfs_reference(g):
    assert g.square() == _square_by_bfs(g)


def test_relabelled_roundtrip():
    g = cycle_graph(4)
    h = g.relabelled({0: 10, 1: 11, 2: 12, 3: 13})
    assert h.has_edge(10, 11)
    assert h.relabelled({10: 0, 11: 1, 12: 2, 13: 3}) == g


def test_to_dot_contains_edges_and_highlight():
    tri = complete_graph(3)
    dot = tri.to_dot(highlight=[(0, 1)])
    assert "graph G {" in dot
    assert "0 -- 1 [color=red" in dot
    assert "1 -- 2;" in dot


def test_is_ham_cycle_and_path_checkers():
    c4 = cycle_graph(4)
    assert is_ham_cycle(c4, [0, 1, 2, 3])
    assert not is_ham_cycle(c4, [0, 1, 3, 2])  # 1-3 is not an edge
    assert not is_ham_cycle(c4, [0, 1, 2])  # misses a vertex
    p = path_graph(4)
    assert is_ham_path(p, [0, 1, 2, 3], 0, 3)
    assert not is_ham_path(p, [0, 1, 2, 3], 0, 2)


def _indexed_ham_cycle(g, order, square=False):
    """is_ham_cycle as it was first written: by index, modulo n."""
    if g.n < 3 or len(order) != g.n or set(order) != g.vertices:
        return False
    adjacent = g.square_has_edge if square else g.has_edge
    return all(adjacent(order[i], order[(i + 1) % g.n]) for i in range(g.n))


def _indexed_ham_path(g, order, x=None, y=None, square=False):
    """is_ham_path as it was first written: by index."""
    if len(order) != g.n or set(order) != g.vertices:
        return False
    adjacent = g.square_has_edge if square else g.has_edge
    if not all(adjacent(order[i], order[i + 1]) for i in range(g.n - 1)):
        return False
    if x is None and y is None:
        return True
    ends = (order[0], order[-1])
    forward = (x is None or ends[0] == x) and (y is None or ends[1] == y)
    backward = (x is None or ends[1] == x) and (y is None or ends[0] == y)
    return forward or backward


def _corrupted(order, rng):
    """order, and copies with two vertices swapped, one vertex repeated in
    place of another, one dropped, and the last moved to the front."""
    out = [list(order)]
    i, j = rng.sample(range(len(order)), 2)
    swapped = list(order)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    repeated = list(order)
    repeated[i] = repeated[j]
    dropped = list(order)
    del dropped[i]
    return out + [swapped, repeated, dropped, [order[-1], *order[:-1]]]


def test_checkers_agree_with_their_indexed_definitions():
    # valid witnesses of the square and random orders, each as it is and
    # corrupted, checked against the graph and against its square
    rng = random.Random(5)
    seen = {True: 0, False: 0}
    graphs = [path_graph(7), cycle_graph(9), complete_graph(5)]
    graphs += [_random_block_tree(rng) for _ in range(150)]
    for g in graphs:
        vs = sorted(g.vertices)
        bases = [rng.sample(vs, g.n), vs]
        if decide_hamiltonicity(g).outcome == HAMILTONIAN:
            bases.append(construct_ham_cycle(g))
        if decide_hamiltonian_connectedness(g).outcome == HAM_CONNECTED:
            bases.append(construct_ham_path(g, *rng.sample(vs, 2)))
        for o in (o for base in bases for o in _corrupted(base, rng)):
            for square in (False, True):
                got = is_ham_cycle(g, o, square)
                assert got == _indexed_ham_cycle(g, o, square)
                seen[got] += 1
                for x, y in [(None, None), (o[0], o[-1]), (o[-1], o[0]),
                             (o[0], None), (None, o[0]), (o[1], o[-1])]:
                    got = is_ham_path(g, o, x, y, square)
                    assert got == _indexed_ham_path(g, o, x, y, square)
                    seen[got] += 1
    assert min(seen.values()) > 500, seen


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    es = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))
              if pool else st.just([]))
    return Graph.from_edges(es, isolated=range(n))


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_serialize_parse_roundtrip(g):
    assert parse_edge_list(g.edge_list_text()) == g


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_square_grows_monotonically(g):
    sq = g.square()
    assert g.edges <= sq.edges
    assert sq == _square_by_bfs(g)
