"""Caterpillar recognition and the constrained hamiltonian cycle in T**2."""

import itertools

import pytest

from hamsquare.graph import Graph, edge, path_graph, is_ham_cycle
from hamsquare.caterpillars import (
    ConstructionError,
    caterpillar_cycle,
    derived_path,
    is_caterpillar,
    longest_spine,
    replace_edge_with,
)


def star(k):
    return Graph.from_edges([(0, i) for i in range(1, k + 1)])


def test_paths_and_stars_are_caterpillars():
    for n in range(2, 8):
        assert is_caterpillar(path_graph(n))
    for k in range(2, 6):
        assert is_caterpillar(star(k))


def test_spider_is_not_a_caterpillar():
    # three legs of length two: removing leaves yields a star, not a path
    spider = Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert not is_caterpillar(spider)
    assert derived_path(spider) is None


def test_derived_path_of_long_path():
    p6 = path_graph(6)
    assert derived_path(p6) == [1, 2, 3, 4]


def test_longest_spine_is_longest():
    # caterpillar: spine 0-1-2-3 with a leaf on 1
    t = Graph.from_edges([(0, 1), (1, 2), (2, 3), (1, 4)])
    sp = longest_spine(t)
    assert len(sp) == 4
    assert all(t.has_edge(a, b) for a, b in zip(sp, sp[1:]))


def test_longest_spine_prefers_requested_ends():
    t = star(3)  # any pair of leaves forms a longest path
    sp = longest_spine(t, prefer_ends=frozenset({2, 3}))
    assert set(sp) == {2, 0, 3}


def test_replace_edge_with_both_orientations():
    assert replace_edge_with([0, 1, 2], 1, 2, [1, 9, 2]) == [0, 1, 9, 2]
    assert replace_edge_with([0, 2, 1], 1, 2, [1, 9, 2]) == [0, 2, 9, 1]
    # wrap-around edge of a cycle
    assert replace_edge_with([0, 1, 2], 2, 0, [2, 9, 0]) == [0, 1, 2, 9]
    with pytest.raises(ValueError):
        replace_edge_with([0, 1, 2, 3], 0, 2, [0, 2])  # a chord, not a cycle edge


def test_p3_cycle_reserves_everything():
    cc = caterpillar_cycle(path_graph(3), need_end=frozenset({0, 2}),
                           need_pair=frozenset({1}))
    assert set(cc.order) == {0, 1, 2}
    assert cc.reserved[0] == (0, 1)
    assert cc.reserved[2] == (1, 2)
    assert cc.reserved[1] == (0, 2)


def test_star_cycle_pairs_through_third_leaf():
    k13 = star(3)
    cc = caterpillar_cycle(k13, need_end=frozenset({1, 3}),
                           need_pair=frozenset({0}))
    assert set(cc.order) == {0, 1, 2, 3}
    # the dedicated pair edge for the hub joins two of its leaves
    u, v = cc.reserved[0]
    assert u in k13.neighbors(0) and v in k13.neighbors(0)
    assert is_ham_cycle(k13.square(), list(cc.order))


def test_cycle_needs_three_vertices():
    with pytest.raises(ValueError):
        caterpillar_cycle(path_graph(2))


def _all_caterpillars(n):
    """Every labelled caterpillar on vertices 0..n-1, deduplicated crudely."""
    import networkx as nx
    for t in nx.nonisomorphic_trees(n):
        g = Graph.from_edges(t.edges())
        if is_caterpillar(g):
            yield g


@pytest.mark.parametrize("n", range(3, 9))
def test_every_small_caterpillar_gets_a_valid_cycle(n):
    for t in _all_caterpillars(n):
        spine = longest_spine(t)
        need_end = frozenset({spine[0], spine[-1]})
        need_pair = frozenset(v for v in spine[1:-1])
        cc = caterpillar_cycle(t, need_end=need_end, need_pair=need_pair)
        order = list(cc.order)
        assert is_ham_cycle(t.square(), order)
        cyc_edges = {edge(order[i], order[(i + 1) % len(order)])
                     for i in range(len(order))}
        for v in need_end | need_pair:
            e = cc.reserved[v]
            assert e in cyc_edges
            if v in need_end:
                assert v in e
            else:
                a, b = e
                assert a in t.neighbors(v) and b in t.neighbors(v)
        # the dedicated edges are pairwise distinct
        assert len({cc.reserved[v] for v in need_end | need_pair}) == \
            len(need_end | need_pair)


def test_seven_vertex_spine_keeps_both_end_edges():
    # spine of five with one leaf on the second and fourth spine vertex
    t = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 6)])
    cc = caterpillar_cycle(t)
    order = list(cc.order)
    assert is_ham_cycle(t.square(), order)
    cyc_edges = {edge(order[i], order[(i + 1) % len(order)])
                 for i in range(len(order))}
    assert set(cc.end_edges) <= cyc_edges
