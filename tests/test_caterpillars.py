"""The constrained hamiltonian cycle in T**2 of a caterpillar T, checked
against the Graph-based reference recognisers in caterpillar_reference."""

import hashlib
import itertools
import random

import pytest

from hamsquare.graph import Graph, edge, is_ham_cycle
from hamsquare.caterpillars import (
    ConstructionError,
    _spine,
    caterpillar_cycle,
    replace_edge_with,
)
from caterpillar_reference import (
    adjacency,
    derived_path,
    is_caterpillar,
    longest_spine,
)
from families import path_graph


def star(k):
    return Graph.from_edges([(0, i) for i in range(1, k + 1)])


def test_paths_and_stars_are_caterpillars():
    for n in range(2, 8):
        assert is_caterpillar(path_graph(n))
        if n >= 3:
            order = caterpillar_cycle(adjacency(path_graph(n)))[0]
            assert is_ham_cycle(path_graph(n), order, square=True)
    for k in range(2, 6):
        assert is_caterpillar(star(k))
        order = caterpillar_cycle(adjacency(star(k)))[0]
        assert is_ham_cycle(star(k), order, square=True)


def test_spider_is_not_a_caterpillar():
    # three legs of length two: removing leaves yields a star, not a path
    spider = Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert not is_caterpillar(spider)
    assert derived_path(spider) is None
    with pytest.raises(ValueError):
        caterpillar_cycle(adjacency(spider))


def test_derived_path_of_long_path():
    p6 = path_graph(6)
    assert derived_path(p6) == [1, 2, 3, 4]
    assert _spine(adjacency(p6), frozenset())[0] == [0, 1, 2, 3, 4, 5]


def test_longest_spine_is_longest():
    # caterpillar: spine 0-1-2-3 with a leaf on 1
    t = Graph.from_edges([(0, 1), (1, 2), (2, 3), (1, 4)])
    for sp in (longest_spine(t), _spine(adjacency(t), frozenset())[0]):
        assert len(sp) == 4
        assert all(t.has_edge(a, b) for a, b in zip(sp, sp[1:]))


def test_longest_spine_prefers_requested_ends():
    t = star(3)  # any pair of leaves forms a longest path
    sp = longest_spine(t, prefer_ends=frozenset({2, 3}))
    assert set(sp) == {2, 0, 3}
    assert set(_spine(adjacency(t), frozenset({2, 3}))[0]) == {2, 0, 3}
    # the cycle reserves each of them the spine end-edge holding it
    _, reserved = caterpillar_cycle(adjacency(t), need_end=frozenset({2, 3}))
    assert reserved == {2: (0, 2), 3: (0, 3)}


def test_replace_edge_with_both_orientations():
    assert replace_edge_with([0, 1, 2], 1, 2, [1, 9, 2]) == [0, 1, 9, 2]
    assert replace_edge_with([0, 2, 1], 1, 2, [1, 9, 2]) == [0, 2, 9, 1]
    # wrap-around edge of a cycle
    assert replace_edge_with([0, 1, 2], 2, 0, [2, 9, 0]) == [0, 1, 2, 9]
    with pytest.raises(ValueError):
        replace_edge_with([0, 1, 2, 3], 0, 2, [0, 2])  # a chord, not a cycle edge


def test_p3_cycle_reserves_everything():
    order, reserved = caterpillar_cycle(
        adjacency(path_graph(3)), need_end=frozenset({0, 2}),
        need_pair=frozenset({1}))
    assert set(order) == {0, 1, 2}
    assert reserved == {0: (0, 1), 2: (1, 2), 1: (0, 2)}


def test_star_cycle_pairs_through_third_leaf():
    k13 = star(3)
    order, reserved = caterpillar_cycle(adjacency(k13), need_end=frozenset({1, 3}),
                                        need_pair=frozenset({0}))
    assert set(order) == {0, 1, 2, 3}
    # the dedicated pair edge for the hub joins two of its leaves
    u, v = reserved[0]
    assert u in k13.neighbors(0) and v in k13.neighbors(0)
    assert is_ham_cycle(k13.square(), order)


def test_cycle_needs_three_vertices():
    with pytest.raises(ValueError):
        caterpillar_cycle(adjacency(path_graph(2)))


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
        assert _spine(adjacency(t), need_end)[0] == spine
        order, reserved = caterpillar_cycle(adjacency(t), need_end=need_end,
                                            need_pair=need_pair)
        assert is_ham_cycle(t.square(), order)
        cyc_edges = {edge(order[i], order[(i + 1) % len(order)])
                     for i in range(len(order))}
        assert reserved.keys() == need_end | need_pair
        for v in need_end | need_pair:
            e = reserved[v]
            assert e in cyc_edges
            if v in need_end:
                assert v in e
            else:
                a, b = e
                assert a in t.neighbors(v) and b in t.neighbors(v)
        # the dedicated edges are pairwise distinct
        assert len(set(reserved.values())) == len(need_end | need_pair)


def test_seven_vertex_spine_keeps_both_end_edges():
    # spine of five with one leaf on the second and fourth spine vertex
    t = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 6)])
    order = caterpillar_cycle(adjacency(t))[0]
    assert is_ham_cycle(t.square(), order)
    cyc_edges = {edge(order[i], order[(i + 1) % len(order)])
                 for i in range(len(order))}
    x = _spine(adjacency(t), frozenset())[0]
    assert {edge(x[0], x[1]), edge(x[-2], x[-1])} <= cyc_edges


def _spine_or_error(call):
    try:
        return list(call())
    except (ValueError, ConstructionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", range(3, 10))
def test_spine_matches_reference_scans(n):
    # the spine walked from the adjacency is the reference's longest path,
    # for every choice of up to three preferred ends, errors included; the
    # cycle reserves those ends the spine's end-edges or raises
    import networkx as nx
    for t in nx.nonisomorphic_trees(n):
        g = Graph.from_edges(t.edges())
        if not is_caterpillar(g):
            with pytest.raises(ValueError):
                caterpillar_cycle(adjacency(g))
            continue
        for k in range(4):
            for ends in itertools.combinations(g.sorted_vertices(), k):
                ends = frozenset(ends)
                want = _spine_or_error(lambda: longest_spine(g, ends))
                assert _spine_or_error(
                    lambda: _spine(adjacency(g), ends)[0]) == want
                try:
                    _, reserved = caterpillar_cycle(adjacency(g), need_end=ends)
                except (ValueError, ConstructionError) as exc:
                    if isinstance(want, list):
                        # the spine exists, the end-edge reservation does not
                        assert type(exc) is ConstructionError
                        assert "end-edge reservations" in str(exc)
                    else:
                        assert (type(exc), str(exc)) == want
                    continue
                spine_ends = {edge(*want[:2]), edge(*want[-2:])}
                assert reserved.keys() == ends
                assert all(h in e and e in spine_ends
                           for h, e in reserved.items())


def _caterpillar_requests(seed=20261019, count=300):
    """(edges, need_end, need_pair) for seeded caterpillars on 3 to 300
    vertices with shuffled labels, four reservation variants each: none,
    valid-looking ends and pairs, three ends, and two ends plus a pair
    drawn from all vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 300)
        s = rng.choice((1, 2, rng.randint(1, n), n - rng.randint(0, 3)))
        s = max(1, min(s, n))
        parent = [i - 1 for i in range(s)] + \
            [rng.randrange(s) for _ in range(s, n)]
        label = rng.sample(range(3 * n), n)
        edges = [(label[i], label[parent[i]]) for i in range(1, n)]
        deg = [0] * n
        for i in range(1, n):
            deg[i] += 1
            deg[parent[i]] += 1
        leaves = [label[i] for i in range(n) if deg[i] == 1]
        inner = [label[i] for i in range(n) if deg[i] >= 2]
        yield edges, frozenset(), frozenset()
        yield (edges,
               frozenset(rng.sample(leaves, min(len(leaves), rng.randint(1, 2)))),
               frozenset(rng.sample(inner, rng.randint(0, len(inner)))))
        yield edges, frozenset(rng.sample(leaves, min(len(leaves), 3))), frozenset()
        yield (edges, frozenset(rng.sample(inner + leaves, 2)),
               frozenset(rng.sample(inner + leaves, 1)))


# order and reservations (or the error) of the 1200 requests above, as the
# splice-built constructor gave them
CATERPILLAR_CYCLES_SHA256 = \
    "e408c40f0992a32d480c3218565bfb972c99ff5528a1e1e5bf0753593da7cb86"


def test_caterpillar_cycles_pinned_beyond_the_corpus():
    h = hashlib.sha256()
    for edges, need_end, need_pair in _caterpillar_requests():
        nbrs: dict = {}  # neighbour sets, as P0 keeps them
        for a, b in edges:
            nbrs.setdefault(a, set()).add(b)
            nbrs.setdefault(b, set()).add(a)
        try:
            order, reserved = caterpillar_cycle(nbrs, need_end, need_pair)
            row = (tuple(order), sorted(reserved.items()))
        except Exception as exc:
            row = (type(exc).__name__, str(exc))
        h.update(repr(row).encode())
        h.update(b"\n")
    assert h.hexdigest() == CATERPILLAR_CYCLES_SHA256


def test_hundred_thousand_vertex_caterpillar():
    rng = random.Random(5)
    n, spine = 100_000, 60_000
    label = rng.sample(range(n), n)
    edges = [(label[i], label[i + 1]) for i in range(spine - 1)]
    edges += [(label[rng.randrange(1, spine - 1)], label[i])
              for i in range(spine, n)]
    t = Graph.from_edges(edges)
    nbrs = adjacency(t)
    assert len(_spine(nbrs, frozenset())[0]) == spine
    assert is_ham_cycle(t, caterpillar_cycle(nbrs)[0], square=True)
