"""The small-graph validation corpus."""

import networkx as nx

from hamsquare.graph import Graph
from hamsquare.decomposition import decompose
from families import path_graph, cycle_graph, complete_graph
from corpus import (
    MAX_VERTICES,
    MAX_CUTVERTICES,
    all_trees,
    glued_blocks,
    corpus,
    block_chains,
    is_block_chain,
    to_nx,
)

BOWTIE = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])


def test_frozen_sizes():
    # enumeration is deterministic; a change here means the generator changed
    assert len(all_trees()) == 48
    assert len(glued_blocks()) == 301
    assert len(corpus()) == 320
    assert len(block_chains()) == 106


def test_every_entry_is_connected_and_small():
    for g in corpus():
        assert nx.is_connected(to_nx(g))
        assert 1 <= g.n <= MAX_VERTICES


def test_glued_entries_respect_cutvertex_cap():
    for g in glued_blocks():
        if g.n >= 3:
            assert len(decompose(g).cutvertices) <= MAX_CUTVERTICES


def test_no_isomorphic_duplicates():
    buckets = {}
    for g in corpus():
        h = to_nx(g)
        key = (g.n, g.m, tuple(sorted(d for _, d in h.degree())))
        buckets.setdefault(key, []).append(h)
    for group in buckets.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                assert not nx.is_isomorphic(group[i], group[j])


def _contains_iso(pool, g):
    target = nx.Graph(list(g.edges))
    target.add_nodes_from(g.vertices)
    return any(h.n == g.n and h.m == g.m
               and nx.is_isomorphic(nx.Graph(list(h.edges)), target)
               for h in pool)


def test_membership_spot_checks():
    pool = corpus()
    assert _contains_iso(pool, BOWTIE)
    assert _contains_iso(pool, complete_graph(4))
    assert _contains_iso(pool, path_graph(8))
    assert _contains_iso(pool, cycle_graph(4))
    # 9 vertices is out of range
    assert not _contains_iso(pool, path_graph(9))


def test_trees_match_networkx_counts():
    by_n = {}
    for t in all_trees():
        by_n[t.n] = by_n.get(t.n, 0) + 1
    assert by_n[1] == 1 and by_n[2] == 1
    for n in range(3, 9):
        assert by_n[n] == sum(1 for _ in nx.nonisomorphic_trees(n))


def test_block_chain_recognition():
    assert is_block_chain(path_graph(5))
    assert is_block_chain(BOWTIE)
    assert is_block_chain(cycle_graph(4))
    spider = Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert not is_block_chain(spider)
    star = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
    assert not is_block_chain(star)


def test_block_chains_are_a_subset():
    chains = block_chains()
    texts = {g.edge_list_text() for g in corpus()}
    for g in chains:
        assert g.edge_list_text() in texts
        assert is_block_chain(g)
