"""Block-cutvertex decomposition against brute-force references."""

import itertools

import networkx as nx
import pytest

from hamsquare.graph import Graph, edge, path_graph, cycle_graph, complete_graph
from hamsquare.decomposition import (
    decompose,
    bc_tree,
    bc_isomorphic,
    canonical_text,
    compute_P0,
    _canon_cmp,
)
from hamsquare.corpus import corpus

BOWTIE = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
SPIDER = Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def brute_cutvertices(g: Graph) -> set:
    out = set()
    base = len(g.components())
    for v in g.sorted_vertices():
        rest = g.subgraph(g.vertices - {v})
        if rest.n and len(rest.components()) > base:
            out.add(v)
    return out


def brute_bridges(g: Graph) -> set:
    out = set()
    base = len(g.components())
    for e in g.sorted_edges():
        rest = Graph(g.vertices, g.edges - {e})
        if len(rest.components()) > base:
            out.add(e)
    return out


SAMPLES = [
    path_graph(2), path_graph(4), cycle_graph(5), complete_graph(4),
    BOWTIE, SPIDER,
    Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]),
    Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4), (4, 5)]),
]


@pytest.mark.parametrize("g", SAMPLES)
def test_cutvertices_match_deletion_oracle(g):
    d = decompose(g)
    assert set(d.cutvertices) == brute_cutvertices(g)


@pytest.mark.parametrize("g", SAMPLES)
def test_bridges_match_deletion_oracle(g):
    d = decompose(g)
    got = {b.edges for b in d.bridges()}
    assert {e for bs in got for e in bs} == brute_bridges(g)


@pytest.mark.parametrize("g", SAMPLES)
def test_blocks_match_networkx(g):
    h = nx.Graph(list(g.edges))
    expect = sorted(sorted(c) for c in nx.biconnected_components(h))
    got = sorted(sorted(b.vertices) for b in decompose(g).blocks)
    assert got == expect


def test_blocks_partition_edges():
    for g in SAMPLES:
        d = decompose(g)
        union = [e for b in d.blocks for e in b.edges]
        assert sorted(union) == g.sorted_edges()
        for b1, b2 in itertools.combinations(d.blocks, 2):
            assert len(set(b1.vertices) & set(b2.vertices)) <= 1


def test_bowtie_counters():
    d = decompose(BOWTIE)
    assert set(d.cutvertices) == {0}
    assert d.k[0] == 2
    assert d.bn[0] == 0
    assert len(d.two_blocks()) == 2


def test_p4_bridges_and_bn():
    d = decompose(path_graph(4))
    assert len(d.blocks) == 3
    assert set(d.cutvertices) == {1, 2}
    assert set(d.nontrivial_bridges) == {(1, 2)}
    assert set(d.trivial_bridges) == {(0, 1), (2, 3)}
    assert d.bn[1] == 1 and d.bn[2] == 1


def test_spider_center_has_three_heavy_bridges():
    d = decompose(SPIDER)
    assert d.bn[0] == 3


def test_two_block_flag_is_size_based():
    d = decompose(BOWTIE)
    assert all(b.is_two_block and not b.is_bridge for b in d.blocks)
    d = decompose(path_graph(3))
    assert all(b.is_bridge for b in d.blocks)


def test_cvn_sum_identity():
    for g in SAMPLES:
        d = decompose(g)
        per_block = sum(d.cvn[b.index] for b in d.blocks)
        per_cut = sum(len(d.blocks_at(v)) for v in d.cutvertices)
        assert per_block == per_cut


def test_endblocks():
    d = decompose(path_graph(4))
    ends = {tuple(sorted(b.vertices)) for b in d.endblocks()}
    assert ends == {(0, 1), (2, 3)}


def test_decompose_rejects_disconnected():
    g = Graph.from_edges([(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        decompose(g)


# -- bc-tree ---------------------------------------------------------------

def test_bc_tree_bowtie_is_path_of_three():
    t = bc_tree(decompose(BOWTIE))
    assert len(t.nodes) == 3  # block, cutvertex, block
    degs = sorted(len(t.adj[x]) for x in t.nodes)
    assert degs == [1, 1, 2]


def test_bc_tree_single_block_single_node():
    t = bc_tree(decompose(cycle_graph(4)))
    assert len(t.nodes) == 1


def test_bc_tree_p4_five_node_path():
    t = bc_tree(decompose(path_graph(4)))
    assert len(t.nodes) == 5
    assert sorted(len(t.adj[x]) for x in t.nodes) == [1, 1, 2, 2, 2]


def test_bc_tree_node_count_identity():
    for g in SAMPLES:
        d = decompose(g)
        t = bc_tree(d)
        assert len(t.nodes) == len(d.blocks) + len(d.cutvertices)


def test_bc_isomorphic_examples():
    t = bc_tree(decompose(BOWTIE))
    assert bc_isomorphic(t, t)
    p4 = bc_tree(decompose(path_graph(4)))
    k13 = bc_tree(decompose(Graph.from_edges([(0, 1), (0, 2), (0, 3)])))
    assert not bc_isomorphic(p4, k13)
    two_c4 = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0),
                               (0, 4), (4, 5), (5, 6), (6, 0)])
    assert bc_isomorphic(t, bc_tree(decompose(two_c4)))


def test_bc_isomorphic_distinguishes_block_kinds():
    # same tree shape, but a 2-block versus a bridge in the middle
    tri_bridge = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3)])
    two_bridges = path_graph(3)
    assert not bc_isomorphic(bc_tree(decompose(tri_bridge)),
                             bc_tree(decompose(two_bridges)))


def test_bc_isomorphic_invariant_under_relabelling():
    for g in SAMPLES:
        shift = g.relabelled({v: v + 100 for v in g.vertices})
        assert bc_isomorphic(bc_tree(decompose(g)), bc_tree(decompose(shift)))


def test_canonical_forms_order_and_print_like_tuples():
    forms = {bc_tree(decompose(g)).canonical() for g in corpus()}
    forms = sorted(f for f in forms if f)
    for a, b in itertools.product(forms, repeat=2):
        assert _canon_cmp(a, b) == (a > b) - (a < b)
    for f in forms + [()]:
        assert canonical_text(f) == str(f)


def test_bc_isomorphic_on_a_deep_path():
    # the canonical form nests once per bc-tree level, deeper than the
    # interpreter's recursion limit
    g = path_graph(5000)
    t = bc_tree(decompose(g))
    assert bc_isomorphic(t, bc_tree(decompose(g.relabelled(
        {v: 4999 - v for v in g.vertices}))))
    assert not bc_isomorphic(t, bc_tree(decompose(path_graph(4999))))


# -- bridge forest ---------------------------------------------------------

def test_p0_of_bowtie_is_empty():
    ana = compute_P0(BOWTIE)
    assert ana.p0.n == 0
    assert ana.components == ()
    assert ana.all_caterpillars


def test_p0_of_path_is_the_path():
    ana = compute_P0(path_graph(4))
    assert ana.p0 == path_graph(4)
    assert len(ana.components) == 1
    assert ana.components[0].is_caterpillar


def test_p0_triangle_with_pendant_path():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
    ana = compute_P0(g)
    assert ana.p0 == Graph.from_edges([(0, 3), (3, 4)])


def test_p0_spider_component_is_not_caterpillar():
    ana = compute_P0(SPIDER)
    assert not ana.all_caterpillars


def test_bn_three_iff_non_caterpillar_component():
    # the equivalence behind the first stopping rule, on mixed samples
    extras = [SPIDER, path_graph(6), BOWTIE,
              Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4),
                                (0, 5), (5, 6), (0, 7), (7, 8)])]
    for g in extras:
        d = decompose(g)
        ana = compute_P0(g, d)
        has_heavy = any(v >= 3 for v in d.bn.values())
        assert has_heavy == (not ana.all_caterpillars)
