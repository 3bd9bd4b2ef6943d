"""Block-cutvertex decomposition against brute-force references."""

import argparse
import dataclasses
import functools
import itertools
import random
import re
import weakref
from collections import Counter

import networkx as nx
import pytest

from hamsquare import cli, decomposition
from hamsquare.construct import construct_ham_cycle, construct_ham_path
from hamsquare.counterexamples import counterexample_for
from hamsquare.graph import Graph, edge
from hamsquare.hamconn import (HAM_CONNECTED, NOT_HAM_CONNECTED,
                              decide_hamiltonian_connectedness)
from hamsquare.labelling import (HAMILTONIAN, NOT_HAMILTONIAN,
                                 STRUCTURALLY_RISKY, decide_hamiltonicity)
from hamsquare.decomposition import (
    decompose,
    _is_caterpillar,
    bc_canonical,
    canonical_text,
    compute_P0,
    _bc_form,
    _canon_cmp,
    _tree_canonical,
)
from corpus import corpus, to_nx
from families import (blocks, path_graph, cycle_graph, complete_graph,
                      complete_bipartite)
from test_labelling import _random_block_tree as _peel_block_tree
from caterpillar_reference import is_caterpillar

BOWTIE = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
SPIDER = Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def brute_cutvertices(g: Graph) -> set:
    h = to_nx(g)
    base = nx.number_connected_components(h)
    return {v for v in h if nx.number_connected_components(
        nx.restricted_view(h, [v], [])) > base}


def brute_bridges(g: Graph) -> set:
    h = to_nx(g)
    base = nx.number_connected_components(h)
    return {e for e in g.edges if nx.number_connected_components(
        nx.restricted_view(h, [], [e])) > base}


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
    assert {r for r in d.records if len(r) == 2} == brute_bridges(g)


@pytest.mark.parametrize("g", SAMPLES)
def test_blocks_match_networkx(g):
    h = nx.Graph(list(g.edges))
    expect = sorted(sorted(c) for c in nx.biconnected_components(h))
    got = sorted(sorted(b.vertices) for b in blocks(decompose(g)))
    assert got == expect


def test_blocks_partition_edges():
    for g in SAMPLES:
        d = decompose(g)
        union = [e for b in blocks(d) for e in b.edges]
        assert sorted(union) == g.sorted_edges()
        for b1, b2 in itertools.combinations(blocks(d), 2):
            assert len(set(b1.vertices) & set(b2.vertices)) <= 1


def test_bowtie_counters():
    d = decompose(BOWTIE)
    assert set(d.cutvertices) == {0}
    assert d.k[0] == 2
    assert d.bn[0] == 0
    assert len(d.two_idx) == 2


def _cli_trivial_bridges(g: Graph) -> list:
    """The trivial bridges that the CLI's decompose reports for g."""
    result, *_ = cli._HANDLERS["decompose"](g, decompose(g),
                                            argparse.Namespace(dot=None))
    return [tuple(e) for e in result["trivial_bridges"]]


def test_p4_bridges_and_bn():
    d = decompose(path_graph(4))
    assert d.block_count() == len(d.records) == 3
    assert set(d.cutvertices) == {1, 2}
    assert set(d.nontrivial_bridges) == {(1, 2)}
    assert _cli_trivial_bridges(path_graph(4)) == [(0, 1), (2, 3)]
    assert d.bn[1] == 1 and d.bn[2] == 1


def test_spider_center_has_three_heavy_bridges():
    d = decompose(SPIDER)
    assert d.bn[0] == 3


def test_two_block_flag_is_size_based():
    # a record of length 2 is a bridge, and every other one a 2-block
    d = decompose(BOWTIE)
    assert [len(r) for r in d.records] == [4, 4] and d.two_idx == (0, 1)
    d = decompose(path_graph(3))
    assert [len(r) for r in d.records] == [2, 2] and d.two_idx == ()


def test_cvn_sum_identity():
    for g in SAMPLES:
        d = decompose(g)
        per_block = sum(len(cuts) for cuts in d.cuts_of.values())
        per_cut = sum(len(d.blocks_at[v]) for v in d.cutvertices)
        assert per_block == per_cut


def test_endblocks():
    d = decompose(path_graph(4))
    # endblocks, the leaves of the bc-tree, hold at most one cutvertex
    ends = {tuple(sorted(b.vertices)) for b in blocks(d)
            if len(d.cuts_of[b.index]) <= 1}
    assert ends == {(0, 1), (2, 3)}


# -- what decompose builds eagerly and what on first use -------------------

def _caterpillar(spine: int, legs: int) -> Graph:
    """A path of spine vertices, each with legs leaves."""
    es = [(i, i + 1) for i in range(spine - 1)]
    es += [(i, spine + legs * i + j) for i in range(spine) for j in range(legs)]
    return Graph.from_edges(es)


def _spider(legs: int, length: int) -> Graph:
    """legs paths of length vertices, each joined to the centre 0."""
    return Graph.from_edges((0 if j == 0 else 1 + leg * length + j - 1,
                             1 + leg * length + j)
                            for leg in range(legs) for j in range(length))


def test_deciders_on_trees_build_no_block_record(tmp_path):
    assert not hasattr(decomposition, "Block")  # records are the one store
    assert not hasattr(decomposition, "P0Component")  # P0 is plain pairs
    views = {"cuts_of", "blocks_at"}
    lazy = {"records"}
    trees = [path_graph(3000), _caterpillar(1000, 2), complete_bipartite(1, 600),
             _spider(3, 1000)]
    hamiltonian = []
    for g in trees:
        ref = _reference_decompose(g)
        least = min(ref["nontrivial_bridges"], default=None)
        path = tmp_path / "tree.txt"
        path.write_text(g.edge_list_text())
        for command in ("check-ham", "construct-cycle", "check-hc"):
            report = cli.run([command, str(path)])
            request = decomposition._last  # what the command decomposed
            assert request.graph == g and request.graph is not g
            assert not vars(request).keys() & lazy
            # check-hc names the least bridge without building the set
            assert "nontrivial_bridges" not in vars(request)
            if command == "check-hc" and least is not None:
                assert report.result["bridge"] == list(least)
        d = decompose(g)
        verdict = decide_hamiltonicity(g)
        hamiltonian.append(verdict.outcome == HAMILTONIAN)
        if hamiltonian[-1]:
            construct_ham_cycle(g)
        assert "nontrivial_bridges" not in vars(d)
        assert decide_hamiltonian_connectedness(g).bridge == least
        assert "nontrivial_bridges" not in vars(d)
        assert not vars(d).keys() & (views | lazy)
        # a later read builds what the two-pass reference finds
        # a read of cuts_of builds it and the records it reads; a read of
        # blocks_at builds it from cuts_of, at the cutvertices only
        d.cuts_of
        assert {"cuts_of"} | lazy <= vars(d).keys()
        assert "blocks_at" not in vars(d)
        assert d.cuts_of == ref["cuts_of"]
        assert d.blocks_at == ref["blocks_at"]
        assert blocks(d) == ref["blocks"]
        assert _cli_trivial_bridges(g) == sorted(ref["trivial_bridges"])
    assert hamiltonian == [True, True, True, False]


def _block_chain(k: int, every: int = 0, hung=()) -> Graph:
    """C3, C4 and K4 blocks in turn, k in all, the last vertex of each the
    first of the next. Every every-th block also carries, at its second
    vertex, a copy of the edges hung, glued at their vertex 0."""
    shapes = [_ring(3), _ring(4), list(itertools.combinations(range(4), 2))]
    edges, base, at = [], 0, []
    for t in range(k):
        es = shapes[t % 3]
        edges += [(base + a, base + b) for a, b in es]
        if every and t % every == 0:
            at.append(base + 1)
        base += max(max(e) for e in es)
    for v in at:
        label = [v, *range(base + 1, base + 1 + max(max(e) for e in hung))]
        edges += [(label[a], label[b]) for a, b in hung]
        base = label[-1]
    return Graph.from_edges(edges)


# what a decomposition may hold besides its fields: the records, the two
# views of them, the nontrivial bridges and the bridge forest, and no
# other per-block object
_BLOCK_STORE = {"records", "cuts_of", "blocks_at", "nontrivial_bridges",
                "bridge_forest"}


def _held(d) -> set:
    return vars(d).keys() - {f.name for f in dataclasses.fields(d)}


def test_every_derived_field_is_built_on_read():
    # one mechanism for every field that decompose does not pass in
    attrs = vars(decomposition.Decomposition)
    on_read = {name for name, value in attrs.items()
               if isinstance(value, (decomposition._OnRead, property,
                                     functools.cached_property))}
    assert on_read == _BLOCK_STORE
    assert all(isinstance(attrs[name], decomposition._OnRead)
               for name in on_read)


def test_deciders_on_block_chains_build_no_block_record(tmp_path):
    outcomes = []
    # a leaf on every fourth block, a triangle on every block (three
    # cutvertices), and two paths of two bridges (bn 2) on every fifth
    for g in [_block_chain(600), _block_chain(600, 4, [(0, 1)]),
              _block_chain(300, 1, _ring(3)),
              _block_chain(300, 5, [(0, 1), (1, 2), (0, 3), (3, 4)])]:
        path = tmp_path / "chain.txt"
        path.write_text(g.edge_list_text())
        for command in ("check-ham", "check-hc"):
            report = cli.run([command, str(path)])
            request = decomposition._last  # what the command decomposed
            assert request.graph == g and request.graph is not g
            # the peel reads cuts_of; check-hc may stop at a bridge first
            assert command == "check-hc" or "cuts_of" in vars(request)
            assert _held(request) <= _BLOCK_STORE - {"blocks_at"}
            outcomes.append(report.result["outcome"])
        cli.run(["decompose", str(path)])
        assert _held(decomposition._last) <= _BLOCK_STORE
        ham = decide_hamiltonicity(g)
        hc = decide_hamiltonian_connectedness(g)
        assert [ham.outcome, hc.outcome] == outcomes[-2:]
        assert ham.trace  # the peel ran
        d = decompose(g)
        assert _held(d) <= _BLOCK_STORE - {"blocks_at"}
        if ham.outcome == HAMILTONIAN:
            construct_ham_cycle(g)  # the merge reads no blocks_at
            assert _held(d) <= _BLOCK_STORE - {"blocks_at"}
        if hc.outcome == HAM_CONNECTED:
            construct_ham_path(g, 0, max(g.vertices))
            construct_ham_path(g, 3, 5)
            assert "blocks_at" in vars(d) and _held(d) <= _BLOCK_STORE
    assert outcomes == [HAMILTONIAN, HAM_CONNECTED,
                        HAMILTONIAN, STRUCTURALLY_RISKY,
                        HAMILTONIAN, STRUCTURALLY_RISKY,
                        STRUCTURALLY_RISKY, NOT_HAM_CONNECTED]


def test_trees_take_no_lowpoint_dfs(monkeypatch):
    runs = []
    blocks = decomposition._blocks
    monkeypatch.setattr(decomposition, "_blocks",
                        lambda g: runs.append(g) or blocks(g))
    trees = [path_graph(2), path_graph(3000), _caterpillar(1000, 2),
             complete_bipartite(1, 3000), _spider(3, 1000)]
    for g in trees:
        d = decompose(g)
        assert d.across is g.adj  # a tree is its own bridge forest
        (nbrs, caterpillar), = compute_P0(d)
        assert nbrs is g.adj and caterpillar == is_caterpillar(g)
        decide_hamiltonian_connectedness(g)
        if g.n >= 3:
            decide_hamiltonicity(g)
    assert runs == []
    decide_hamiltonicity(BOWTIE)
    assert runs == [BOWTIE]


def test_decompositions_compare_and_hash_without_the_index():
    for g in [*corpus(), path_graph(3000), _spider(3, 1000)]:
        a, b = decompose(g), decompose(Graph(g.vertices, g.edges))
        assert cli._summary(g, a)["blocks"] == len(a.records)
        assert not vars(b).keys() & {"cuts_of", "blocks_at"}
        assert a == b and hash(a) == hash(b)


def test_one_traversal_per_graph_for_a_run_of_requests(monkeypatch,
                                                       decompose_calls):
    walks, indexed = [], []
    walk, index = (decomposition.compute_P0,
                   decomposition.Decomposition._blocks_at)
    monkeypatch.setattr(decomposition, "compute_P0",
                        lambda d: walks.append(d) or walk(d))
    monkeypatch.setattr(decomposition.Decomposition, "_blocks_at",
                        lambda d: indexed.append(d) or index(d))
    decompose(path_graph(2))  # so that decompose holds no corpus graph
    rng = random.Random(7)
    conditions = Counter()
    paths = built = 0
    for g in list(corpus()) + [_peel_block_tree(rng) for _ in range(300)]:
        if g.n < 3:
            continue
        decompose_calls.clear()
        walks.clear()
        indexed.clear()
        d = decompose(g)
        ham = decide_hamiltonicity(g)
        hc = decide_hamiltonian_connectedness(g)
        if ham.outcome == HAMILTONIAN:
            construct_ham_cycle(g)
        if hc.outcome == HAM_CONNECTED:
            for x, y in itertools.combinations(g.sorted_vertices(), 2):
                construct_ham_path(g, x, y)
                paths += 1
        assert decompose(g) is d and decompose_calls == [g.n]
        # the bridge forest walked once, blocks_at built at most once
        assert [w is d for w in walks] == [True]
        assert [i is d for i in indexed] in ([], [True])
        built += len(indexed)
        if ham.outcome == STRUCTURALLY_RISKY:
            condition = ham.violated_condition
        elif hc.outcome == STRUCTURALLY_RISKY:
            condition = "hc"
        elif ham.outcome == NOT_HAMILTONIAN:
            condition = 4
        else:
            continue
        out = counterexample_for(g, condition)
        conditions[condition] += 1
        # an exchange decomposes its output, once, for its bc-tree check
        assert decompose_calls == [g.n] + ([out.n] if condition != 4 else [])
    assert paths > 1000 and min(conditions[c] for c in (4, 5, 6, "hc")) > 5, \
        conditions
    assert built > 100  # the spy sees blocks_at being built


def test_decompose_memo_holds_one_graph_by_identity(decompose_calls):
    es = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)]  # a triangle and a tail
    g, copy = Graph.from_edges(es), Graph.from_edges(es)
    d = decompose(g)
    e = decompose(copy)
    assert e is not d and e == d and e.graph is copy
    assert decompose(copy) is e and decompose_calls == [5, 5]
    # the memo is the only holder of the graph, and lets it go once
    # another graph is decomposed
    g = _caterpillar(30, 2)
    ref = weakref.ref(g)
    construct_ham_cycle(g)
    decompose(g).cuts_of
    del g
    assert ref() is not None
    decompose(path_graph(3))
    assert ref() is None


def test_caterpillar_test_from_leaf_counts():
    for n in range(3, 10):
        for t in nx.nonisomorphic_trees(n):
            g = Graph.from_edges(t.edges())
            nbrs = {v: sorted(g.neighbors(v)) for v in g.vertices}
            assert _is_caterpillar(nbrs) == is_caterpillar(g)


def test_decompose_rejects_disconnected(decompose_calls):
    # every time, keeping the memo; the second graph has m = n - 1, a
    # tree's counts, and takes the tree walk
    d = decompose(BOWTIE)
    for g in (Graph.from_edges([(0, 1), (2, 3)]),
              Graph.from_edges([(0, 1), (1, 2), (0, 2)], isolated=[3])):
        for call in (decompose, decompose, decide_hamiltonian_connectedness):
            decompose_calls.clear()
            with pytest.raises(ValueError,
                               match="^input graph must be connected$"):
                call(g)
            assert decompose_calls == [g.n]
    for _ in range(2):
        with pytest.raises(ValueError, match="at least one vertex"):
            decompose(Graph(frozenset(), frozenset()))
    decompose_calls.clear()
    assert decompose(BOWTIE) is d and decompose_calls == []


# -- bc-tree ---------------------------------------------------------------

def _tags(text):
    """The tags of the nodes of a canonical text, one per node."""
    return re.findall(r"'(cut|2block|bridge)'", text)


def test_bc_tree_bowtie_is_path_of_three():
    # block, cutvertex, block: a path centred at the cutvertex
    assert bc_canonical(decompose(BOWTIE)) == \
        "('cut', (('2block', ()), ('2block', ())))"


def test_bc_tree_single_block_single_node():
    assert bc_canonical(decompose(cycle_graph(4))) == "('2block', ())"


def test_bc_tree_p4_five_node_path():
    # bridge, cut, bridge, cut, bridge: a path centred at the middle bridge
    assert bc_canonical(decompose(path_graph(4))) == \
        "('bridge', (('cut', (('bridge', ()),)), ('cut', (('bridge', ()),))))"


def test_bc_tree_node_count_identity():
    for g in SAMPLES:
        d = decompose(g)
        assert len(_tags(bc_canonical(d))) == \
            len(d.records) + len(d.cutvertices)


def test_bc_isomorphic_examples():
    t = bc_canonical(decompose(BOWTIE))
    p4 = bc_canonical(decompose(path_graph(4)))
    k13 = bc_canonical(decompose(Graph.from_edges([(0, 1), (0, 2), (0, 3)])))
    assert p4 != k13
    two_c4 = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0),
                               (0, 4), (4, 5), (5, 6), (6, 0)])
    assert t == bc_canonical(decompose(two_c4))


def test_bc_isomorphic_distinguishes_block_kinds():
    # same tree shape, but a 2-block versus a bridge in the middle
    tri_bridge = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3)])
    two_bridges = path_graph(3)
    assert bc_canonical(decompose(tri_bridge)) != \
        bc_canonical(decompose(two_bridges))


def test_bc_isomorphic_invariant_under_relabelling():
    for g in SAMPLES:
        shift = g.relabelled({v: v + 100 for v in g.vertices})
        assert bc_canonical(decompose(g)) == bc_canonical(decompose(shift))


def test_canonical_forms_order_and_print_like_tuples():
    forms = {_bc_form(decompose(g)) for g in corpus()}
    forms = sorted(f for f in forms if f)
    for a, b in itertools.product(forms, repeat=2):
        assert _canon_cmp(a, b) == (a > b) - (a < b)
    for f in forms + [()]:
        assert canonical_text(f) == str(f)


def test_bc_isomorphic_on_a_deep_path():
    # the canonical form nests once per bc-tree level, deeper than the
    # interpreter's recursion limit
    g = path_graph(5000)
    t = bc_canonical(decompose(g))
    assert t == bc_canonical(decompose(g.relabelled(
        {v: 4999 - v for v in g.vertices})))
    assert t != bc_canonical(decompose(path_graph(4999)))
    assert len(_tags(t)) == 4999 + 4998


# -- bridge forest ---------------------------------------------------------

def _component(nbrs) -> tuple:
    """The vertices and the edges of the component with adjacency nbrs."""
    return (frozenset(nbrs),
            frozenset(edge(v, w) for v, nv in nbrs.items() for w in nv))


def _forest(comps) -> Graph:
    """The bridge forest itself: its components together."""
    parts = [_component(nbrs) for nbrs, _ in comps]
    return Graph(frozenset().union(*(vs for vs, _ in parts)),
                 frozenset().union(*(es for _, es in parts)))


def test_p0_of_bowtie_is_empty():
    assert compute_P0(decompose(BOWTIE)) == ()


def test_p0_of_path_is_the_path():
    comps = compute_P0(decompose(path_graph(4)))
    assert _forest(comps) == path_graph(4)
    assert len(comps) == 1
    assert comps[0][1]  # a caterpillar


def test_p0_triangle_with_pendant_path():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
    comps = compute_P0(decompose(g))
    assert _forest(comps) == Graph.from_edges([(0, 3), (3, 4)])


def test_p0_spider_component_is_not_caterpillar():
    comps = compute_P0(decompose(SPIDER))
    assert not all(caterpillar for _, caterpillar in comps)


def test_non_caterpillar_component_implies_bn_three():
    # a P0 component that is no caterpillar has a vertex with three
    # non-leaf neighbours, each across a nontrivial bridge. The converse
    # fails: three triangles each hung by a bridge from 0 give bn(0) = 3,
    # yet each bridge is a component of its own
    triangles = Graph.from_edges([(0, 1), (1, 2), (2, 3), (1, 3),
                                  (0, 4), (4, 5), (5, 6), (4, 6),
                                  (0, 7), (7, 8), (8, 9), (7, 9)])
    extras = [SPIDER, path_graph(6), BOWTIE, triangles,
              Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4),
                                (0, 5), (5, 6), (0, 7), (7, 8)])]
    for g in extras:
        if not all(cat for _, cat in compute_P0(decompose(g))):
            assert max(decompose(g).bn.values()) >= 3
    assert decompose(triangles).bn[0] == 3
    assert all(cat for _, cat in compute_P0(decompose(triangles)))
    assert decide_hamiltonicity(triangles).outcome == NOT_HAMILTONIAN
    counterexample_for(triangles, 4)  # accepted on bn alone


# -- the block-cutvertex index against scans -------------------------------

def _ring(k):
    return [(i, (i + 1) % k) for i in range(k)]


# C3-C6, a chorded C4, K4, K2,3 and a bridge, listed twice
_SHAPES = [_ring(3), _ring(4), _ring(5), _ring(6), _ring(4) + [(0, 2)],
           list(itertools.combinations(range(4), 2)),
           [(a, b) for a in (0, 1) for b in (2, 3, 4)], [(0, 1)], [(0, 1)]]


def _random_block_tree(rng):
    """1 to 10 random shapes, each glued by a random vertex of its own to a
    random vertex of the graph so far."""
    edges, n = [], 0
    for _ in range(rng.randint(1, 10)):
        shape = rng.choice(_SHAPES)
        size = 1 + max(max(e) for e in shape)
        pos, at = rng.randrange(size), rng.randrange(max(n, 1))
        fresh = iter(range(n, n + size))
        label = [at if n and i == pos else next(fresh) for i in range(size)]
        n = max(label) + 1
        edges += [(label[a], label[b]) for a, b in shape]
    return Graph.from_edges(edges)


def _reference_P0(g: Graph, d):
    """G minus its 2-blocks' edges, a vertex of a 2-block dropped when all
    its edges lie in 2-blocks, split into components by least vertex."""
    two_edges = {e for b in blocks(d, two_only=True) for e in b.edges}
    drop = {v for b in blocks(d, two_only=True) for v in b.vertices
            if all(edge(v, w) in two_edges for w in g.neighbors(v))}
    p0 = Graph(g.vertices - drop, g.edges - two_edges)
    comps = []
    for comp in sorted(map(frozenset, nx.connected_components(to_nx(p0))),
                       key=min):
        sub = Graph(comp, frozenset(e for e in p0.edges if e[0] in comp))
        comps.append((comp, sub.edges, is_caterpillar(sub)))
    return p0, comps


def _random_tree(rng):
    """A tree on 1 to 60 vertices: a star, a spider or a random
    attachment tree, its labels shuffled."""
    n = rng.randint(1, 60)
    shape = rng.choice(("star", "spider", "random"))
    if shape == "star":
        parent = [0] * n
    elif shape == "spider":
        legs = rng.randint(1, 6)
        parent = [0] + [i - legs if i > legs else 0 for i in range(1, n)]
    else:
        parent = [0] + [rng.randrange(i) for i in range(1, n)]
    label = rng.sample(range(2 * n), n)
    return Graph.from_edges(((label[i], label[parent[i]]) for i in range(1, n)),
                            isolated=label[:1])


def test_index_P0_and_bc_tree_match_scans():
    rng = random.Random(11)
    graphs = (list(corpus()) + [_random_block_tree(rng) for _ in range(300)]
              + [_random_tree(rng) for _ in range(300)]
              + [Graph.from_edges((), isolated=(5,))])
    for g in graphs:
        d = decompose(g)
        rows = blocks(d)
        assert d.blocks_at == {v: [b.index for b in rows if v in b.vertices]
                               for v in d.cutvertices}
        cuts = {b.index: sorted(v for v in d.cutvertices if v in b.vertices)
                for b in rows}
        assert d.cuts_of == cuts
        assert d.k == {v: sum(1 for b in rows if b.is_two_block
                              and v in b.vertices)
                       for v in g.vertices}

        p0, comps = _reference_P0(g, d)
        assert _forest(d.bridge_forest) == p0
        assert [(*_component(nbrs), caterpillar)
                for nbrs, caterpillar in d.bridge_forest] == comps

        tags = {("block", b.index): "2block" if b.is_two_block else "bridge"
                for b in rows}
        tags.update({("cut", v): "cut" for v in d.cutvertices})
        adj = {node: [] for node in tags}
        for b in rows:
            for v in sorted(b.vertices):
                if v in d.cutvertices:
                    adj[("block", b.index)].append(("cut", v))
                    adj[("cut", v)].append(("block", b.index))
        assert _canon_cmp(_tree_canonical(tags, adj), _bc_form(d)) == 0


# -- one DFS against the sorted two-pass algorithm -------------------------

def _biconnected(g: Graph):
    """Edge sets of the biconnected components plus the articulation
    vertices, by a lowpoint DFS from every sorted root over sorted
    neighbours: a reference independent of the adjacency's order."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    comps: list[frozenset[tuple[int, int]]] = []
    arts: set[int] = set()
    counter = 0
    for root in g.sorted_vertices():
        if root in disc:
            continue
        root_children = 0
        stack = [(root, None, iter(sorted(g.neighbors(root))))]
        disc[root] = low[root] = counter
        counter += 1
        estack: list[tuple[int, int]] = []
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if w not in disc:
                    estack.append((v, w))
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, v, iter(sorted(g.neighbors(w)))))
                    advanced = True
                    break
                elif disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if parent is not None:
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    comp = []
                    while estack:
                        e = estack.pop()
                        comp.append(edge(*e))
                        if e == (parent, v):
                            break
                    comps.append(frozenset(comp))
                    if parent != root:
                        arts.add(parent)
                if parent == root:
                    root_children += 1
        if root_children >= 2:
            arts.add(root)
    return comps, arts


def _reference_decompose(g: Graph) -> dict:
    """Every field of decompose(g), by a separate connectivity check, the
    sorted DFS above, blocks keyed by their sorted edge lists and scans
    over the blocks."""
    assert nx.is_connected(to_nx(g))
    raw, arts = _biconnected(g)
    blocks = [(idx, frozenset(x for e in es for x in e), es)
              for idx, es in enumerate(sorted(raw, key=lambda es: sorted(es)))]
    two = [(t, vs) for t, vs, es in blocks if len(vs) > 2]
    bridges = [min(es) for _, vs, es in blocks if len(vs) == 2]
    trivial = {e for e in bridges if min(map(g.degree, e)) == 1}
    nontrivial = set(bridges) - trivial
    cuts_of = {t: sorted(arts & vs) for t, vs, _ in blocks}
    return {
        "blocks": blocks,
        "cutvertices": arts,
        "trivial_bridges": trivial,
        "nontrivial_bridges": nontrivial,
        "bn": {v: sum(v in e for e in nontrivial) for v in g.vertices},
        "k": {v: sum(v in vs for _, vs in two) for v in g.vertices},
        "blocks_at": {v: [t for t, vs, _ in blocks if v in vs]
                      for v in arts},
        "cuts_of": cuts_of,
    }


def test_decompose_matches_the_sorted_two_pass_reference():
    rng = random.Random(23)
    graphs = (list(corpus()) + [_random_block_tree(rng) for _ in range(300)]
              + [_random_tree(rng) for _ in range(300)])
    for g in graphs:
        d = decompose(g)
        ref = _reference_decompose(g)
        assert blocks(d) == ref.pop("blocks")
        # the CLI lists them by least edge, so sorted
        assert _cli_trivial_bridges(g) == sorted(ref.pop("trivial_bridges"))
        for name, want in ref.items():
            assert getattr(d, name) == want, name
