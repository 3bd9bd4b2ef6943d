"""Witness construction for cycles and paths in the square."""

import itertools

import pytest

from hamsquare.graph import (
    Graph, edge, path_graph, cycle_graph, is_ham_cycle, is_ham_path,
)
from hamsquare.corpus import corpus
from hamsquare.decomposition import decompose
from hamsquare.labelling import Labelling, decide_hamiltonicity
from hamsquare.hamconn import decide_hamiltonian_connectedness
from hamsquare.construct import (
    ConstructionError,
    construct_ham_cycle,
    construct_ham_path,
    block_cycle,
    _opened,
    _rescue_through_neighbors,
)
from hamsquare.caterpillars import CycleSet

BOWTIE = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
DUMBBELL = Graph.from_edges([(0, 1), (1, 2), (0, 2),
                             (3, 4), (4, 5), (3, 5), (0, 3)])


def test_bowtie_cycle_exact():
    assert construct_ham_cycle(BOWTIE) == [0, 1, 2, 3, 4]


def test_dumbbell_cycle_exact():
    # both bridge ends are crossed via square edges around the bridge
    assert construct_ham_cycle(DUMBBELL) == [3, 1, 2, 0, 4, 5]


def test_caterpillar_branch():
    for g in (path_graph(5), Graph.from_edges([(0, 1), (0, 2), (0, 3), (0, 4)])):
        cyc = construct_ham_cycle(g)
        assert is_ham_cycle(g.square(), cyc)


def test_single_block_branch():
    cyc = construct_ham_cycle(cycle_graph(6))
    assert is_ham_cycle(cycle_graph(6).square(), cyc)


def test_explicit_minimal_labelling_still_works():
    d = decompose(BOWTIE)
    t0, t1 = sorted(b.index for b in d.two_blocks())
    lab = Labelling({(0, t0): 1, (0, t1): 1})
    cyc = construct_ham_cycle(BOWTIE, lab)
    assert is_ham_cycle(BOWTIE.square(), cyc)


def test_invalid_labelling_is_rejected():
    d = decompose(BOWTIE)
    t0, t1 = sorted(b.index for b in d.two_blocks())
    with pytest.raises(ValueError, match="violates conditions"):
        construct_ham_cycle(BOWTIE, Labelling({(0, t0): 1, (0, t1): 0}))


def test_negative_decision_is_rejected():
    spider = Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    with pytest.raises(ValueError, match="NOT_HAMILTONIAN"):
        construct_ham_cycle(spider)


def test_small_input_rejected():
    with pytest.raises(ValueError):
        construct_ham_cycle(path_graph(2))


# -- helper surgery --------------------------------------------------------

def test_cycle_set_cut_removes_exactly_that_adjacency():
    cs = CycleSet()
    c = cs.add([0, 1, 2, 3])
    cs.cut(edge(1, 2))
    assert cs.cycle_of(edge(1, 2)) is None
    assert all(cs.cycle_of(e) == c for e in [(0, 1), (2, 3), (0, 3)])
    assert cs.nbrs == {0: {1, 3}, 1: {0}, 2: {3}, 3: {0, 2}}
    with pytest.raises(ConstructionError):
        cs.cut(edge(1, 2))


def test_opened_fragment_ends_at_the_neighbors():
    cs = CycleSet()
    c = cs.add([0, 1, 2, 3])
    f = _opened(cs, 1, c, (0, 0))
    assert f.ends == (0, 2)
    assert set(f.cut) == {edge(0, 1), edge(1, 2)}
    with pytest.raises(ConstructionError):
        _opened(cs, 1, c, (0, 0), expect=[edge(0, 1), edge(1, 3)])


def test_cycle_set_joins_cycles_and_walks_them():
    cs = CycleSet()
    a = cs.add([0, 1, 2])
    b = cs.add([0, 3, 4])
    assert cs.around(0, a) == [1, 2] and cs.around(0, b) == [3, 4]
    for e in [(0, 1), (0, 4)]:
        cs.cut(e)
    c = cs.new_cycle([a, b])
    cs.link(1, 4, c)
    assert cs.live == {c}
    assert cs.cycle_of(edge(1, 2)) == cs.cycle_of(edge(3, 4)) == c
    assert cs.walk(0, 2) == [0, 3, 4, 1, 2]
    assert cs.walk(0, 3) == [0, 2, 1, 4, 3]
    cs.splice([4, 9, 1])
    assert cs.walk(0, 2) == [0, 3, 4, 9, 1, 2]
    with pytest.raises(ConstructionError):
        cs.link(0, 3, c)  # already laid
    cs.link(0, 9, c)
    with pytest.raises(ConstructionError):
        cs.walk(0, 2)  # 0 and 9 now have three neighbours


def test_block_cycle_demands():
    tri = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    bc = block_cycle(tri, {0: 2, 1: 1})
    assert sorted(bc.order) == [0, 1, 2]
    assert len(bc.assigned[0]) == 2 and len(bc.assigned[1]) == 1
    with pytest.raises(ValueError):
        block_cycle(tri, {0: 2, 1: 2, 2: 1})  # sum 5 over the cap


# -- paths -----------------------------------------------------------------

def test_edge_graph_path():
    assert construct_ham_path(path_graph(2), 0, 1) == [0, 1]


def test_bowtie_path_across_the_cutvertex():
    p = construct_ham_path(BOWTIE, 1, 4)
    assert p == [1, 2, 0, 3, 4]


def test_bowtie_all_pairs():
    sq = BOWTIE.square()
    for x, y in itertools.combinations(BOWTIE.sorted_vertices(), 2):
        assert is_ham_path(sq, construct_ham_path(BOWTIE, x, y), x, y)


def test_path_endpoint_validation():
    with pytest.raises(ValueError):
        construct_ham_path(BOWTIE, 2, 2)
    with pytest.raises(ValueError):
        construct_ham_path(BOWTIE, 0, 99)
    with pytest.raises(ValueError, match="NOT_HAM_CONNECTED"):
        construct_ham_path(path_graph(4), 0, 3)


def _ring_with_triangles():
    # inner 4-cycle whose two opposite vertices each carry a pendant triangle
    return Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0),
                             (0, 4), (4, 5), (0, 5),
                             (2, 6), (6, 7), (2, 7)])


def test_path_between_the_two_cutvertices_of_an_inner_block():
    g = _ring_with_triangles()
    assert decide_hamiltonian_connectedness(g).is_ham_connected
    p = construct_ham_path(g, 0, 2)
    assert is_ham_path(g.square(), p, 0, 2)


def test_rescue_through_neighbor_pair_directly():
    # force the fallback route: the hanging parts enter through an edge
    # joining two neighbors of the far endpoint
    g = _ring_with_triangles()
    bg = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    p = _rescue_through_neighbors(g, bg, 0, 2, 0, 2)
    assert is_ham_path(g.square(), p, 0, 2)


def test_paths_on_mixed_small_family():
    samples = [
        BOWTIE,
        _ring_with_triangles(),
        Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]),
        Graph.from_edges([(0, 1), (0, 2), (0, 3)]),
        cycle_graph(7),
    ]
    for g in samples:
        if not decide_hamiltonian_connectedness(g).is_ham_connected:
            continue
        sq = g.square()
        for x, y in itertools.combinations(g.sorted_vertices(), 2):
            assert is_ham_path(sq, construct_ham_path(g, x, y), x, y), (g, x, y)


def test_cycles_on_mixed_small_family():
    samples = [
        DUMBBELL,
        _ring_with_triangles(),
        Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]),
        Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 4), (4, 5)]),
        Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 5), (1, 6)]),
    ]
    for g in samples:
        v = decide_hamiltonicity(g)
        if not v.is_hamiltonian:
            continue
        assert is_ham_cycle(g.square(), construct_ham_cycle(g)), g


# -- validation without the square, and scale --------------------------------

def _corruptions(order, sq):
    """order with a vertex dropped, and with two vertices swapped so that
    two consecutive ones are not adjacent in sq (when such a swap exists)."""
    out = [order[:-1]]
    for i, j in itertools.combinations(range(len(order)), 2):
        bad = list(order)
        bad[i], bad[j] = bad[j], bad[i]
        if not all(sq.has_edge(a, b) for a, b in zip(bad, bad[1:])):
            out.append(bad)
            break
    return out


def test_square_free_validation_agrees_with_the_square():
    checked = 0
    for g in corpus():
        if g.n < 3:
            continue
        sq = g.square()
        if decide_hamiltonicity(g).is_hamiltonian:
            cyc = construct_ham_cycle(g)
            assert is_ham_cycle(g, cyc, square=True)
            for bad in _corruptions(cyc, sq):
                assert not is_ham_cycle(sq, bad)
                assert not is_ham_cycle(g, bad, square=True)
                checked += 1
        if not decide_hamiltonian_connectedness(g).is_ham_connected:
            continue
        for x, y in itertools.combinations(g.sorted_vertices(), 2):
            p = construct_ham_path(g, x, y)
            assert is_ham_path(g, p, x, y, square=True)
            z = next(v for v in g.sorted_vertices() if v not in (x, y))
            cases = [(p, x, z)] + [(bad, x, y) for bad in _corruptions(p, sq)]
            for order, a, b in cases:
                assert not is_ham_path(sq, order, a, b)
                assert not is_ham_path(g, order, a, b, square=True)
                checked += 1
    assert checked > 5000


def _triangle_chain(k):
    return Graph.from_edges(e for t in range(k) for e in
                            [(2 * t, 2 * t + 1), (2 * t + 1, 2 * t + 2),
                             (2 * t, 2 * t + 2)])


def test_witnesses_at_scale_square_no_more_than_a_block(monkeypatch):
    squared = []
    square = Graph.square

    def counted(self):
        squared.append(self.n)
        return square(self)

    monkeypatch.setattr(Graph, "square", counted)
    chain = _triangle_chain(640)
    star = Graph.from_edges((0, i) for i in range(1, 3000))
    end = chain.n - 1
    for g, build, valid in [
        (chain, construct_ham_cycle,
         lambda w: is_ham_cycle(chain, w, square=True)),
        (chain, lambda g: construct_ham_path(g, 0, end),
         lambda w: is_ham_path(chain, w, 0, end, square=True)),
        (star, construct_ham_cycle,
         lambda w: is_ham_cycle(star, w, square=True)),
    ]:
        largest = max(len(b.vertices) for b in decompose(g).blocks)
        squared.clear()
        assert valid(build(g))
        assert all(n <= largest for n in squared), (g.n, max(squared))
