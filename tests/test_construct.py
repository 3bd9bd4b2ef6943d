"""Witness construction for cycles and paths in the square."""

import hashlib
import itertools
import random
import re
import sys
import weakref

import pytest

from hamsquare.graph import Graph, edge, is_ham_cycle, is_ham_path
from corpus import corpus
from families import (blocks, path_graph, cycle_graph, complete_graph,
                      complete_bipartite)
from hamsquare.decomposition import decompose
from hamsquare.labelling import HAMILTONIAN, decide_hamiltonicity
from hamsquare.hamconn import (
    HAM_CONNECTED, NOT_HAM_CONNECTED, decide_hamiltonian_connectedness,
)
from hamsquare import caterpillars, cli, construct, labelling
from hamsquare.construct import (
    BlockSearch,
    ConstructionError,
    NoLabellingError,
    construct_ham_cycle,
    construct_ham_path,
    _Splices,
    _fill,
    _rescue_through_neighbors,
)
from hamsquare.oracle import Witness, cycle_with, path_with

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


def test_tree_cycle_is_checked_once_and_still_checked(monkeypatch, tmp_path):
    # a caterpillar on 40 vertices: the path 0..19, a leg 20 + i on each i
    g = Graph.from_edges([(i, i + 1) for i in range(19)]
                         + [(i, 20 + i) for i in range(20)])
    spine = caterpillars._spine

    def swapped(nbrs, prefer_ends):
        x, legs = spine(nbrs, prefer_ends)
        legs[2], legs[15] = legs[15], legs[2]  # every vertex still covered
        return x, legs

    f = tmp_path / "caterpillar.txt"
    f.write_text(g.edge_list_text())
    assert is_ham_cycle(g, construct_ham_cycle(g), square=True)
    assert cli.main(["construct-cycle", str(f)]) == 0
    monkeypatch.setattr(caterpillars, "_spine", swapped)
    with pytest.raises(ConstructionError, match="not in the square"):
        construct_ham_cycle(g)
    assert cli.main(["construct-cycle", str(f)]) == 70


def test_single_block_branch():
    # a 2-connected graph's cycle is the oracle's witness on its square
    for g in (cycle_graph(3), complete_graph(4), cycle_graph(6),
              complete_bipartite(2, 3), Graph.from_edges(_wheel(6)[0]),
              Graph.from_edges(_theta((2, 3, 4))[0])):
        cyc = construct_ham_cycle(g)
        assert cyc == list(cycle_with(g.square(), g).order), g.sorted_edges()
        assert is_ham_cycle(g.square(), cyc)


def test_no_labelling_is_checked_again(monkeypatch, tmp_path):
    checked, real = [], labelling.check_conditions
    for name, mod in list(sys.modules.items()):  # each module that binds it
        if name.startswith("hamsquare") and vars(mod).get(
                "check_conditions") is real:
            monkeypatch.setattr(mod, "check_conditions",
                                lambda *args: checked.append(args))
    # neither the constructor nor the CLI checks the decider's labelling
    assert is_ham_cycle(BOWTIE, construct_ham_cycle(BOWTIE), square=True)
    f = tmp_path / "bowtie.txt"
    f.write_text(BOWTIE.edge_list_text())
    report = cli.run(["construct-cycle", str(f)])
    assert is_ham_cycle(BOWTIE, report.result["witness"], square=True)
    assert checked == []


def test_negative_decision_is_rejected():
    spider = Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    with pytest.raises(NoLabellingError, match="NOT_HAMILTONIAN") as e:
        construct_ham_cycle(spider)
    assert isinstance(e.value, ValueError)
    assert e.value.verdict == decide_hamiltonicity(spider)
    # the path constructor refuses alike, with its own decider's verdict
    risky = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    for g, x, y, outcome in ((path_graph(4), 0, 3, NOT_HAM_CONNECTED),
                             (risky, 3, 4, "STRUCTURALLY_RISKY")):
        with pytest.raises(NoLabellingError, match=outcome) as e:
            construct_ham_path(g, x, y)
        assert isinstance(e.value, ValueError)
        assert e.value.verdict == decide_hamiltonian_connectedness(g)
        assert e.value.verdict.outcome == outcome


def test_small_input_rejected():
    with pytest.raises(ValueError):
        construct_ham_cycle(path_graph(2))


# -- helper surgery --------------------------------------------------------

def test_opened_fragment_ends_at_the_neighbors():
    # C4 0-1-2-3 opened at 1: cut at one edge of 1, it reads from 1 away
    # from that edge's far end; with both edges taken, 1 is left out and
    # the rest reads from the smaller of 1's neighbours, whichever side
    for order in ((0, 1, 2, 3), (3, 2, 1, 0), (2, 3, 0, 1)):
        assert construct._cut(order, 1, 2) == [1, 0, 3, 2]
        assert construct._cut(order, 1, 0) == [1, 2, 3, 0]
        assert construct._without(order, 1) == [0, 3, 2]
    assert construct._cut((0, 1), 1, 0) == [1, 0]  # a K2's two-vertex cycle


def test_assigned_edges_must_be_distinct_cycle_edges_at_their_vertex():
    check = construct._check_assigned
    w = Witness((0, 1, 2, 3, 4), {1: [(0, 1), (1, 2)], 3: [(3, 4)]})
    check(w, 7, [(1, 2), (3, 1)])
    for assignment, message in [
            ({1: [(0, 1), (1, 3)]}, "edge (1, 3) of vertex 1 is no edge"),
            ({1: [(0, 1), (2, 3)]}, "edge (2, 3) of vertex 1 is no edge"),
            ({1: [(0, 1), (0, 1)]}, "edge (0, 1) is assigned twice"),
            ({1: [(0, 1), (1, 2)], 3: [(1, 2)]}, "edge (1, 2) of vertex 3"),
            ({1: [(0, 1), (1, 2)], 3: []}, "assigns 0 edges to vertex 3, not 1")]:
        with pytest.raises(ConstructionError, match=re.escape(message)):
            check(Witness(w.order, assignment), 7, [(1, 2), (3, 1)])


def test_root_cycle_expands_from_first_away_from_last():
    # the root 0-1-2-3 with 1-2 spliced, met from 1 or, stored the other way
    # round, from 2; the cycle comes out from first, away from last
    for path in ([1, 5, 6, 2], [2, 6, 5, 1]):
        for first, last, want in [(0, 3, [0, 1, 5, 6, 2, 3]),
                                  (0, 1, [0, 3, 2, 6, 5, 1]),
                                  (6, 5, [6, 2, 3, 0, 1, 5])]:
            sp = _Splices()
            sp.splice(path)
            assert construct._laid_cycle(sp, (0, 1, 2, 3), first, last) == want
    sp = _Splices()
    with pytest.raises(ConstructionError, match="does not close at 0 from 2"):
        construct._laid_cycle(sp, (0, 1, 2, 3), 0, 2)


def test_splices_expand_in_either_orientation():
    # the splice of 2-5 is stored from 5: the path from 0 meets it at 2 and
    # reads it backwards, the path from 5 reads it as stored. The splice of
    # 0-2, made after that of 2-5, is met before it.
    sp = _Splices()
    for path in ([0, 2, 5], [5, 4, 3, 2], [0, 1, 2]):
        sp.splice(path)
    assert sp.expand((0, 5)) == [0, 1, 2, 3, 4, 5]
    sp = _Splices()
    for path in ([0, 2, 5], [5, 4, 3, 2], (2, 1, 0)):
        sp.splice(path)
    assert sp.expand((5, 0)) == [5, 4, 3, 2, 1, 0]


def test_splice_of_two_vertices_changes_nothing():
    # the bowtie's bc-tree path from 0 to 1 is [0, 1], laid over 0-1 itself
    sp = _Splices()
    sp.splice([0, 1])
    sp.splice([0, 2, 1])
    sp.splice([1, 0])
    assert sp.expand((0, 1)) == [0, 2, 1]


def test_splice_of_an_edge_replaced_before_is_refused():
    sp = _Splices()
    sp.splice([0, 1, 2])
    with pytest.raises(ConstructionError, match=r"edge \(0, 2\) spliced twice"):
        sp.splice([2, 3, 0])


def test_splice_the_path_never_reaches_is_named():
    sp = _Splices()
    sp.splice([0, 1, 2])
    sp.splice([5, 4, 3])  # 3-5 is no edge of the path
    with pytest.raises(ConstructionError, match=r"edge \(3, 5\) lies off"):
        sp.expand((0, 2))


# -- the merge's own checks ------------------------------------------------

TRIANGLES = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4),
                              (4, 5), (5, 6), (4, 6)])
C5_TRIANGLE = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                                (0, 5), (5, 6), (0, 6)])


def _forged(monkeypatch, forge):
    """Let every block search of a request hand its witness to forge, with
    the block's vertices and demands, and return what forge returns."""
    class Forged(BlockSearch):
        def __call__(self, vertices, edges, demands=(), ends=None,
                     required=()):
            w = super().__call__(vertices, edges, demands, ends, required)
            return forge(vertices, dict(demands), w)
    monkeypatch.setattr(construct, "BlockSearch", Forged)


@pytest.mark.parametrize("g, block, forged, message", [
    # the labelling of the chain of triangles wants 2 edges at 2 in block
    # {0, 1, 2}, 1 at 2 and 2 at 4 in {2, 3, 4}, 2 at 4 in {4, 5, 6}
    (TRIANGLES, 1, lambda w: {2: [(0, 2), (2, 6)]},
     "assigned edge (2, 6) of vertex 2 is no edge of block 0's cycle at 2"),
    (TRIANGLES, 1, lambda w: {2: [(0, 2), (0, 2)]},
     "edge (0, 2) is assigned twice in block 0"),
    (TRIANGLES, 1, lambda w: {2: [(2, 3)]},  # block {2, 3, 4}'s edge
     "assigned edge (2, 3) of vertex 2 is no edge of block 0's cycle at 2"),
    (TRIANGLES, 3, lambda w: {2: [(2, 3)], 4: [(2, 4), (2, 3)]},
     "assigned edge (2, 3) of vertex 4 is no edge of block 1's cycle at 4"),
    # 0's cycle neighbours 2 and 3 in the C5 are no neighbours of 0 in g
    (C5_TRIANGLE, 1, lambda w: {0: [(0, 2), (0, 3)]},
     "assembled cycle uses non-edge (3, 5)"),
], ids=["vanished", "repeated", "one-cycle", "owed", "non-edge"])
def test_merge_rejects_forged_block_witnesses(monkeypatch, g, block, forged,
                                              message):
    order = {C5_TRIANGLE: (0, 2, 1, 4, 3)}  # a cycle of the C5's square
    def forge(vertices, demands, w):
        if block not in vertices:
            return w
        return Witness(order.get(g, w.order), forged(w))
    _forged(monkeypatch, forge)
    with pytest.raises(ConstructionError, match=re.escape(message)):
        construct_ham_cycle(g)
    monkeypatch.undo()
    assert is_ham_cycle(g, construct_ham_cycle(g), square=True)


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
    assert decide_hamiltonian_connectedness(g).outcome == HAM_CONNECTED
    p = construct_ham_path(g, 0, 2)
    assert is_ham_path(g.square(), p, 0, 2)


def _forced_rescue(d, t, x, y):
    """The x-y path laid by the rescue route between the two cutvertices of
    block t, whether or not a block path with an edge at y exists."""
    sp = _Splices()
    todo, search = [], BlockSearch(d)
    # {} is the piece that holds every block of the graph
    _rescue_through_neighbors(d, sp, todo, {}, t, x, y, search)
    _fill(d, sp, todo, search)
    return sp.expand((x, y))


def test_rescue_through_neighbor_pair_directly():
    # force the fallback route: the hanging part at 2 enters through an
    # edge joining two neighbors of 2, as a cycle through 2 opened there
    g = _ring_with_triangles()
    d = decompose(g)
    (ring,) = (b.index for b in blocks(d) if len(b.vertices) == 4)
    p = _forced_rescue(d, ring, 0, 2)
    assert p == [0, 5, 4, 1, 7, 6, 3, 2]
    assert is_ham_path(g.square(), p, 0, 2)


def test_rescue_skips_the_pair_edge_that_x_enters_by():
    # K4 on 0..3 with a C5 hung at 1 and a C6 at 2. Forced from 1 to 2,
    # the first neighbour pair of 2 with a block path, 0-1, is also 1's
    # designated edge, which the C5 enters by; the pair 0-3 is taken
    # instead. From 2 to 1 likewise 0-2 gives way to 0-3.
    g = Graph.from_edges(list(itertools.combinations(range(4), 2))
                         + [(1, 11), (11, 10), (10, 9), (9, 12), (12, 1)]
                         + [(2, 4), (4, 8), (8, 7), (7, 6), (6, 5), (5, 2)])
    d = decompose(g)
    (k4,) = (b.index for b in blocks(d) if len(b.vertices) == 4)
    for x, y in ((1, 2), (2, 1)):
        p = _forced_rescue(d, k4, x, y)
        assert is_ham_path(g, p, x, y, square=True), (x, y, p)


def _theta(lengths):
    """Poles 0 and 1 joined by paths of the given lengths."""
    es, nxt = [], 2
    for ln in lengths:
        inner = list(range(nxt, nxt + ln - 1))
        nxt += ln - 1
        walk = [0, *inner, 1]
        es += zip(walk, walk[1:])
    return es, nxt


def _hang_ring(es, nxt, at, length):
    """Add to es a ring of the given length hung at vertex at, its other
    vertices labelled from nxt; a ring of 2 is a pendant leaf. Returns the
    ring's walk from at."""
    walk = [at, *range(nxt, nxt + length - 1)]
    es += zip(walk, walk[1:])
    if length > 2:
        es.append((walk[-1], at))
    return walk


def _hung_at_poles(lengths, ring):
    """A theta with a ring of the given length hung at both poles."""
    es, nxt = _theta(lengths)
    for pole in (0, 1):
        nxt = _hang_ring(es, nxt, pole, ring)[-1] + 1
    return Graph.from_edges(es)


def _parts_at_pole_1(lengths):
    """A theta with a triangle hung at pole 0, and two triangles, a leaf
    and a C5 at pole 1, the C5 carrying a triangle at its third vertex."""
    es, nxt = _theta(lengths)
    for at, length in ((0, 3), (1, 3), (1, 3), (1, 2), (1, 5)):
        walk = _hang_ring(es, nxt, at, length)
        nxt = walk[-1] + 1
    _hang_ring(es, nxt, walk[2], 3)
    return Graph.from_edges(es)


@pytest.mark.parametrize("lengths", [(1, 4, 4), (1, 4, 5), (1, 5, 5),
                                     (1, 4, 6), (1, 5, 6), (1, 3, 5)],
                         ids=lambda ls: "theta" + "-".join(map(str, ls)))
def test_rescue_route_reached_unforced(monkeypatch, lengths):
    # from 8 vertices up, a 0-1 path of the theta's square with an edge of
    # the theta at both ends may not exist; the path then goes through the
    # rescue route, once per request, and the part hanging at the far pole
    # y goes in by one merge step at y. theta(1,3,5) never needs it. In the
    # last graph the C5 hanging at 1 has a part of its own, which enters
    # it at its other cutvertex.
    calls = []

    def counted(real, at):
        def call(*args):
            calls.append((real.__name__, args[at]))
            return real(*args)
        return call

    monkeypatch.setattr(construct, "_rescue_through_neighbors",
                        counted(_rescue_through_neighbors, 6))
    monkeypatch.setattr(construct, "_merge_at",
                        counted(construct._merge_at, 3))
    want = 0 if lengths == (1, 3, 5) else 1
    graphs = [_hung_at_poles(lengths, ring) for ring in (2, 3, 4)]
    for g in graphs + [_parts_at_pole_1(lengths)]:
        for x, y in ((0, 1), (1, 0)):
            calls.clear()
            p = construct_ham_path(g, x, y)
            assert is_ham_path(g, p, x, y, square=True), (g.n, x, y)
            assert calls == [("_rescue_through_neighbors", y),
                             ("_merge_at", y)] * want, (g.n, x, y)


def test_paths_on_mixed_small_family():
    samples = [
        BOWTIE,
        _ring_with_triangles(),
        Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]),
        Graph.from_edges([(0, 1), (0, 2), (0, 3)]),
        cycle_graph(7),
    ]
    for g in samples:
        if decide_hamiltonian_connectedness(g).outcome != HAM_CONNECTED:
            continue
        sq = g.square()
        for x, y in itertools.combinations(g.sorted_vertices(), 2):
            assert is_ham_path(sq, construct_ham_path(g, x, y), x, y), (g, x, y)


def _ring(k):
    return [(i, (i + 1) % k) for i in range(k)]


# C3-C6, C4 and C6 with a chord, K4, K2,3 and a bridge
_SHAPES = [_ring(3), _ring(4), _ring(5), _ring(6), _ring(4) + [(0, 2)],
           _ring(6) + [(0, 3)], list(itertools.combinations(range(4), 2)),
           [(a, b) for a in (0, 1) for b in (2, 3, 4)], [(0, 1)]]


def _random_block_tree(rng):
    """2 to 6 random shapes, each glued by a random vertex of its own to a
    random vertex of the graph so far."""
    edges, n = [], 0
    for _ in range(rng.randint(2, 6)):
        shape = rng.choice(_SHAPES)
        size = 1 + max(max(e) for e in shape)
        pos, at = rng.randrange(size), rng.randrange(max(n, 1))
        fresh = iter(range(n, n + size))
        label = [at if n and i == pos else next(fresh) for i in range(size)]
        n = max(label) + 1
        edges += [(label[a], label[b]) for a, b in shape]
    return Graph.from_edges(edges)


def _outcome(build) -> str:
    try:
        return str(build())
    except Exception as e:  # a failure is recorded by its class
        return type(e).__name__


# SHA-256 of every all-pairs path of the random block trees below and of
# every forced rescue: the path, or the class of the exception it raised
# (forced where a block path with edges at both ends exists, the rescue
# fails on 66 of the 160). It pins them exactly: a change that alters any
# of them updates it and says why.
RANDOM_TREE_WITNESSES_SHA256 = (
    "294bafbea7a01009d3a5161f33bc2faf71fccf2a2498440503716d70e8540841")


def test_random_block_trees_paths_and_forced_rescues():
    rng = random.Random(2024)
    digest = hashlib.sha256()
    graphs = rescues = 0
    while graphs < 80:
        g = _random_block_tree(rng)
        d = decompose(g)
        if decide_hamiltonian_connectedness(g).outcome != HAM_CONNECTED:
            continue
        graphs += 1
        digest.update(f"{g.sorted_edges()}\n".encode())
        for x, y in itertools.combinations(g.sorted_vertices(), 2):
            p = _outcome(lambda: construct_ham_path(g, x, y))
            digest.update(f"{x} {y} {p}\n".encode())
        for b in blocks(d, two_only=True):
            cuts = sorted(v for v in b.vertices if v in d.cutvertices)
            if len(cuts) != 2:
                continue
            for x, y in (cuts, cuts[::-1]):
                p = _outcome(lambda: _forced_rescue(d, b.index, x, y))
                digest.update(f"rescue {x} {y} {p}\n".encode())
                rescues += 1
    assert rescues > 100
    assert digest.hexdigest() == RANDOM_TREE_WITNESSES_SHA256


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
        if v.outcome != HAMILTONIAN:
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


# SHA-256 of every corpus witness built below, in corpus order. It pins the
# exact witnesses: a change that alters any of them updates it and says why.
CORPUS_WITNESSES_SHA256 = (
    "1139d872b1497347c262f05286fd3523f70df29a7010637892f3d0f58b089d3c")


def test_square_free_validation_agrees_with_the_square():
    checked = 0
    digest = hashlib.sha256()
    for g in corpus():
        if g.n < 3:
            continue
        sq = g.square()
        if decide_hamiltonicity(g).outcome == HAMILTONIAN:
            cyc = construct_ham_cycle(g)
            digest.update(f"{g.sorted_edges()} {cyc}\n".encode())
            assert is_ham_cycle(g, cyc, square=True)
            for bad in _corruptions(cyc, sq):
                assert not is_ham_cycle(sq, bad)
                assert not is_ham_cycle(g, bad, square=True)
                checked += 1
        if decide_hamiltonian_connectedness(g).outcome != HAM_CONNECTED:
            continue
        for x, y in itertools.combinations(g.sorted_vertices(), 2):
            p = construct_ham_path(g, x, y)
            digest.update(f"{x} {y} {p}\n".encode())
            assert is_ham_path(g, p, x, y, square=True)
            z = next(v for v in g.sorted_vertices() if v not in (x, y))
            cases = [(p, x, z)] + [(bad, x, y) for bad in _corruptions(p, sq)]
            for order, a, b in cases:
                assert not is_ham_path(sq, order, a, b)
                assert not is_ham_path(g, order, a, b, square=True)
                checked += 1
    assert checked > 5000
    assert digest.hexdigest() == CORPUS_WITNESSES_SHA256


def _triangle_chain(k):
    return Graph.from_edges(e for t in range(k) for e in
                            [(2 * t, 2 * t + 1), (2 * t + 1, 2 * t + 2),
                             (2 * t, 2 * t + 2)])


def test_witnesses_at_scale_square_no_more_than_a_block(monkeypatch,
                                                       decompose_calls):
    squared = []
    square = Graph.square

    def counted(self):
        squared.append(self.n)
        return square(self)

    monkeypatch.setattr(Graph, "square", counted)
    decomposed = decompose_calls
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
        # an equal copy, so that decompose holds no decomposition of g
        largest = max(len(b.vertices)
                      for b in blocks(decompose(Graph(g.vertices, g.edges))))
        squared.clear()
        decomposed.clear()
        assert valid(build(g))
        assert all(n <= largest for n in squared), (g.n, max(squared))
        assert decomposed == [g.n]

    # one decomposition per verdict, also on a caterpillar with 1500 leaves
    caterpillar = Graph.from_edges(
        [(i, i + 1) for i in range(1499)] + [(i, 1500 + i) for i in range(1500)])
    for g, outcome in [(chain, HAM_CONNECTED),
                       (caterpillar, NOT_HAM_CONNECTED)]:
        decomposed.clear()
        assert decide_hamiltonian_connectedness(g).outcome == outcome
        assert decomposed == [g.n]


def test_star_path_leaves_the_recursion_limit_alone(monkeypatch):
    # a leaf-to-leaf path of a star hangs one leaf in at a time
    limits = []
    set_limit = sys.setrecursionlimit

    def recorded(n):
        limits.append(n)
        set_limit(n)

    monkeypatch.setattr(sys, "setrecursionlimit", recorded)
    at_entry = sys.getrecursionlimit()
    star = Graph.from_edges((0, i) for i in range(1, 601))
    p = construct_ham_path(star, 1, 600)
    assert is_ham_path(star, p, 1, 600, square=True)
    assert all(n <= at_entry for n in limits), max(limits)


# -- cutvertices with many blocks --------------------------------------------

def _hub(k, size):
    """k rings of the given size sharing vertex 0, ring i on the vertices
    after those of ring i - 1: a windmill for 3, a flower of C4s for 4.
    A ring of 2 is a leaf, so size 2 gives the star K1,k."""
    es = []
    for i in range(k):
        walk = [0, *range(1 + (size - 1) * i, 1 + (size - 1) * (i + 1))]
        es += zip(walk, walk[1:])
        if size > 2:
            es.append((walk[-1], 0))
    return Graph.from_edges(es)


def _picked(k):
    """The blocks whose vertices the pinned paths join: the first two, the
    two in the middle and the last two of k (all of them up to k = 6)."""
    mid = (k - 1) // 2
    return sorted({0, 1, mid, mid + 1, k - 2, k - 1} & set(range(k)))


def _high_degree_requests():
    """(graph, path pairs). Windmills of 2..30 triangles, stars K1,2..K1,40
    and flowers of 2..12 C4s: every pair of the centre and the vertices of
    the picked rings. Triangle chains of 1..40: every pair of vertices of
    the picked triangles with an end in a middle triangle."""
    for size, ks in ((3, range(2, 31)), (2, range(2, 41)), (4, range(2, 13))):
        for k in ks:
            vs = [0] + [1 + (size - 1) * i + j for i in _picked(k)
                        for j in range(size - 1)]
            yield _hub(k, size), list(itertools.combinations(vs, 2))
    for k in range(1, 41):
        mid = {2 * t + j for t in {(k - 1) // 2, k // 2} for j in range(3)}
        vs = sorted({2 * t + j for t in _picked(k) for j in range(3)})
        yield _triangle_chain(k), [(x, y) for x, y in
                                   itertools.combinations(vs, 2)
                                   if x in mid or y in mid]


# SHA-256 of the cycle (or the class of the exception it raised) and of the
# paths above, on graphs whose cutvertices carry up to 40 blocks; the
# constructors' other pins reach at most three cutvertices and six blocks.
HIGH_DEGREE_WITNESSES_SHA256 = (
    "9e86d4dca4f587af70f27ae70d867d2ecf9cf4c25c2e194706218cb7be8b3865")


def test_high_degree_witnesses():
    digest = hashlib.sha256()
    paths = 0
    for g, pairs in _high_degree_requests():
        cyc = _outcome(lambda: construct_ham_cycle(g))
        digest.update(f"{g.sorted_edges()} {cyc}\n".encode())
        for x, y in pairs:
            p = _outcome(lambda: construct_ham_path(g, x, y))
            digest.update(f"{x} {y} {p}\n".encode())
            paths += 1
    assert paths > 5000
    assert digest.hexdigest() == HIGH_DEGREE_WITNESSES_SHA256


def test_constructors_step_once_per_block(monkeypatch):
    # Work counted, not timed: every merge step at a cutvertex, every piece
    # the path constructor lays, every splice, and every block sorted into
    # a run of the blocks at a cutvertex. A cutvertex with k blocks used to
    # cost O(k) for each of them (8,006,000 cycle lookups on the windmill
    # of 2000's cycle).
    calls = {"_merge_at": 0, "_lay": 0, "splice": 0, "sorted into runs": 0}

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    class Run(construct._Run):
        __slots__ = ()

        def __init__(self, pairs, i=0):
            if i == 0:
                calls["sorted into runs"] += len(pairs)
            super().__init__(pairs, i)

    for name in ("_merge_at", "_lay"):
        monkeypatch.setattr(construct, name,
                            counting(name, getattr(construct, name)))
    monkeypatch.setattr(_Splices, "splice",
                        counting("splice", _Splices.splice))
    monkeypatch.setattr(construct, "_Run", Run)
    windmill, chain = _hub(2000, 3), _triangle_chain(2560)
    star = _hub(2999, 2)
    for g, ends in [(windmill, None), (windmill, (1, 4000)),
                    (star, (1, 2999)), (chain, (2560, 2562))]:
        count = decompose(g).block_count()
        for name in calls:
            calls[name] = 0
        if ends is None:
            construct_ham_cycle(g)
        else:
            construct_ham_path(g, *ends)
        assert all(n <= 8 * count for n in calls.values()), (g.n, calls)


def test_cycle_merge_splices_once_or_twice_per_cutvertex(monkeypatch):
    # Work counted, not timed: each cutvertex lays its fresh triangle in
    # one splice over the parent's edge at it, or two if the parent is
    # opened there
    calls = []
    real = _Splices.splice

    def counted(sp, path):
        calls.append(len(path))
        return real(sp, path)
    monkeypatch.setattr(_Splices, "splice", counted)
    chain = _triangle_chain(2560)
    cuts = sum(1 for v in range(chain.n) if chain.degree(v) == 4)
    assert cuts == 2559
    construct_ham_cycle(chain)
    assert cuts <= len(calls) <= 2 * cuts


# -- one search per block shape ----------------------------------------------

def _block_patterns(b, rng):
    """The kinds of search construct issues on block b, in b's labels:
    (demands, ends, required edges). Cycles with no demand and with two
    edges at v and one at w; x-y paths with an edge at both ends, at y
    alone, at one or two vertices chosen among the others, and the rescue's
    edge at x with an edge joining two neighbours of y."""
    vs = b.sorted_vertices()
    out = [((), None, ())]
    for x, y in itertools.permutations(vs, 2):
        out.append((((x, 2), (y, 1)), None, ()))
        out.append((((x, 1), (y, 1)), (x, y), ()))
        out.append((((y, 1),), (x, y), ()))
        rest = [v for v in vs if v not in (x, y)]
        out.append((((rng.choice(rest), 1),), (x, y), ()))
        if len(rest) > 1:
            pair = sorted(rng.sample(rest, 2))
            out.append((tuple((v, 1) for v in pair), (x, y), ()))
        for u, v in itertools.combinations(sorted(b.neighbors(y)), 2):
            out.append((((x, 1),), (x, y), ((u, v),)))
    return out


def _direct(b, demands, ends, required):
    if ends is None:
        return cycle_with(b.square(), b, demands, required)
    return path_with(b.square(), b, *ends, demands, required)


def _as_found(w):
    return None if w is None else (w.order, list(w.assignment.items()))


def _relabellings(rng, g, count=3):
    """g and count copies of it under seeded order-preserving relabellings."""
    vs = g.sorted_vertices()
    out = [g]
    for _ in range(count):
        new = sorted(rng.sample(range(10 * len(vs) + 100), len(vs)))
        out.append(g.relabelled(dict(zip(vs, new))))
    return out


def _search_matches_the_oracle(search, b, seed, sample=None) -> int:
    """Compare BlockSearch with the oracle on b's search patterns, drawn from
    the seed: relabelled copies of one block draw the same ones in ranks."""
    rng = random.Random(seed)
    patterns = _block_patterns(b, rng)
    if sample is not None and len(patterns) > sample:
        patterns = rng.sample(patterns, sample)
    for demands, ends, required in patterns:
        got = search(b.vertices, b.edges, demands, ends, required)
        want = _direct(b, demands, ends, required)
        assert _as_found(got) == _as_found(want), (b, demands, ends, required)
    return len(patterns)


def test_block_search_returns_what_the_oracle_returns():
    # One BlockSearch serves each block and its relabelled copies, so a
    # small block's relabelled copies share its table keys.
    rng = random.Random(7)
    checked = 0
    shapes = {b.edges for g in corpus() if g.n >= 3
              for b in blocks(decompose(g), two_only=True)}
    for i, edges in enumerate(sorted(shapes, key=sorted)):
        search = BlockSearch(decompose(Graph.from_edges(edges)))
        for b in _relabellings(rng, Graph.from_edges(edges)):
            checked += _search_matches_the_oracle(search, b, i)
    trees = 0
    while trees < 100:
        g = _random_block_tree(rng)
        if not decompose(g).two_idx:
            continue
        trees += 1
        search = BlockSearch(decompose(g))
        for h in _relabellings(rng, g):
            for i, blk in enumerate(blocks(decompose(h), two_only=True)):
                b = Graph.from_edges(blk.edges)
                checked += _search_matches_the_oracle(search, b, 100 * trees + i,
                                                    sample=12)
    assert checked > 20000


def test_block_searches_run_one_search_per_call_on_larger_blocks(
        monkeypatch):
    searches, calls = [], []

    def counting(real):
        def counted(*args, **kwargs):
            searches.append(real.__name__)
            return real(*args, **kwargs)
        return counted

    for name in ("cycle_with", "path_with"):
        monkeypatch.setattr(construct, name, counting(getattr(construct, name)))
    call = BlockSearch.__call__

    def called(self, vertices, *args, **kwargs):
        if len(vertices) > 4:
            calls.append(vertices)
        return call(self, vertices, *args, **kwargs)

    monkeypatch.setattr(BlockSearch, "__call__", called)
    squared = _counted_squares(monkeypatch)
    # blocks of at most four vertices take the oracle's answer without a
    # search or a square
    chain = _triangle_chain(640)
    assert is_ham_cycle(chain, construct_ham_cycle(chain), square=True)
    assert is_ham_path(chain, construct_ham_path(chain, 1, 1280), 1, 1280,
                       square=True)
    assert searches == [] and squared == [] and calls == []
    g = _glued_chain(_WHEELS_AND_THETAS)
    for build in (construct_ham_cycle,
                  lambda g: construct_ham_path(g, 1, g.n - 2)):
        searches.clear()
        calls.clear()
        first = build(g)
        n = len(searches)
        # every call on a block of more than four vertices is one search:
        # blocks of one shape are searched one by one
        assert n == len(calls) >= len(_searched_blocks(g)), searches
        # a second request shares no search with the first: it searches
        # them again
        searches.clear()
        assert build(g) == first
        assert len(searches) == n


# -- what lives per process ----------------------------------------------------

_SMALL_SHAPES = [([(0, 1), (1, 2), (0, 2)], 3),
                 ([(0, 1), (1, 2), (2, 3), (0, 3)], 4),
                 (list(itertools.combinations(range(4), 2)), 4)]


def _mixed_chain(k):
    """C3, C4 and K4 blocks in turn, k in all, the last vertex of each the
    first of the next, with a pendant leaf on every fourth joint."""
    blocks = (_SMALL_SHAPES * k)[:k]
    chain = _glued_chain(blocks)
    joints = list(itertools.accumulate(size - 1 for _, size in blocks[:-1]))
    leaves = [(v, chain.n + i) for i, v in enumerate(joints[::4])]
    return Graph.from_edges([*chain.edges, *leaves])


def _small_block_requests(g) -> list:
    """A cycle and three paths of g, each checked, the paths' ends picked
    by rank, so that an order-preserving relabelling of g picks the same."""
    vs = g.sorted_vertices()
    k = len(vs)
    out = [construct_ham_cycle(g)]
    assert is_ham_cycle(g, out[0], square=True)
    for x, y in ((vs[0], vs[-1]), (vs[1], vs[-2]), (vs[k // 2], vs[k // 3])):
        out.append(construct_ham_path(g, x, y))
        assert is_ham_path(g, out[-1], x, y, square=True)
    return out


def test_small_block_table_holds_only_blocks_of_at_most_four_vertices():
    _small_block_requests(_mixed_chain(60))
    _small_block_requests(_glued_chain(_WHEELS_AND_THETAS[:3]))
    assert construct._complete
    for es, demands, ends, required in construct._complete:
        on = {v for e in es for v in e}
        assert on == set(range(len(on))) and len(on) in (3, 4)
        assert {v for v, _ in demands} | set(ends or ()) <= on
        assert {v for e in required for v in e} <= on


def test_small_block_table_serves_relabelled_and_repeated_requests(
        monkeypatch):
    monkeypatch.setattr(construct, "_complete", {})
    fills = []
    real = construct.complete_with

    def spy(*args):
        fills.append(args)
        return real(*args)

    monkeypatch.setattr(construct, "complete_with", spy)
    g = _mixed_chain(60)
    first = _small_block_requests(g)
    keys = set(construct._complete)
    # every fill is one call of complete_with by its module-global name
    assert 0 < len(fills) == len(keys) < len(decompose(g).two_idx)
    fills.clear()
    assert _small_block_requests(g) == first
    for h in _relabellings(random.Random(3), g)[1:]:
        _small_block_requests(h)
    assert fills == [] and set(construct._complete) == keys


def test_small_block_witnesses_are_handed_out_fresh():
    k4 = Graph.from_edges(_SMALL_SHAPES[2][0])
    for demands, ends in [([(0, 2), (3, 1)], None), ([(2, 1)], (0, 3))]:
        w = BlockSearch(decompose(k4))(k4.vertices, k4.edges, demands, ends)
        want = (w.order, {v: list(at) for v, at in w.assignment.items()})
        for at in w.assignment.values():
            at.append((8, 9))
        w.assignment.clear()
        again = BlockSearch(decompose(k4))(k4.vertices, k4.edges, demands,
                                           ends)
        assert (again.order, again.assignment) == want and want[1]


# -- what lives per graph ------------------------------------------------------

def _wheel(rim):
    """Hub 0 joined to every vertex of the rim cycle 1..rim."""
    return ([(0, i) for i in range(1, rim + 1)]
            + [(i, i % rim + 1) for i in range(1, rim + 1)], rim + 1)


def _glued_chain(blocks):
    """Blocks (edges, size) on local labels 0..size-1 glued in a row: the
    last vertex of each block is the first vertex of the next."""
    edges, base = [], 0
    for es, size in blocks:
        edges += [(base + a, base + b) for a, b in es]
        base += size - 1
    return Graph.from_edges(edges)


def _searched_blocks(g):
    """The edge sets of g's 2-blocks on more than four vertices, the
    blocks that are searched in their squares."""
    return {b.edges for b in blocks(decompose(g), two_only=True)
            if len(b.vertices) > 4}


def _counted_squares(monkeypatch) -> list:
    """The graphs Graph.square is called on while the test runs."""
    squared = []
    square = Graph.square

    def counted(self):
        squared.append(self)
        return square(self)

    monkeypatch.setattr(Graph, "square", counted)
    return squared


_WHEELS_AND_THETAS = [_wheel(5), _theta((2, 2, 3)), _wheel(6),
                      _theta((2, 3, 4)), _wheel(5), _theta((3, 3, 3))] * 4


@pytest.mark.parametrize("g, squares", [
    (_triangle_chain(640), 0), (_glued_chain(_WHEELS_AND_THETAS), 24),
], ids=["triangles", "wheels-and-thetas"])
def test_requests_on_one_graph_relabel_and_square_each_block_once(
        monkeypatch, g, squares):
    squared = _counted_squares(monkeypatch)
    assert decide_hamiltonicity(g).outcome == HAMILTONIAN
    assert decide_hamiltonian_connectedness(g).outcome == HAM_CONNECTED
    assert is_ham_cycle(g, construct_ham_cycle(g), square=True)
    store = construct._store
    vs = g.sorted_vertices()
    k = len(vs)
    for x, y in ((vs[0], vs[-1]), (vs[1], vs[-2]), (vs[0], vs[1]),
                 (vs[k // 2], vs[-1]), (vs[k // 3], vs[2 * k // 3])):
        assert is_ham_path(g, construct_ham_path(g, x, y), x, y, square=True)
    # one store served every request: a block is relabelled, or squared,
    # only when its edge set is missing from it
    assert construct._store is store and store.of() is decompose(g)
    assert len(store.blocks) == len(decompose(g).two_idx)
    assert len(squared) == squares
    assert {b.edges for b in squared} == _searched_blocks(g)


def test_block_store_holds_its_decomposition_weakly():
    g = _glued_chain(_WHEELS_AND_THETAS[:3])
    ref = weakref.ref(g)
    construct_ham_cycle(g)
    construct_ham_path(g, 0, g.n - 1)
    store = construct._store
    assert store.of() is decompose(g) and store.blocks
    del g
    assert ref() is not None  # decompose's memo still holds it
    decompose(path_graph(3))
    # the store held neither the graph nor its decomposition
    assert ref() is None and store.of() is None
    assert construct._store is store  # until the next constructor call


def test_block_store_serves_one_decomposition_at_a_time(monkeypatch):
    squared = _counted_squares(monkeypatch)
    g = _glued_chain(_WHEELS_AND_THETAS[:4])
    copy = Graph(g.vertices, g.edges)  # equal, but another graph
    cyc = construct_ham_cycle(g)
    store = construct._store
    search = BlockSearch(decompose(g))  # takes g's store
    assert search._blocks is store.blocks
    assert len(squared) == len(_searched_blocks(g)) == 4
    # the next constructor call on another graph replaces the store, and
    # an equal graph gets a store of its own: it squares every block again
    assert construct_ham_cycle(copy) == cyc
    assert construct._store is not store
    assert construct._store.of() is decompose(copy)
    assert len(squared) == 8
    # a search under way keeps the store it took
    assert search._blocks is store.blocks
