"""Condition checking and the peeling labelling construction."""

import itertools
import random

import pytest

from hamsquare.graph import Graph
from families import blocks, path_graph, cycle_graph, complete_bipartite
from hamsquare.counterexamples import counterexample_for
from hamsquare.decomposition import bc_canonical, decompose
from hamsquare.oracle import cycle_with
from hamsquare.labelling import (
    HAMILTONIAN,
    NOT_HAMILTONIAN,
    STRUCTURALLY_RISKY,
    HamiltonicityVerdict,
    Labelling,
    _peel,
    check_conditions,
    decide_hamiltonicity,
)

BOWTIE = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])


def _bowtie_blocks():
    return sorted(decompose(BOWTIE).two_idx)


def test_check_conditions_bowtie_hand_values():
    t0, t1 = _bowtie_blocks()
    assert check_conditions(BOWTIE, Labelling({(0, t0): 2, (0, t1): 2})) == []
    assert check_conditions(BOWTIE, Labelling({(0, t0): 1, (0, t1): 1})) == []
    # a zero where the vertex lies inside the block breaks the support rule,
    # and the resulting column sum 1 also breaks the lower bound
    assert check_conditions(BOWTIE, Labelling({(0, t0): 1, (0, t1): 0})) == [2, 6]
    assert check_conditions(BOWTIE, Labelling({(0, t0): 3, (0, t1): 1})) == [1]


def test_check_conditions_block_sum_cap():
    # five pendant edges make every degree-2 vertex of K_{2,5} a cutvertex;
    # giving each of them 1 in the big block sums to 5 > 4
    g = complete_bipartite(2, 5)
    es = list(g.edges) + [(v, v + 10) for v in range(2, 7)]
    g = Graph.from_edges(es)
    d = decompose(g)
    (big,) = d.two_idx
    lab = Labelling({(v, big): 1 for v in range(2, 7)})
    assert check_conditions(g, lab) == [5]
    # lifting one value to 2 tightens the cap to 3 instead
    lab2 = Labelling({(v, big): (2 if v == 2 else 1) for v in range(2, 7)})
    assert 5 in check_conditions(g, lab2)
    # a triangle with a triangle hung at each corner: the values 2, 2, 1 on
    # the middle one sum to 5, over its cap of 3, and break nothing else
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4),
                          (1, 5), (5, 6), (1, 6), (2, 7), (7, 8), (2, 8)])
    d = decompose(g)
    m = {(i, t): 1 for t in d.two_idx for i in d.cuts_of[t]}
    mid = next(b.index for b in blocks(d) if b.vertices == {0, 1, 2})
    m[(0, mid)] = m[(1, mid)] = 2
    assert check_conditions(g, Labelling(m)) == [5]


def test_check_conditions_bridge_floor():
    # cutvertex with one nontrivial bridge must get m >= 1 in its block:
    # triangle plus a pendant path of length two
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
    d = decompose(g)
    (tri,) = d.two_idx
    assert check_conditions(g, Labelling({(0, tri): 1})) == []
    # m = 1 >= bn = 1 holds; forcing the floor violation needs bn = 2
    g2 = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    d2 = decompose(g2)
    (tri2,) = d2.two_idx
    assert 3 in check_conditions(g2, Labelling({(0, tri2): 1}))


def test_check_conditions_grid_is_cutvertices_by_two_blocks():
    t0, t1 = _bowtie_blocks()
    base = {(0, t0): 2, (0, t1): 2}
    # a value at a vertex that is not a cutvertex, or at a bridge, takes
    # part in the range check only
    assert check_conditions(BOWTIE, Labelling({**base, (1, t0): 2})) == []
    assert check_conditions(BOWTIE, Labelling({**base, (1, t0): 7})) == [1]
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
    dg = decompose(g)
    (tri,) = dg.two_idx
    (bridge, _) = [b.index for b in blocks(dg) if not b.is_two_block]
    assert check_conditions(
        g, Labelling({(0, tri): 1, (0, bridge): 2})) == []
    # a chain of three triangles: a value of cutvertex 2 in the far triangle
    # breaks the support rule and still counts toward its column sum
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4),
                          (4, 5), (5, 6), (4, 6)])
    dg = decompose(g)
    a, b, c = (next(blk.index for blk in blocks(dg) if v in blk.vertices)
               for v in (0, 3, 5))
    lab = {(2, a): 1, (2, b): 0, (2, c): 1, (4, b): 1, (4, c): 1}
    assert check_conditions(g, Labelling(lab)) == [2]
    assert check_conditions(g, Labelling({**lab, (2, c): 0})) == [2, 6]


def test_labelling_value():
    lab = Labelling({(0, 1): 2, (3, 0): 1})
    assert lab.value(0, 1) == 2
    assert lab.value(3, 0) == 1
    assert lab.value(9, 9) == 0


# -- trivial and negative outcomes -----------------------------------------

def test_small_and_disconnected_inputs_rejected():
    with pytest.raises(ValueError):
        decide_hamiltonicity(path_graph(2))
    with pytest.raises(ValueError):
        decide_hamiltonicity(Graph.from_edges([(0, 1), (2, 3)]))


def test_caterpillar_is_trivially_hamiltonian():
    v = decide_hamiltonicity(path_graph(4))
    assert v.outcome == HAMILTONIAN
    assert v.trivial_reason == "caterpillar"
    assert v.labelling.m == {}


def test_single_two_block_is_trivially_hamiltonian():
    v = decide_hamiltonicity(cycle_graph(4))
    assert v.outcome == HAMILTONIAN
    assert v.trivial_reason == "two-block"


def test_spider_is_not_hamiltonian():
    spider = Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    v = decide_hamiltonicity(spider)
    assert v.outcome == NOT_HAMILTONIAN
    assert v.reason.startswith("vertex 0 meets 3 nontrivial bridges")
    assert cycle_with(spider.square(), spider) is None


def test_hidden_heavy_hub_is_caught_by_bridge_count():
    # the bridge forest is a star (a caterpillar), but each of its leaves
    # continues into a triangle, so all three bridges at the hub are heavy
    es = [(0, 1), (0, 2), (0, 3)]
    nxt = 4
    for v in (1, 2, 3):
        es += [(v, nxt), (v, nxt + 1), (nxt, nxt + 1)]
        nxt += 2
    g = Graph.from_edges(es)
    v = decide_hamiltonicity(g)
    assert v.outcome == NOT_HAMILTONIAN
    assert "absorb at most two" in v.reason
    assert cycle_with(g.square(), g) is None


# -- positive labellings ---------------------------------------------------

def test_bowtie_labelling_two_end_blocks():
    t0, t1 = _bowtie_blocks()
    v = decide_hamiltonicity(BOWTIE)
    assert v.outcome == HAMILTONIAN
    assert v.labelling.m == {(0, t0): 2, (0, t1): 2}
    assert [entry[0] for entry in v.trace] == ["d", "d"]
    assert check_conditions(BOWTIE, v.labelling) == []


def test_positive_labellings_pass_their_own_conditions():
    samples = [
        BOWTIE,
        Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]),
        Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 5), (3, 5)]),
        Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 4), (4, 5)]),
    ]
    for g in samples:
        v = decide_hamiltonicity(g)
        assert v.outcome == HAMILTONIAN, g
        assert check_conditions(g, v.labelling) == []
        for entry in v.trace:
            assert entry[0] in ("d", "e", "f")


# -- risky structures ------------------------------------------------------

def _risky(g):
    v = decide_hamiltonicity(g)
    assert v.outcome == STRUCTURALLY_RISKY
    return v


def _risky_block_vertices(g, v):
    return sorted(blocks(decompose(g))[v.risky_block].vertices)


def _certify_counterexample(g, v):
    """The graph built from the verdict keeps g's block-cutvertex tree and
    its square has no hamiltonian cycle."""
    out = counterexample_for(g, v.violated_condition)
    assert bc_canonical(decompose(out)) == bc_canonical(decompose(g))
    assert cycle_with(out.square(), out) is None


def test_five_cutvertices_in_one_block_case_a():
    es = list(complete_bipartite(2, 5).edges)
    es += [(v, v + 10) for v in range(2, 7)]
    g = Graph.from_edges(es)
    v = _risky(g)
    assert v.violated_condition == 5
    assert v.risky_case == "a"
    assert _risky_block_vertices(g, v) == list(range(7))
    assert v.risky_cutvertex is None
    _certify_counterexample(g, v)


def test_three_cutvertices_one_heavy_case_b():
    es = [(0, 1), (1, 2), (0, 2),           # triangle, all three cutvertices
          (0, 3), (3, 4), (0, 5), (5, 6),   # two heavy bridges at 0
          (1, 7), (2, 8)]                   # pendants make 1, 2 cutvertices
    g = Graph.from_edges(es)
    v = _risky(g)
    assert v.violated_condition == 5
    assert v.risky_case == "b"
    assert _risky_block_vertices(g, v) == [0, 1, 2]
    assert v.risky_cutvertex is None
    _certify_counterexample(g, v)


def test_two_heavy_cutvertices_case_c():
    es = [(0, 1), (1, 2), (2, 3), (3, 0),
          (0, 4), (4, 5), (0, 6), (6, 7),
          (2, 8), (8, 9), (2, 10), (10, 11)]
    g = Graph.from_edges(es)
    v = _risky(g)
    assert v.violated_condition == 5
    assert v.risky_case == "c"
    assert _risky_block_vertices(g, v) == [0, 1, 2, 3]
    assert v.risky_cutvertex is None
    _certify_counterexample(g, v)


def test_column_sum_deficit_case_f():
    # vertex 0 sits in two triangles whose cutvertices all carry weight 1,
    # plus one heavy bridge: 1 + 1 < 2 * 2 + 1 - 2
    es = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4),
          (1, 5), (2, 6), (3, 7), (4, 8), (0, 9), (9, 10)]
    g = Graph.from_edges(es)
    v = _risky(g)
    assert v.violated_condition == 6
    assert v.risky_case == "f"
    assert v.risky_cutvertex == 0
    # the second triangle is labelled last; both carry 1 at vertex 0, and
    # the risky entry closes the trace
    assert _risky_block_vertices(g, v) == [0, 3, 4]
    assert [dict(entry[2]).get(0) for entry in v.trace[:-1]] == [1, 1]
    _certify_counterexample(g, v)


def test_risky_verdicts_carry_a_trace_and_reason():
    es = list(complete_bipartite(2, 5).edges) + [(v, v + 10) for v in range(2, 7)]
    v = _risky(Graph.from_edges(es))
    assert v.trace
    assert "block-cutvertex tree" in v.reason


# -- the heap peel against the quadratic scan it replaced ------------------

def _reference_peel(g, d):
    """The peel with its first candidate rule: at every step rescan each
    unlabelled 2-block and take the least one with at most one active
    cutvertex. Quadratic in the number of blocks; kept as ground truth."""
    two_idx = [b.index for b in blocks(d, two_only=True)]
    block_by_idx = {b.index: b for b in blocks(d)}
    cuts_of = {t: sorted(v for v in block_by_idx[t].vertices
                         if v in d.cutvertices)
               for t in two_idx}
    blocks_at = {i: [] for i in d.cutvertices}
    for t in two_idx:
        for i in cuts_of[t]:
            blocks_at[i].append(t)
    m, labelled, trace = {}, set(), []

    def active(c, current):
        return any(t not in labelled and t != current for t in blocks_at[c])

    def complete(c):
        return all(t in labelled for t in blocks_at[c])

    def cond6_ok(c):
        total = sum(m.get((c, t), 0) for t in blocks_at[c])
        return total >= 2 * d.k[c] + d.bn[c] - 2

    def risky(cond, case, block, cut=None):
        trace.append((case, block, ()))
        return HamiltonicityVerdict(
            STRUCTURALLY_RISKY, violated_condition=cond, risky_case=case,
            risky_block=block, risky_cutvertex=cut, trace=tuple(trace))

    while len(labelled) < len(two_idx):
        B = min(t for t in two_idx if t not in labelled
                and sum(1 for c in cuts_of[t] if active(c, t)) <= 1)
        cuts = cuts_of[B]
        k = len(cuts)
        if k >= 5:
            return risky(5, "a", B)
        if k >= 3 and any(d.bn[c] == 2 for c in cuts):
            return risky(5, "b", B)
        if k == 2 and d.bn[cuts[0]] == 2 and d.bn[cuts[1]] == 2:
            return risky(5, "c", B)
        if k == 1:
            m[(cuts[0], B)] = 2
            case = "d"
        elif k == 2:
            c1, c2 = cuts
            if d.bn[c2] == 2 or d.bn[c1] == 2:
                two = c2 if d.bn[c2] == 2 else c1
                one = c1 if two == c2 else c2
                m[(one, B)] = 1
                m[(two, B)] = 2
            else:
                j = min(c for c in cuts if not active(c, B))
                other = c2 if j == c1 else c1
                m[(j, B)] = 1
                if cond6_ok(j):
                    m[(other, B)] = 2
                else:
                    m[(j, B)] = 2
                    m[(other, B)] = 1
            case = "e"
        else:
            for c in cuts:
                m[(c, B)] = 1
            case = "f"
        labelled.add(B)
        trace.append((case, B, tuple(sorted((c, m[(c, B)]) for c in cuts))))
        for c in cuts:
            if complete(c) and not cond6_ok(c):
                return risky(6, case, B, c)
    return HamiltonicityVerdict(HAMILTONIAN, labelling=Labelling(dict(m)),
                                trace=tuple(trace))


def _ring(k):
    return [(i, (i + 1) % k) for i in range(k)]


# triangle, C4, K4, K2,3, a bridge, and twice a path of two bridges, which
# makes heavy bridges and with them risky verdicts common
_PEEL_SHAPES = [_ring(3), _ring(4), list(itertools.combinations(range(4), 2)),
                [(a, b) for a in (0, 1) for b in (2, 3, 4)], [(0, 1)],
                [(0, 1), (1, 2)], [(0, 1), (1, 2)]]


def _random_block_tree(rng):
    edges, n = [], 0
    for _ in range(rng.randint(2, 14)):
        shape = rng.choice(_PEEL_SHAPES)
        size = 1 + max(max(e) for e in shape)
        pos, at = rng.randrange(size), rng.randrange(max(n, 1))
        fresh = iter(range(n, n + size))
        label = [at if n and i == pos else next(fresh) for i in range(size)]
        n = max(label) + 1
        edges += [(label[a], label[b]) for a, b in shape]
    return Graph.from_edges(edges)


def test_heap_peel_matches_the_quadratic_scan():
    rng = random.Random(7)
    outcomes = {HAMILTONIAN: 0, STRUCTURALLY_RISKY: 0}
    for _ in range(400):
        g = _random_block_tree(rng)
        d = decompose(g)
        if not d.two_idx:
            continue
        got, want = _peel(g, d), _reference_peel(g, d)
        assert (got.outcome, got.labelling, got.violated_condition,
                got.risky_case, got.risky_block, got.risky_cutvertex,
                got.trace) == \
            (want.outcome, want.labelling, want.violated_condition,
             want.risky_case, want.risky_block, want.risky_cutvertex,
             want.trace), g.sorted_edges()
        outcomes[got.outcome] += 1
    assert min(outcomes.values()) >= 40, outcomes


# C3, C4, C5, K4, K2,3 and a bridge, with C3 and C4 listed twice; no path
# of two bridges, so that more than a few of these large trees peel through
_LARGE_SHAPES = [_ring(3), _ring(4), _ring(5),
                 list(itertools.combinations(range(4), 2)),
                 [(a, b) for a in (0, 1) for b in (2, 3, 4)], [(0, 1)],
                 _ring(3), _ring(4)]


def _large_block_tree(rng):
    """20 to 120 shapes, each glued by a random vertex of its own to a
    random vertex of the graph so far."""
    edges, n = [], 0
    for _ in range(rng.randint(20, 120)):
        shape = rng.choice(_LARGE_SHAPES)
        size = 1 + max(max(e) for e in shape)
        pos, at = rng.randrange(size), rng.randrange(max(n, 1))
        fresh = iter(range(n, n + size))
        label = [at if n and i == pos else next(fresh) for i in range(size)]
        n = max(label) + 1
        edges += [(label[a], label[b]) for a, b in shape]
    return Graph.from_edges(edges)


def _case_e_choices(d, trace):
    """For each case-e entry without a cutvertex of bn 2, the value at j,
    the least cutvertex at which the block was the last unlabelled 2-block:
    1 when condition 6 held there with a 1, else 2."""
    left = {c: d.k[c] for c in d.cutvertices}
    choices = []
    for case, t, values in trace:
        if not values:  # the closing entry of a risky verdict
            continue
        cuts = d.cuts_of[t]
        if case == "e" and all(d.bn[c] <= 1 for c in cuts):
            j = min(c for c in cuts if left[c] == 1)
            choices.append(dict(values)[j])
        for c in cuts:
            left[c] -= 1
    return choices


def test_peel_matches_the_quadratic_scan_on_large_block_trees():
    rng = random.Random(25)
    outcomes = {HAMILTONIAN: 0, STRUCTURALLY_RISKY: 0}
    cases, choices = set(), set()
    for _ in range(200):
        g = _large_block_tree(rng)
        d = decompose(g)
        got, want = _peel(g, d), _reference_peel(g, d)
        assert (got.outcome, got.labelling, got.violated_condition,
                got.risky_case, got.risky_block, got.risky_cutvertex,
                got.trace) == \
            (want.outcome, want.labelling, want.violated_condition,
             want.risky_case, want.risky_block, want.risky_cutvertex,
             want.trace), g.sorted_edges()
        outcomes[got.outcome] += 1
        cases |= {case for case, _, values in got.trace if values}
        choices |= set(_case_e_choices(d, got.trace))
    assert cases == {"d", "e", "f"} and choices == {1, 2}
    assert min(outcomes.values()) >= 20, outcomes
