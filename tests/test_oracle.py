"""Exhaustive search oracle, cross-checked against permutation enumeration."""

import hashlib
import inspect
import itertools
import random
import sys

import networkx as nx
import pytest

from hamsquare import oracle
from hamsquare.graph import (
    Graph, edge, cycle_edges, is_ham_cycle, is_ham_path,
)
from hamsquare.oracle import (
    BudgetExceeded,
    complete_with,
    cycle_with,
    path_with,
)
from families import path_graph, cycle_graph, complete_graph, complete_bipartite
from oracle_reference import ReferenceSearch
from properties import is_ham_connected, verify_property, PROPERTY_KINDS

BOWTIE = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])


def _perm_has_cycle(host, required=frozenset()):
    """Ground truth by brute permutation: any hamiltonian cycle using required."""
    vs = host.sorted_vertices()
    if host.n == 1 or host.n == 2:
        return False
    first = vs[0]
    for rest in itertools.permutations(vs[1:]):
        order = [first, *rest]
        if not is_ham_cycle(host, order):
            continue
        es = {edge(order[i], order[(i + 1) % len(order)])
              for i in range(len(order))}
        if required <= es:
            return True
    return False


def _perm_has_path(host, x, y):
    inner = [v for v in host.sorted_vertices() if v not in (x, y)]
    for mid in itertools.permutations(inner):
        if is_ham_path(host, [x, *mid, y]):
            return True
    return False


CROSS_CHECK = [
    path_graph(4), path_graph(4).square(), cycle_graph(5), cycle_graph(6),
    complete_graph(4), BOWTIE, BOWTIE.square(), complete_bipartite(2, 3),
    Graph.from_edges([(0, 1), (0, 2), (0, 3)]),  # star: no cycle, few paths
]


@pytest.mark.parametrize("host", CROSS_CHECK)
def test_cycle_existence_matches_permutations(host):
    got = cycle_with(host, host) is not None
    assert got == _perm_has_cycle(host)


@pytest.mark.parametrize("host", CROSS_CHECK)
def test_path_existence_matches_permutations(host):
    vs = host.sorted_vertices()
    for x, y in itertools.combinations(vs, 2):
        w = path_with(host, host, x, y)
        assert (w is not None) == _perm_has_path(host, x, y), (x, y)
        if w is not None:
            assert is_ham_path(host, list(w.order))
            assert w.order[0] == x and w.order[-1] == y


def test_required_edges_cross_check():
    c4 = cycle_graph(4)
    for req in [{edge(0, 1)}, {edge(0, 1), edge(2, 3)}]:
        got = cycle_with(c4, c4, required_edges=req) is not None
        assert got == _perm_has_cycle(c4, req)
    with pytest.raises(ValueError):
        # chords of the host are rejected up front, not silently unmatched
        cycle_with(c4, c4, required_edges=[(0, 2)])


def test_three_required_edges_at_one_vertex_is_infeasible():
    k4 = complete_graph(4)
    assert cycle_with(k4, k4, required_edges=[(0, 1), (0, 2), (0, 3)]) is None


def test_witness_cycles_are_valid_and_assigned():
    sq = BOWTIE.square()
    w = cycle_with(sq, BOWTIE, [(0, 2), (1, 1)])
    assert w is not None
    assert is_ham_cycle(sq, list(w.order))
    used = set()
    for v, c in [(0, 2), (1, 1)]:
        es = w.assignment[v]
        assert len(es) == c
        for e in es:
            assert e in BOWTIE.edges and v in e and e in cycle_edges(w.order)
            assert e not in used
            used.add(e)


def test_assignment_distinctness_blocks_reuse():
    # host is the square of P3 (a triangle); only two original edges exist,
    # so three distinct demanded incidences cannot all be honored.
    p3 = path_graph(3)
    sq = p3.square()
    assert cycle_with(sq, p3, [(0, 1), (2, 1)]) is not None
    assert cycle_with(sq, p3, [(0, 1), (2, 1), (1, 1)]) is None


def test_two_vertex_path_base_case():
    k2 = path_graph(2)
    w = path_with(k2, k2, 0, 1)
    assert w is not None and list(w.order) == [0, 1]
    assert path_with(k2, k2, 0, 1, [(0, 1)]) is not None
    assert path_with(k2, k2, 0, 1, [(0, 1), (1, 1)]) is None
    # the root and the second vertex are two nodes, as on any host
    with pytest.raises(BudgetExceeded):
        path_with(k2, k2, 0, 1, node_budget=1)
    assert path_with(k2, k2, 0, 1, node_budget=2).order == (0, 1)
    # a required edge the host lacks is an error, as on any host
    bare = Graph(frozenset({0, 1}), frozenset())
    with pytest.raises(ValueError, match="not in host graph"):
        path_with(bare, bare, 0, 1, required_edges=[(0, 1)])
    assert path_with(bare, bare, 0, 1) is None


def test_p4_square_middle_pair_has_no_path():
    sq = path_graph(4).square()
    assert path_with(sq, sq, 1, 2) is None
    assert path_with(sq, sq, 0, 3) is not None


def test_endpoint_argument_validation():
    c4 = cycle_graph(4)
    for x, y in [(0, 0), (0, 7)]:
        with pytest.raises(ValueError, match="two distinct endpoint"):
            path_with(c4, c4, x, y)


def test_budget_raises():
    g = cycle_graph(8)
    with pytest.raises(BudgetExceeded):
        cycle_with(g.square(), g, node_budget=2)


def test_budget_must_be_positive():
    g = cycle_graph(4)
    for budget in (0, -3):
        with pytest.raises(ValueError, match="positive"):
            cycle_with(g, g, node_budget=budget)
        with pytest.raises(ValueError, match="positive"):
            path_with(g, g, 0, 1, node_budget=budget)


def test_disconnected_host_has_no_witness():
    # the root prune sees the second component; the least budget suffices
    two = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    pair = Graph.from_edges([(0, 1), (2, 3)])
    for g in (two, pair, Graph(frozenset({0, 1, 2}), frozenset({(0, 1)}))):
        for budget in (None, 1):
            assert cycle_with(g, g, node_budget=budget) is None
            assert cycle_with(g, g, [(0, 1)], node_budget=budget) is None
            assert path_with(g, g, 0, 1, node_budget=budget) is None
            assert path_with(g, g, 0, 1, [(1, 1)], required_edges=[(0, 1)],
                             node_budget=budget) is None


def _distinct_choice(cands, demands):
    """Whether each demand (v, c) gets c of cands[v], all globally distinct."""
    if not demands:
        return True
    (v, c), rest = demands[0], demands[1:]
    for pick in itertools.combinations(cands[v], c):
        others = {u: [e for e in es if e not in pick] for u, es in cands.items()}
        if _distinct_choice(others, rest):
            return True
    return False


def _valid_order(spec, order):
    host, g, incidences, required, ends = spec
    n = len(order)
    top = n if ends is None else n - 1
    es = [edge(order[i], order[(i + 1) % n]) for i in range(top)]
    if not all(e in host.edges for e in es):
        return False
    if not required <= set(es):
        return False
    cands = {v: [e for e in es if e in g.edges and v in e]
             for v, _ in incidences}
    return _distinct_choice(cands, list(incidences))


def _least_valid_order(spec, start):
    """Brute force: the lexicographically least valid order from start."""
    host, ends = spec[0], spec[4]
    rest = sorted(v for v in host.vertices if v != start)
    if ends is not None:
        rest.remove(ends[1])
    for mid in itertools.permutations(rest):
        order = (start, *mid) if ends is None else (start, *mid, ends[1])
        if _valid_order(spec, order):
            return order
    return None


def _random_connected(rng, n):
    es = {edge(v, rng.randrange(v)) for v in range(1, n)}
    for _ in range(rng.randrange(n)):
        es.add(edge(*rng.sample(range(n), 2)))
    return Graph.from_edges(es)


def _random_spec(rng, max_n):
    """A random search (host, original, incidences, required edges, ends) on
    3 to max_n vertices; ends is None for a cycle, else a path's (x, y)."""
    n = rng.randint(3, max_n)
    g = _random_connected(rng, n)
    host = g.square() if rng.random() < 0.8 else g
    vs = host.sorted_vertices()
    incidences = tuple((v, rng.randint(1, 2))
                       for v in rng.sample(vs, rng.randint(0, 3)))
    required = frozenset(rng.sample(sorted(host.edges), rng.randint(0, 2))
                         if rng.random() < 0.4 else ())
    ends = None if rng.random() < 0.5 else tuple(rng.sample(vs, 2))
    return host, g, incidences, required, ends


def _search(spec, node_budget=None):
    host, g, incidences, required, ends = spec
    if ends is None:
        return cycle_with(host, g, incidences, required, node_budget)
    return path_with(host, g, *ends, incidences, required, node_budget)


def test_witnesses_are_the_least_valid_orders():
    rng = random.Random(11)
    found = absent = 0
    for _ in range(1500):
        spec = _random_spec(rng, 7)
        host, _, incidences, _, ends = spec
        w = _search(spec)
        if w is None:
            # a cycle through any vertex passes through its least as well
            start = min(host.vertices) if ends is None else ends[0]
            assert _least_valid_order(spec, start) is None, spec
            absent += 1
        else:
            assert w.order == _least_valid_order(spec, w.order[0]), spec
            used = [e for v, _ in incidences for e in w.assignment[v]]
            assert len(used) == len(set(used)) == sum(c for _, c in incidences)
            found += 1
    assert min(found, absent) >= 300, (found, absent)


# Each of 2,000 random searches of _random_spec on up to 8 vertices, with a
# node budget of None or 1-50, folded in as its order and assignment, None,
# or the name of the exception it raised. The brute force above stops at 7
# vertices and runs without budgets; this pins every answer of the search.
ORACLE_WITNESSES_SHA256 = (
    "f88fcc2b44c745969195f87bca647c4d4944a831f832e2135a009d43ddb425f9")


def test_oracle_witnesses_pinned():
    rng = random.Random(15)
    h = hashlib.sha256()
    outcomes = {}
    for _ in range(2000):
        spec = _random_spec(rng, 8)
        budget = None if rng.random() < 0.5 else rng.randint(1, 50)
        try:
            w = _search(spec, budget)
            out = None if w is None else (w.order, sorted(w.assignment.items()))
        except BudgetExceeded as e:
            out = type(e).__name__
        kind = out if out is None or isinstance(out, str) else "found"
        outcomes[kind] = outcomes.get(kind, 0) + 1
        h.update(repr(out).encode() + b"\n")
    assert min(outcomes.values()) >= 100 and len(outcomes) == 3, outcomes
    assert h.hexdigest() == ORACLE_WITNESSES_SHA256


def test_demand_bound_cuts_the_grid_search():
    # 4x5 grid, vertex r*5+c; the search without the demand bound needs
    # 217,920 nodes for these demands
    grid = Graph.from_edges(
        [(v, v + 1) for v in range(20) if v % 5 < 4]
        + [(v, v + 5) for v in range(15)])
    w = cycle_with(grid.square(), grid, [(0, 2), (4, 1)], node_budget=1000)
    assert w is not None and is_ham_cycle(grid.square(), list(w.order))


def _grid(r, c):
    return Graph.from_edges(
        [(v, v + 1) for v in range(r * c) if v % c < c - 1]
        + [(v, v + c) for v in range((r - 1) * c)])


@pytest.mark.parametrize("side", [6, 8, 10])
def test_closing_prune_cuts_the_lone_grid_search(side):
    # no demands, so no demand bound; without the check that the start
    # keeps an unlaid neighbour, each of these takes over 300k nodes
    g = _grid(side, side)
    sq = g.square()
    w = cycle_with(sq, g, node_budget=1000)
    assert w is not None and is_ham_cycle(sq, list(w.order))


def test_a_deep_search_runs_under_a_low_recursion_limit(monkeypatch):
    # both searches lay all 3000 vertices of the square of C3000 on one
    # branch; neither may recurse per vertex or raise the limit to do so
    g = cycle_graph(3000)
    sq = g.square()
    calls = []
    set_limit, old = sys.setrecursionlimit, sys.getrecursionlimit()
    set_limit(len(inspect.stack(0)) + 50)
    monkeypatch.setattr(sys, "setrecursionlimit", calls.append)
    try:
        c = cycle_with(sq, g)
        p = path_with(sq, g, 0, 2999)
    finally:
        set_limit(old)
    assert calls == []
    assert c is not None and is_ham_cycle(sq, list(c.order))
    assert p is not None and is_ham_path(sq, list(p.order), 0, 2999)


def test_is_ham_connected_examples():
    assert is_ham_connected(complete_graph(3))
    assert is_ham_connected(BOWTIE.square())
    assert not is_ham_connected(path_graph(4).square())
    with pytest.raises(ValueError):
        is_ham_connected(Graph(frozenset({0}), frozenset()))


# -- the search against its full-recompute reference -----------------------

def test_search_matches_the_full_recompute_reference(monkeypatch):
    nodes = []

    class Differential(oracle._Search):
        """Runs again as ReferenceSearch and requires the same order,
        assignment and node count."""

        def run(self):
            ref = ReferenceSearch(self.g, self.orig, self.demands,
                                  self.required, self.budget, self.ends)
            w, r = super().run(), ref.run()
            got = [None if x is None else (x.order, x.assignment)
                   for x in (w, r)]
            assert (got[0], self.nodes) == (got[1], ref.nodes), \
                (self.g.sorted_edges(), self.demands, self.required, self.ends)
            nodes.append(self.nodes)
            return w

    monkeypatch.setattr(oracle, "_Search", Differential)
    # every search verify_property makes on the 2-blocks of order <= 6
    for h in nx.graph_atlas_g()[1:]:
        if 3 <= h.number_of_nodes() <= 6 and nx.is_biconnected(h):
            b = Graph.from_edges(h.edges())
            for kind in PROPERTY_KINDS:
                if b.n >= {"H4": 4, "H5": 5, "F4": 4}.get(kind, 3):
                    verify_property(kind, b)
    blocks = len(nodes)
    # random searches, on squares and on plain hosts
    rng = random.Random(16)
    for _ in range(3000):
        _search(_random_spec(rng, 8))
    assert blocks > 10_000 and len(nodes) == blocks + 3000, (blocks, len(nodes))


# -- complete hosts without a search -----------------------------------------

def _small_blocks():
    """Every 2-block on the labelled vertices 0..n-1, n = 3 or 4: K3, and
    the three C4s, six K4-es and K4."""
    for n in (3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for k in range(n, len(pairs) + 1):
            for es in itertools.combinations(pairs, k):
                h = nx.Graph(es)
                if h.number_of_nodes() == n and nx.is_biconnected(h):
                    yield Graph.from_edges(es)


def _demand_patterns(n):
    """No demand, or demands (v, c) on one or two vertices, c in {1, 2},
    in every order."""
    yield ()
    for r in (1, 2):
        for vs in itertools.permutations(range(n), r):
            for cs in itertools.product((1, 2), repeat=r):
                yield tuple(zip(vs, cs))


def test_complete_with_is_the_oracle_on_small_blocks():
    def found(w):
        return None if w is None else (w.order, w.assignment)

    blocks = list(_small_blocks())
    assert len(blocks) == 11
    checked = 0
    for b in blocks:
        sq = b.square()
        assert sq == complete_graph(b.n)
        for demands in _demand_patterns(b.n):
            for ends in [None, *itertools.permutations(range(b.n), 2)]:
                for required in [(), *((e,) for e in sq.sorted_edges())]:
                    if ends is None:
                        want = cycle_with(sq, b, demands, required)
                    else:
                        want = path_with(sq, b, *ends, demands, required)
                    got = complete_with(b.n, b.edges, demands, ends, required)
                    assert found(got) == found(want), (
                        b.sorted_edges(), demands, ends, required)
                    checked += 1
    assert checked == 868 + 10 * 57 * 13 * 7


@pytest.mark.parametrize("demands, ends, required", [
    ((), (1, 1), ()),
    ((), (0, 3), ()),
    ((), (-1, 2), ()),
    (((5, 1),), None, ()),
    (((-1, 2),), (0, 1), ()),
    ((), None, ((0, 3),)),
    ((), (0, 2), ((-1, 1),)),
    ((), None, ((1, 1),)),
    (((4, 1),), (2, 2), ((0, 3),)),  # the search's checks come in its order
])
def test_complete_with_rejects_what_the_search_rejects(demands, ends,
                                                        required):
    b = cycle_graph(3)
    sq = complete_graph(3)
    with pytest.raises(ValueError) as want:
        if ends is None:
            cycle_with(sq, b, demands, required)
        else:
            path_with(sq, b, *ends, demands, required)
    with pytest.raises(ValueError) as got:
        complete_with(3, b.edges, demands, ends, required)
    assert str(got.value) == str(want.value)


def test_complete_with_drops_an_empty_demand_off_the_host_as_the_search_does():
    b = cycle_graph(3)
    want = cycle_with(complete_graph(3), b, [(5, 0)])
    assert complete_with(3, b.edges, [(5, 0)]) == want
    assert want.order == (0, 1, 2)


# -- property checkers -----------------------------------------------------

def test_property_kind_list_is_closed():
    assert set(PROPERTY_KINDS) == {
        "twoBlockCycle", "H4", "H5", "F4", "strongF3", "strongF3ends"}
    with pytest.raises(ValueError):
        verify_property("H6", complete_graph(4))


def test_property_rejects_non_two_block():
    with pytest.raises(ValueError):
        verify_property("strongF3", path_graph(3))
    with pytest.raises(ValueError):
        verify_property("H4", complete_graph(3))  # too small for 4-subsets


def test_positive_properties_on_small_blocks():
    assert verify_property("twoBlockCycle", complete_graph(3))
    assert verify_property("strongF3", complete_graph(3))
    assert verify_property("strongF3ends", cycle_graph(4))
    assert verify_property("H4", complete_graph(4))
    assert verify_property("F4", cycle_graph(5))
    assert verify_property("H5", cycle_graph(5))


def test_k23_fails_h5():
    res = verify_property("H5", complete_bipartite(2, 3))
    assert not res
    assert res.counterexample == (0, 1, 2, 3, 4)
    # the same five-vertex block still satisfies the four-vertex property
    assert verify_property("H4", complete_bipartite(2, 3))


def test_complete_with_on_k2_is_the_oracle():
    k2 = path_graph(2)
    assert complete_with(2, {(0, 1)}) is None
    assert cycle_with(k2.square(), k2) is None
