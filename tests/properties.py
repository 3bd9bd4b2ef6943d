"""The per-block square properties of a 2-block, checked with the oracle.

These are the evidence behind the labelling conditions: the 2-block
properties of PROPERTY_KINDS, and all-pairs hamiltonian connectedness.
They search every vertex subset or pair, so they run on small blocks in
the tests and scripts only. Only two_connected, which lists the atlas
blocks they run on, needs networkx.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from hamsquare.graph import Graph
from hamsquare.decomposition import decompose
from hamsquare.oracle import cycle_with, path_with
from families import blocks


def is_ham_connected(g: Graph, node_budget: int | None = None) -> bool:
    """Every vertex pair of g joined by a hamiltonian path (g used as given)."""
    if g.n < 2:
        raise ValueError("hamiltonian connectedness needs at least two vertices")
    vs = g.sorted_vertices()
    for i, x in enumerate(vs):
        for y in vs[i + 1:]:
            if path_with(g, g, x, y, node_budget=node_budget) is None:
                return False
    return True


def two_connected(nmin: int, nmax: int):
    """The 2-connected graphs of the networkx atlas, every graph on up to 7
    vertices, with nmin to nmax vertices and at least 3."""
    import networkx as nx  # here, so that the rest of the module needs none

    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n < max(nmin, 3) or n > nmax:
            continue
        if not nx.is_connected(h) or nx.number_of_selfloops(h):
            continue
        if nx.is_biconnected(h):
            yield Graph.from_edges(h.edges())


# -- property checkers over a 2-block -------------------------------------

PROPERTY_KINDS = ("twoBlockCycle", "H4", "H5", "F4", "strongF3", "strongF3ends")


@dataclass(frozen=True)
class PropertyResult:
    ok: bool
    counterexample: tuple | None = None

    def __bool__(self):
        return self.ok


def _check_two_block(b: Graph, min_order: int):
    if b.n < min_order:
        raise ValueError(f"property needs a 2-block on at least {min_order} vertices")
    bs = blocks(decompose(b))
    if len(bs) != 1 or not bs[0].is_two_block:
        raise ValueError("input is not a 2-block")


def verify_property(kind: str, b: Graph,
                    node_budget: int | None = None) -> PropertyResult:
    """Check one of the square-hamiltonicity properties on a 2-block.

    twoBlockCycle: for every ordered pair (v, w) a hamiltonian cycle of the
        square with both cycle edges at v original and one at w original,
        all distinct.
    H4 / H5: for every 4- / 5-subset a hamiltonian cycle of the square with
        a distinct original edge at each chosen vertex.
    F4: for every 4-subset and every choice of two path ends among them, a
        hamiltonian path with distinct original edges at the other two.
    strongF3: for every 3-subset, every ends choice and each end, a
        hamiltonian path with distinct original edges at the third vertex and
        at that end.
    strongF3ends: for every ordered pair (x, y), a hamiltonian x-y path with
        an original edge at x and either an original edge at y (distinct) or
        an edge of the path joining two neighbors of y.
    """
    if kind not in PROPERTY_KINDS:
        raise ValueError(f"unknown property kind {kind!r}")
    _check_two_block(b, 4 if kind in ("H4", "H5", "F4") else 3)
    sq = b.square()
    vs = b.sorted_vertices()

    if kind == "twoBlockCycle":
        for v in vs:
            for w in vs:
                if v == w:
                    continue
                if cycle_with(sq, b, [(v, 2), (w, 1)], node_budget=node_budget) is None:
                    return PropertyResult(False, (v, w))
        return PropertyResult(True)

    if kind in ("H4", "H5"):
        r = 4 if kind == "H4" else 5
        if b.n < r:
            raise ValueError(f"{kind} needs at least {r} vertices")
        for sub in itertools.combinations(vs, r):
            if cycle_with(sq, b, [(v, 1) for v in sub],
                          node_budget=node_budget) is None:
                return PropertyResult(False, sub)
        return PropertyResult(True)

    if kind == "F4":
        for sub in itertools.combinations(vs, 4):
            for x1, x2 in itertools.combinations(sub, 2):
                rest = [v for v in sub if v not in (x1, x2)]
                if path_with(sq, b, x1, x2, [(v, 1) for v in rest],
                             node_budget=node_budget) is None:
                    return PropertyResult(False, (x1, x2, *rest))
        return PropertyResult(True)

    if kind == "strongF3":
        for sub in itertools.combinations(vs, 3):
            for x3 in sub:
                x1, x2 = (v for v in sub if v != x3)
                for xi in (x1, x2):
                    if path_with(sq, b, x1, x2, [(x3, 1), (xi, 1)],
                                 node_budget=node_budget) is None:
                        return PropertyResult(False, (x1, x2, x3, xi))
        return PropertyResult(True)

    # strongF3ends
    for x in vs:
        for y in vs:
            if x == y:
                continue
            if path_with(sq, b, x, y, [(x, 1), (y, 1)],
                         node_budget=node_budget) is not None:
                continue
            ok = False
            for u, v in itertools.combinations(sorted(b.neighbors(y)), 2):
                if path_with(sq, b, x, y, [(x, 1)], required_edges=[(u, v)],
                             node_budget=node_budget) is not None:
                    ok = True
                    break
            if not ok:
                return PropertyResult(False, (x, y))
    return PropertyResult(True)
