"""Small named graphs: the standard builders and the certified failures.

path_graph, cycle_graph, complete_graph and complete_bipartite build the
usual families on 0..n-1. gen_bn3 and gen_hc_counterexample build a risky
skeleton each, and minimal_families pairs every failure shape with its
smallest instance, for the certification in the tests and scripts.
blocks reads a decomposition's blocks off its records, for the tests that
compare or pick them. Needs no networkx.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from hamsquare.graph import Graph, edge
from hamsquare.counterexamples import counterexample_for


# -- the blocks of a decomposition ---------------------------------------

class BlockRow(NamedTuple):
    """Block index of a decomposition, its vertex set and its edge set."""
    index: int
    vertices: frozenset
    edges: frozenset

    @property
    def is_two_block(self) -> bool:
        return len(self.vertices) > 2


def blocks(d, two_only: bool = False) -> list[BlockRow]:
    """d's blocks by index, or only its 2-blocks, read off d.records: a
    bridge record is its edge, a 2-block's is (a, b, edges, vertices)."""
    return [BlockRow(t, frozenset(r), frozenset((r,))) if len(r) == 2
            else BlockRow(t, r[3], r[2])
            for t, r in enumerate(d.records) if len(r) > 2 or not two_only]


# -- standard builders ----------------------------------------------------

def path_graph(n: int) -> Graph:
    """P_n on vertices 0..n-1."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)], isolated=[0])


def cycle_graph(n: int) -> Graph:
    """C_n on vertices 0..n-1."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph.from_edges([(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    """K_n on vertices 0..n-1."""
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph.from_edges(itertools.combinations(range(n), 2),
                            isolated=range(n))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: part A = 0..a-1, part B = a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError("both parts need at least one vertex")
    return Graph.from_edges((i, a + j) for i in range(a) for j in range(b))


# -- generators ------------------------------------------------------------

def gen_bn3() -> Graph:
    """A cutvertex with three heavy bridges; its square is never hamiltonian.

    The center 0 carries a pendant edge and is joined by a bridge into
    each of three more edges.
    """
    return Graph.from_edges([(0, 1), (0, 2), (2, 3), (0, 4), (4, 5),
                             (0, 6), (6, 7)])


def gen_hc_counterexample(r: int) -> Graph:
    """A cycle of cutvertices: no hamiltonian path joins two of them squared.

    Each cycle vertex j carries the pendant edge j-(r+j), so all r of them
    are cutvertices of the result.
    """
    if r < 3:
        raise ValueError("need a cycle on at least 3 vertices")
    return Graph.from_edges([edge(j, (j + 1) % r) for j in range(r)]
                            + [(j, r + j) for j in range(r)])


# -- named minimal instances ----------------------------------------------

@dataclass(frozen=True)
class CertifiedFamily:
    """A risky skeleton and its minimal certified failing instance."""
    name: str
    skeleton: Graph
    instance: Graph
    kind: str  # "cycle": square not hamiltonian; "connectedness": no xy path


def _bridge_pair(edges, c, a, b):
    edges.append(edge(c, a))
    edges.append(edge(a, b))


def minimal_families() -> tuple[CertifiedFamily, ...]:
    """The seven smallest failing instances, one per failure shape."""
    fams = []

    spider = gen_bn3()
    fams.append(CertifiedFamily("three-heavy-bridges", spider,
                                counterexample_for(spider, 4), "cycle"))

    es = [edge(j, (j + 1) % 5) for j in range(5)]
    es += [edge(j, j + 5) for j in range(5)]
    five = Graph.from_edges(es)
    fams.append(CertifiedFamily("five-cutvertex-block", five,
                                counterexample_for(five, 5), "cycle"))

    es = [edge(0, 1), edge(1, 2), edge(0, 2)]
    _bridge_pair(es, 0, 3, 4)
    _bridge_pair(es, 0, 5, 6)
    es += [edge(1, 7), edge(2, 8)]
    heavy_end = Graph.from_edges(es)
    fams.append(CertifiedFamily("heavy-end-on-triangle", heavy_end,
                                counterexample_for(heavy_end, 5), "cycle"))

    es = [edge(0, 1), edge(1, 2), edge(0, 2)]
    _bridge_pair(es, 0, 3, 4)
    _bridge_pair(es, 0, 5, 6)
    _bridge_pair(es, 1, 7, 8)
    _bridge_pair(es, 1, 9, 10)
    double_heavy = Graph.from_edges(es)
    fams.append(CertifiedFamily("two-heavy-cutvertices", double_heavy,
                                counterexample_for(double_heavy, 5), "cycle"))

    es = [edge(0, 1), edge(1, 2), edge(0, 2),
          edge(0, 3), edge(3, 4), edge(0, 4)]
    _bridge_pair(es, 0, 5, 6)
    _bridge_pair(es, 1, 7, 8)
    _bridge_pair(es, 1, 9, 10)
    es += [edge(3, 11), edge(4, 12)]
    mixed = Graph.from_edges(es)
    fams.append(CertifiedFamily("cond6-deficit-mixed", mixed,
                                counterexample_for(mixed, 6), "cycle"))

    es = [edge(0, 1), edge(1, 2), edge(0, 2),
          edge(0, 3), edge(3, 4), edge(0, 4),
          edge(0, 5), edge(5, 6), edge(6, 7), edge(0, 7)]
    _bridge_pair(es, 1, 8, 9)
    _bridge_pair(es, 1, 10, 11)
    es += [edge(3, 12), edge(4, 13), edge(5, 14), edge(6, 15), edge(7, 16)]
    pure = Graph.from_edges(es)
    fams.append(CertifiedFamily("cond6-deficit-pure", pure,
                                counterexample_for(pure, 6), "cycle"))

    tri = gen_hc_counterexample(3)
    fams.append(CertifiedFamily("cutvertex-triangle", tri,
                                counterexample_for(tri, "hc"),
                                "connectedness"))

    return tuple(fams)
