"""Deterministic corpus of small graphs for cross-validation runs.

Two sources feed it: every tree on up to eight vertices, and every
connected graph glued together from a fixed palette of blocks (an edge,
the cycles C3 and C4, K4, and K_{2,3}) sharing one vertex per glue step,
capped at eight vertices and three cutvertices. Isomorphic duplicates are
dropped, and every survivor is renumbered 0..n-1, so the corpus is stable
across runs and machines.
"""

from __future__ import annotations

from functools import lru_cache

import networkx as nx

from hamsquare.graph import Graph
from hamsquare.decomposition import decompose
from families import (blocks, path_graph, cycle_graph, complete_graph,
                      complete_bipartite)

MAX_VERTICES = 8
MAX_CUTVERTICES = 3

# one anchor per vertex orbit, so no glue is tried twice
_PALETTE: tuple[tuple[Graph, tuple[int, ...]], ...] = (
    (path_graph(2), (0,)),
    (cycle_graph(3), (0,)),
    (cycle_graph(4), (0,)),
    (complete_graph(4), (0,)),
    (complete_bipartite(2, 3), (0, 2)),
)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return h


class _IsoPool:
    """Keeps one representative per isomorphism class."""

    def __init__(self):
        self._buckets: dict = {}

    def add(self, g: Graph) -> bool:
        h = to_nx(g)
        key = (g.n, g.m, nx.weisfeiler_lehman_graph_hash(h))
        bucket = self._buckets.setdefault(key, [])
        for seen in bucket:
            if nx.is_isomorphic(h, seen):
                return False
        bucket.append(h)
        return True


def _renumber(g: Graph) -> Graph:
    return g.relabelled({v: j for j, v in enumerate(g.sorted_vertices())})


def _glue(h: Graph, at: int, block: Graph, anchor: int) -> Graph:
    fresh = max(h.vertices) + 1
    mapping = {anchor: at}
    for v in sorted(block.vertices):
        if v != anchor:
            mapping[v] = fresh
            fresh += 1
    extra = block.relabelled(mapping)
    return Graph.from_edges(list(h.edges) + list(extra.edges))


@lru_cache(maxsize=None)
def all_trees(max_n: int = MAX_VERTICES) -> tuple[Graph, ...]:
    """Every tree with 1..max_n vertices, one per isomorphism class."""
    out = [Graph.from_edges((), isolated=(0,))]
    if max_n >= 2:
        out.append(path_graph(2))
    for n in range(3, max_n + 1):
        for t in nx.nonisomorphic_trees(n):
            out.append(Graph.from_edges(t.edges()))
    return tuple(out)


@lru_cache(maxsize=None)
def glued_blocks(max_vertices: int = MAX_VERTICES,
                 max_cutvertices: int = MAX_CUTVERTICES) -> tuple[Graph, ...]:
    """Connected graphs built by gluing palette blocks at shared vertices.

    Growing a graph block by block never removes a cutvertex, so pruning
    states that already exceed the cutvertex cap loses nothing.
    """
    pool = _IsoPool()
    out: list[Graph] = []
    queue: list[Graph] = []
    for block, _anchors in _PALETTE:
        if block.n <= max_vertices and pool.add(block):
            out.append(block)
            queue.append(block)
    while queue:
        base = queue.pop(0)
        for at in base.sorted_vertices():
            for block, anchors in _PALETTE:
                if base.n + block.n - 1 > max_vertices:
                    continue
                for anchor in anchors:
                    cand = _glue(base, at, block, anchor)
                    if len(decompose(cand).cutvertices) > max_cutvertices:
                        continue
                    if pool.add(cand):
                        out.append(cand)
                        queue.append(cand)
    return tuple(out)


@lru_cache(maxsize=None)
def corpus() -> tuple[Graph, ...]:
    """Trees and glued-block graphs together, deduplicated and renumbered."""
    pool = _IsoPool()
    out = []
    for g in all_trees() + glued_blocks():
        gg = _renumber(g)
        if pool.add(gg):
            out.append(gg)
    out.sort(key=lambda g: (g.n, g.m, g.edge_list_text()))
    return tuple(out)


def is_block_chain(g: Graph) -> bool:
    """Blocks arranged in a path: each block at most two cutvertices, each
    cutvertex in exactly two blocks."""
    d = decompose(g)
    return (all(len(cs) <= 2 for cs in d.cuts_of.values())
            and all(len(ts) == 2 for ts in d.blocks_at.values()))


def inner_blocks(g: Graph):
    """Blocks of a chain containing two cutvertices (the non-end blocks)."""
    d = decompose(g)
    return [b for b in blocks(d) if len(d.cuts_of[b.index]) == 2]


@lru_cache(maxsize=None)
def block_chains() -> tuple[Graph, ...]:
    """The corpus members whose blocks form a chain."""
    return tuple(g for g in corpus() if g.n >= 2 and is_block_chain(g))
