"""Caterpillar recognition on a Graph, kept as an independent reference.

hamsquare walks a caterpillar's spine from a neighbour mapping
(caterpillars._spine); these scans find the same objects another way, by
sorted neighbour scans over a Graph, so the tests can check one against
the other.
"""

import networkx as nx

from hamsquare.caterpillars import ConstructionError
from hamsquare.graph import Graph, edge
from corpus import to_nx


def adjacency(g: Graph) -> dict:
    """g as the vertex -> neighbours mapping caterpillar_cycle reads."""
    return {v: g.neighbors(v) for v in g.vertices}


def from_adjacency(nbrs) -> Graph:
    """The graph with this adjacency, each vertex to its neighbours."""
    return Graph(frozenset(nbrs), frozenset(
        edge(v, w) for v, nv in nbrs.items() for w in nv))


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and nx.is_connected(to_nx(g))


def derived_path(tree: Graph) -> list[int] | None:
    """The non-leaf vertices ordered along their path, or None if not a caterpillar.

    Returns [] for trees with at most two vertices (nothing survives leaf
    removal). The orientation starts at the smaller end vertex.
    """
    if not is_tree(tree):
        raise ValueError("derived_path expects a tree")
    core = [v for v in tree.sorted_vertices() if tree.degree(v) >= 2]
    if not core:
        return []
    core_set = set(core)
    deg_in_core = {v: sum(1 for w in tree.neighbors(v) if w in core_set)
                   for v in core}
    if any(d > 2 for d in deg_in_core.values()):
        return None
    ends = [v for v in core if deg_in_core[v] <= 1]
    if len(core) == 1:
        return core
    if len(ends) != 2:
        return None
    path = [min(ends)]
    prev = None
    while True:
        nxt = [w for w in sorted(tree.neighbors(path[-1]))
               if w in core_set and w != prev]
        if not nxt:
            break
        prev = path[-1]
        path.append(nxt[0])
    if len(path) != len(core):
        return None
    return path


def is_caterpillar(tree: Graph) -> bool:
    return derived_path(tree) is not None


def longest_spine(tree: Graph, prefer_ends: frozenset[int] = frozenset()) -> list[int]:
    """A longest path of a caterpillar, as a vertex list.

    Any longest path consists of the full derived path plus one leaf at each
    end; the only freedom is which leaf. Vertices in prefer_ends that are
    leaves are placed at the chosen ends when possible.
    """
    core = derived_path(tree)
    if core is None:
        raise ValueError("longest_spine expects a caterpillar")
    if tree.n <= 2:
        return tree.sorted_vertices()
    leaf_pref = sorted(p for p in prefer_ends if tree.degree(p) == 1)
    d0, dk = core[0], core[-1]
    if d0 == dk:
        cands = sorted(tree.neighbors(d0))
        pref = [p for p in leaf_pref if p in cands]
        if len(pref) > 2:
            raise ConstructionError("more than two end reservations on a star")
        first = pref[0] if pref else cands[0]
        rest = [c for c in cands if c != first]
        second = pref[1] if len(pref) >= 2 else rest[0]
        return [first] + core + [second]
    cand0 = sorted(w for w in tree.neighbors(d0) if tree.degree(w) == 1)
    candk = sorted(w for w in tree.neighbors(dk) if tree.degree(w) == 1)
    p0 = [p for p in leaf_pref if p in cand0]
    pk = [p for p in leaf_pref if p in candk]
    stray = [p for p in leaf_pref if p not in cand0 and p not in candk]
    if stray or len(p0) > 1 or len(pk) > 1:
        raise ConstructionError(
            f"end reservations {sorted(prefer_ends)} cannot all sit at spine ends")
    x0 = p0[0] if p0 else cand0[0]
    xm = pk[0] if pk else candk[0]
    return [x0] + core + [xm]
