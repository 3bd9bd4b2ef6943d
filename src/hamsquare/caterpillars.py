"""Caterpillar trees: recognition, longest paths, and square hamiltonian cycles.

A caterpillar is a tree whose non-leaf vertices induce a path (the derived
path). The square of any caterpillar on at least three vertices has a
hamiltonian cycle through both end-edges of a longest path, and that cycle can
be chosen to contain, for every internal vertex x of the longest path, a
dedicated edge whose two endpoints are neighbors of x. These dedicated edges
are what the larger cycle-merging machinery cuts at, so the constructor below
also returns them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, edge


class ConstructionError(RuntimeError):
    """An assembly step could not be carried out; indicates an unmet precondition."""


def is_tree(g: Graph) -> bool:
    return g.is_connected() and g.m == g.n - 1


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
    start = min(ends)
    path = [start]
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
    if tree.n == 1:
        return tree.sorted_vertices()
    if tree.n == 2:
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


class CycleSet:
    """Cycles kept as edges, so that no cut or join depends on their length.

    Cycles may share vertices (a cutvertex lies on the cycle of every block
    at it until it is merged) but never an edge. `nbrs[v]` holds v's
    neighbours over all cycles. Every edge keeps the id of the cycle it was
    laid on, and a union-find over the ids maps that to the cycle holding it
    now, so joining cycles relabels no edge. A cycle becomes a vertex list
    only when it is walked.
    """

    def __init__(self):
        self.nbrs: dict[int, set[int]] = {}
        self.live: set[int] = set()
        self._laid: dict[tuple[int, int], int] = {}
        self._parent: list[int] = []

    def new_cycle(self, parts=()) -> int:
        """A fresh cycle id; the cycles in parts become part of it."""
        c = len(self._parent)
        self._parent.append(c)
        for p in parts:
            self._parent[p] = c
            self.live.discard(p)
        self.live.add(c)
        return c

    def add(self, order) -> int:
        """Lay the closed walk order as a new cycle."""
        c = self.new_cycle()
        for a, b in zip(order, order[1:] + order[:1]):
            self.link(a, b, c)
        return c

    def link(self, a: int, b: int, c: int) -> None:
        e = edge(a, b)
        if e in self._laid:
            raise ConstructionError(f"edge {e} laid twice")
        self._laid[e] = c
        self.nbrs.setdefault(a, set()).add(b)
        self.nbrs.setdefault(b, set()).add(a)

    def cut(self, e: tuple[int, int]) -> None:
        if self._laid.pop(e, None) is None:
            raise ConstructionError(f"edge {e} is on no cycle")
        a, b = e
        self.nbrs[a].discard(b)
        self.nbrs[b].discard(a)

    def cycle_of(self, e: tuple[int, int]) -> int | None:
        """The cycle holding edge e, or None."""
        c = self._laid.get(e)
        if c is None:
            return None
        parent = self._parent
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def around(self, v: int, c: int) -> list[int]:
        """v's neighbours on cycle c, ascending."""
        return sorted(w for w in self.nbrs.get(v, ())
                      if self.cycle_of(edge(v, w)) == c)

    def splice(self, path: list[int]) -> None:
        """Replace the cycle edge between path's two ends by path."""
        e = edge(path[0], path[-1])
        c = self.cycle_of(e)
        if c is None:
            raise ConstructionError(f"edge {e} is on no cycle")
        self.cut(e)
        for a, b in zip(path, path[1:]):
            self.link(a, b, c)

    def walk(self, start: int, before: int) -> list[int]:
        """The cycle through start as a list, read away from its neighbour
        before; every vertex met must have exactly two neighbours."""
        order, prev, cur = [start], before, start
        while True:
            nxt = [w for w in self.nbrs[cur] if w != prev]
            if len(nxt) != 1:
                raise ConstructionError(
                    f"vertex {cur} does not lie on exactly one cycle")
            prev, cur = cur, nxt[0]
            if cur == start:
                return order
            order.append(cur)


def replace_edge_with(order: list[int], a: int, b: int,
                      segment: list[int], cyclic: bool = True) -> list[int]:
    """Replace the edge between consecutive a, b in order by the given segment.

    The segment must start with a and end with b; its interior is spliced in
    with the orientation matching how the edge appears in order.
    """
    if segment[0] != a or segment[-1] != b:
        raise ValueError("segment must run from a to b")
    last = len(order) - 1
    for i in range(len(order) if cyclic else last):
        j = (i + 1) % len(order)
        if (order[i], order[j]) == (a, b):
            mid = segment[1:-1]
        elif (order[i], order[j]) == (b, a):
            mid = segment[1:-1][::-1]
        else:
            continue
        if j == 0:
            return order + mid
        return order[: i + 1] + mid + order[i + 1:]
    raise ValueError(f"edge ({a}, {b}) not found in sequence")


@dataclass(frozen=True)
class CatCycle:
    """Hamiltonian cycle of a caterpillar square with its structural edges.

    order: the cycle as a vertex list.
    spine: the longest path used.
    end_edges: the two end-edges of the spine, both on the cycle.
    pair_edges: one cycle edge per internal spine vertex x, with both endpoints
        neighbors of x in the tree; pairwise distinct and distinct from the
        end-edges.
    reserved: the edge dedicated to each requested vertex (an end-edge for
        end requests, a pair edge for pair requests).
    """
    order: tuple[int, ...]
    spine: tuple[int, ...]
    end_edges: tuple[tuple[int, int], tuple[int, int]]
    pair_edges: dict[int, tuple[int, int]]
    reserved: dict[int, tuple[int, int]]


def caterpillar_cycle(tree: Graph,
                      need_end: frozenset[int] = frozenset(),
                      need_pair: frozenset[int] = frozenset(),
                      spine: list[int] | None = None) -> CatCycle:
    """Hamiltonian cycle of tree**2 through both spine end-edges.

    need_end vertices get a dedicated end-edge containing them; need_pair
    vertices (internal on the spine) get their dedicated neighbor-pair edge.
    A longest path may be supplied as spine; by default one is chosen with
    the reservations in mind.
    """
    if tree.n < 3:
        raise ValueError("caterpillar cycle needs at least three vertices")
    if spine is not None:
        x = list(spine)
        if len(x) < 3:
            raise ValueError("a spine has at least three vertices")
        for a, b in zip(x, x[1:]):
            if b not in tree.neighbors(a):
                raise ValueError("spine is not a path in the tree")
        core = {v for v in tree.vertices if tree.degree(v) >= 2}
        if not core <= set(x):
            raise ValueError("spine must contain every non-leaf vertex")
    else:
        x = longest_spine(tree, frozenset(need_end))
    m = len(x)
    spine_set = set(x)
    leaves = {x[j]: sorted(set(tree.neighbors(x[j])) - spine_set)
              for j in range(1, m - 1)}

    # Start from the fan at the far end of the spine, then replace each
    # spine edge x[j+1] x[j+2] by a detour through x[j] and the leaves of
    # x[j+1]. No step touches the fan's closing edge, so the list reads
    # from first[0] away from first[-1].
    first = [x[m - 3], x[m - 2], x[m - 1]] + list(reversed(leaves[x[m - 2]]))
    ring = CycleSet()
    ring.add(first)
    for j in range(m - 4, -1, -1):
        ring.splice([x[j + 1], x[j]] + leaves[x[j + 1]] + [x[j + 2]])
    cyc = ring.walk(first[0], first[-1])

    pair_edges: dict[int, tuple[int, int]] = {}
    for j in range(1, m - 2):
        lj = leaves[x[j]]
        pair_edges[x[j]] = edge(x[j - 1], lj[0]) if lj else edge(x[j - 1], x[j + 1])
    lj = leaves[x[m - 2]]
    pair_edges[x[m - 2]] = edge(x[m - 1], lj[-1]) if lj else edge(x[m - 1], x[m - 3])

    end_edges = (edge(x[0], x[1]), edge(x[m - 2], x[m - 1]))

    _validate_cat_cycle(tree, cyc, end_edges, pair_edges)

    reserved: dict[int, tuple[int, int]] = {}
    wanted = sorted(need_end)
    if len(wanted) > 2:
        raise ConstructionError("at most two end-edge reservations are possible")
    if wanted:
        assignment = _assign_end_edges(wanted, end_edges)
        if assignment is None:
            raise ConstructionError(
                f"end-edge reservations for {wanted} are not realizable")
        reserved.update(assignment)
    for h in sorted(need_pair):
        if h not in pair_edges:
            raise ConstructionError(f"vertex {h} is not internal on the spine")
        reserved[h] = pair_edges[h]
    return CatCycle(tuple(cyc), tuple(x), end_edges, pair_edges, reserved)


def _assign_end_edges(wanted, end_edges):
    import itertools
    for perm in itertools.permutations(end_edges, len(wanted)):
        if all(h in perm[idx] for idx, h in enumerate(wanted)):
            if len(set(perm)) == len(wanted):
                return dict(zip(wanted, perm))
    return None


def _validate_cat_cycle(tree, cyc, end_edges, pair_edges):
    if set(cyc) != set(tree.vertices) or len(cyc) != tree.n:
        raise ConstructionError("caterpillar cycle does not cover the tree")
    cyc_edges = {edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))}
    for e in cyc_edges:
        if not tree.square_has_edge(*e):
            raise ConstructionError(f"cycle edge {e} not in the square")
    for e in end_edges:
        if e not in cyc_edges:
            raise ConstructionError(f"end-edge {e} missing from cycle")
    seen = set()
    for xj, e in pair_edges.items():
        if e not in cyc_edges:
            raise ConstructionError(f"pair edge {e} for {xj} missing from cycle")
        if e in seen or e in end_edges:
            raise ConstructionError(f"pair edge {e} not distinct")
        seen.add(e)
        u, v = e
        if u not in tree.neighbors(xj) or v not in tree.neighbors(xj):
            raise ConstructionError(f"pair edge {e} endpoints not neighbors of {xj}")
