"""Caterpillar trees: the square's hamiltonian cycle.

A caterpillar is a tree whose non-leaf vertices, its core, induce a path.
The square of a tree on at least three vertices is hamiltonian iff the tree
is a caterpillar (Harary and Schwenk 1971). A longest path, the spine
x[0..m-1], is the core plus one leaf at each end. With L(v) the sorted
non-spine neighbours of an inner spine vertex v, this closed walk is a
hamiltonian cycle of the square:

1. down from x[m-3] in steps of two to x[1] or x[0], with rev L(x[i-1])
   between x[i] and x[i-2];
2. up from x[m mod 2] in steps of two to x[m-2], with L(x[i+1]) between
   x[i] and x[i+2];
3. x[m-1], then rev L(x[m-2]), which closes at x[m-3].

It runs through both end-edges of the spine, and it holds, for every inner
spine vertex x, a dedicated edge whose two endpoints are neighbours of x.
The constructor returns, with the cycle, the end-edge or neighbour-pair
edge reserved for each vertex the caller names: the cycle merge opens the
cycle at them. It reads the tree as a mapping from each vertex to its
neighbours and lays the cycle in one pass, O(n) besides sorting the
leaves.
"""

from __future__ import annotations

from .graph import edge


class ConstructionError(RuntimeError):
    """An assembly step could not be carried out; indicates an unmet precondition."""


def _spine(nbrs, prefer_ends: frozenset[int]):
    """A longest path of the caterpillar with adjacency nbrs, and its legs:
    each inner vertex of the path mapped to its neighbours off the path,
    ascending.

    One pass over the leaves, ascending, hangs each on its neighbour in the
    core, the vertices of degree at least 2; a vertex's degree in the core
    is its degree less its legs. The core is walked from its least end.
    Each end adds one leaf of the core's end vertex: the least, unless a
    leaf of prefer_ends can sit there. Raises ValueError when the core is
    not a path.
    """
    bad = ValueError("not a caterpillar: the non-leaf vertices form no path")
    leaves = sorted(v for v, nv in nbrs.items() if len(nv) < 2)
    core = nbrs.keys() - leaves
    legs = {v: [] for v in core}
    for v in leaves:
        for w in nbrs[v]:
            if w in legs:  # no leg of a leaf
                legs[w].append(v)
    ends = []
    for v in core:
        on = len(nbrs[v]) - len(legs[v])
        if on != 2:
            if on > 2 or not on and len(core) > 1:
                raise bad
            ends.append(v)
    if not ends or len(ends) > 2:
        raise bad
    prev, path = None, [min(ends)]
    for _ in range(len(core) - 1):
        on = core & nbrs[path[-1]]
        on.discard(prev)
        if len(on) != 1:
            raise bad
        prev = path[-1]
        path.append(on.pop())
    leaf_pref = sorted(p for p in prefer_ends if len(nbrs[p]) == 1)
    d0, dk = path[0], path[-1]
    p0 = [p for p in leaf_pref if d0 in nbrs[p]]
    x0 = p0[0] if p0 else legs[d0][0]
    legs[d0].remove(x0)
    if d0 == dk:
        if len(p0) > 2:
            raise ConstructionError("more than two end reservations on a star")
        xm = p0[1] if len(p0) >= 2 else legs[d0][0]
    else:
        pk = [p for p in leaf_pref if dk in nbrs[p]]
        if len(p0) + len(pk) < len(leaf_pref) or len(p0) > 1 or len(pk) > 1:
            raise ConstructionError(
                f"end reservations {sorted(prefer_ends)} cannot all sit at spine ends")
        xm = pk[0] if pk else legs[dk][0]
    legs[dk].remove(xm)
    return [x0, *path, xm], legs


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


def caterpillar_cycle(nbrs,
                      need_end: frozenset[int] = frozenset(),
                      need_pair: frozenset[int] = frozenset()
                      ) -> tuple[list[int], dict[int, tuple[int, int]]]:
    """Hamiltonian cycle of the square of a caterpillar, and the edge of it
    reserved for each requested vertex, as the pair (order, reserved).

    nbrs maps each vertex of the caterpillar to the set of its neighbours:
    a tree's own adjacency, or a component of the bridge forest. The spine
    is a longest path chosen with the end reservations in mind, and order
    is the closed-form cycle of the module docstring. A need_end vertex
    (at most two) is reserved a spine end-edge containing it; a need_pair
    vertex, internal on the spine, its neighbour-pair edge, which it keeps
    when it is in need_end too. Every reserved edge is checked before it
    is returned.
    """
    if len(nbrs) < 3:
        raise ValueError("caterpillar cycle needs at least three vertices")
    x, legs = _spine(nbrs, frozenset(need_end))
    m = len(x)

    cyc = []  # steps 1, 2 and 3 of the order
    for i in range(m - 3, -1, -2):
        cyc.append(x[i])
        if i >= 2:
            cyc += reversed(legs[x[i - 1]])
    for i in range(m % 2, m - 2, 2):
        cyc.append(x[i])
        cyc += legs[x[i + 1]]
    cyc += (x[m - 2], x[m - 1])
    cyc += reversed(legs[x[m - 2]])

    wanted = sorted(need_end)
    if len(wanted) > 2:
        raise ConstructionError("at most two end-edge reservations are possible")
    e0, e1 = edge(x[0], x[1]), edge(x[m - 2], x[m - 1])
    for ends in ((e0, e1), (e1, e0)):
        if all(h in e for h, e in zip(wanted, ends)):
            reserved = dict(zip(wanted, ends))
            break
    else:
        raise ConstructionError(
            f"end-edge reservations for {wanted} are not realizable")
    if need_pair:
        inner = {h: j for j, h in enumerate(x[1:m - 1], 1)}
        for h in sorted(need_pair):
            j = inner.get(h)
            if j is None:
                raise ConstructionError(f"vertex {h} is not internal on the spine")
            lh = legs[h]
            reserved[h] = edge(x[j - 1], lh[0] if lh else x[j + 1]) \
                if j < m - 2 else edge(x[m - 1], lh[-1] if lh else x[m - 3])

    _validate_cat_cycle(nbrs, cyc, reserved, need_pair)
    return cyc, reserved


def _validate_cat_cycle(nbrs, cyc, reserved, need_pair):
    succ = dict(zip(cyc, cyc[1:] + cyc[:1]))
    if len(succ) != len(cyc) or succ.keys() != nbrs.keys():
        raise ConstructionError("caterpillar cycle does not cover the tree")
    for a, b in succ.items():
        if b not in nbrs[a] and nbrs[a].isdisjoint(nbrs[b]):
            raise ConstructionError(f"cycle edge {edge(a, b)} not in the square")
    if len(set(reserved.values())) != len(reserved):
        raise ConstructionError(f"reserved edges {reserved} not distinct")
    for h, e in reserved.items():
        u, v = e
        if succ[u] != v and succ[v] != u:
            raise ConstructionError(f"edge {e} reserved for {h} missing from cycle")
        if h in need_pair:
            if u not in nbrs[h] or v not in nbrs[h]:
                raise ConstructionError(
                    f"pair edge {e} endpoints not neighbors of {h}")
        elif h not in e:
            raise ConstructionError(f"end edge {e} does not hold {h}")
