"""Building hamiltonian cycles and paths in the square of a graph.

The cycle constructor works bottom up. Every 2-block gets a hamiltonian
cycle of its own square carrying, for each cutvertex i with label m_i, that
many distinct block edges at i (the oracle returns the cycle together with
the distinct-edge assignment). Every nontrivial caterpillar component of
the bridge forest gets a hamiltonian cycle of its square through dedicated
end-edges and neighbor-pair edges. All these cycles live in one CycleSet
(see caterpillars): each vertex's cycle neighbors, and an index from every
edge to the cycle holding it, kept through a union-find over cycle ids.
Then cutvertices are processed one at a time, in ascending order: each
cycle meeting the cutvertex is cut open exactly at that vertex's assigned
edges, found through the index, and the resulting fragments, plus any
pendant leaves, are chained back into a single cycle by linking fragment
ends. Every fragment end is a neighbor of the cutvertex, so consecutive
fragment ends are adjacent in the square and any fixed chaining order
works; we use ascending block index with leaves last. A step touches only
the cutvertex's own cycle edges and the fragment ends, and the cycle
becomes a list once, at the end, so the merge runs in O(n + m) besides the
per-block oracle calls.

Cutting only at assigned edges is what makes the merge safe: the edges
assigned to different vertices are globally distinct, so processing one
cutvertex can never consume an edge that a later cutvertex still needs.
Each step checks the edges it cuts against the vertices still owed them,
and the edges it adds against the square. The final cycle is validated
from scratch, so a wrong assembly can never be returned silently. All
these checks test square adjacency pairwise; no square of the whole graph
is built.

The path constructor follows the block tree. Endpoints in different blocks
split the graph at a separating cutvertex and concatenate the two half
paths. Endpoints in the same block take a per-block path with a designated
block edge at each cutvertex of the block and splice the hanging component
into that edge; when both endpoints are the block's two cutvertices this
designated edge may not exist at the far end, in which case a path through
an edge between two neighbors of that end is used instead, and the hanging
component is folded in as a cycle opened up between those two neighbors.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .graph import Graph, edge, is_ham_cycle, is_ham_path
from .decomposition import Decomposition, decompose, compute_P0
from .labelling import (Labelling, check_conditions, decide_hamiltonicity,
                        HAMILTONIAN)
from .caterpillars import ConstructionError, CycleSet, caterpillar_cycle
from .oracle import cycle_with, path_with


@dataclass(frozen=True)
class BlockCycle:
    """A block's cycle plus the distinct block edges assigned per cutvertex."""
    block_index: int
    order: tuple[int, ...]
    assigned: dict

    def edges_at(self, v: int) -> tuple:
        return self.assigned.get(v, ())


def block_cycle(b: Graph, m_values: dict, index: int = -1) -> BlockCycle:
    """Hamiltonian cycle of b**2 with m distinct b-edges at each labelled vertex."""
    demands = tuple((v, c) for v, c in sorted(m_values.items()) if c > 0)
    total = sum(c for _, c in demands)
    cap = 3 if any(c == 2 for _, c in demands) else 4
    if total > cap:
        raise ValueError(f"block demands {demands} exceed cycle capacity")
    w = cycle_with(b.square(), b, demands)
    if w is None:
        raise ConstructionError(
            f"no block cycle satisfying {demands}; the demands were expected "
            "to be feasible for any 2-block")
    assigned = {v: tuple(sorted(es)) for v, es in w.assignment.items()}
    return BlockCycle(index, w.order, assigned)


# -- the merge -------------------------------------------------------------

def _oriented(path):
    return list(path) if path[0] <= path[-1] else list(reversed(path))


@dataclass
class _Frag:
    """One piece of the cycle assembled at a cutvertex.

    Its interior edges stay where they lie in the CycleSet; only its ends,
    in the orientation it is laid in, and the edges cut to open it are kept.
    """
    kind: str  # "anch" | "open" | "base2" | "leaf"
    ends: tuple
    key: tuple
    cycle: int | None = None  # the cycle it was cut from
    cut: tuple = ()


def _opened(cs: CycleSet, i: int, c: int, key, expect=None) -> _Frag:
    """Cycle c with i taken out: a path between i's two neighbours on it."""
    around = cs.around(i, c)
    cut = tuple(edge(i, w) for w in around)
    if len(cut) != 2 or (expect is not None and set(cut) != set(expect)):
        raise ConstructionError(
            f"cycle edges {sorted(cut)} at {i} differ from the assigned "
            f"{sorted(expect or ())}")
    return _Frag("open", tuple(around), key, c, cut)


def _anchored(i: int, c: int, e, key) -> _Frag:
    """Cycle c cut at its edge e at i: a path from i to e's other end."""
    if i not in e:
        raise ConstructionError(f"vertex {i} is not an end of the fragment")
    return _Frag("anch", (i, _partner(e, i)), key, c, (e,))


def _assemble(i: int, frags) -> list:
    """The fragments' (first, last) ends in the order the cycle takes them."""
    base2 = [f for f in frags if f.kind == "base2"]
    anchs = sorted((f for f in frags if f.kind == "anch"), key=lambda f: f.key)
    others = sorted((f for f in frags if f.kind in ("open", "leaf")),
                    key=lambda f: f.key)
    if len(base2) > 1 or (base2 and anchs) or len(anchs) > 2:
        raise ConstructionError(
            f"fragment mix at {i} not realizable: {len(base2)} saturated, "
            f"{len(anchs)} anchored")
    if base2:
        segs = [base2[0].ends]
    elif len(anchs) == 2:
        segs = [(anchs[0].ends[1], anchs[1].ends[1])]  # joined at i
    elif len(anchs) == 1:
        segs = [anchs[0].ends]
    else:
        segs = [(i, i)]
    return segs + [f.ends for f in others]


def _merge_at(cs: CycleSet, g: Graph, i: int, frags) -> tuple:
    """Cut the fragments' cycles open and chain them into one cycle through i.

    Returns the merged cycle's first and last vertex (it reads from the
    first away from the last) and the edges the step removed for good.
    """
    consumed = [f.cycle for f in frags if f.cycle is not None]
    if len(set(consumed)) != len(consumed):
        raise ConstructionError(
            f"two fragments at {i} came from one cycle; they should only "
            f"meet when {i} itself is merged")
    segs = _assemble(i, frags)
    joins = [(last, nxt) for (_, last), (nxt, _)
             in zip(segs, segs[1:] + segs[:1])]
    for a, b in joins:
        if not g.square_has_edge(a, b):
            raise ConstructionError(f"assembled cycle uses non-edge ({a}, {b})")
    # a K2 end fragment brings its one edge along
    joins += [f.ends for f in frags if f.kind == "anch" and f.cycle is None]
    removed = {e for f in frags for e in f.cut}
    for e in removed:
        cs.cut(e)
    c = cs.new_cycle(consumed)
    for a, b in joins:
        cs.link(a, b, c)
    return segs[0][0], segs[-1][1], removed - {edge(a, b) for a, b in joins}


def _merge_cycles(g: Graph, d: Decomposition, labelling: Labelling) -> list:
    cat = compute_P0(g, d)
    two = d.two_blocks()

    cs = CycleSet()
    assigned: dict[tuple[int, int], tuple] = {}
    blocks_at: dict[int, list] = {}
    for b in two:
        mv = {i: labelling.value(i, b.index)
              for i in b.vertices if i in d.cutvertices}
        bc = block_cycle(Graph.from_edges(b.edges), mv, b.index)
        cs.add(bc.order)
        for v, es in bc.assigned.items():
            assigned[(v, b.index)] = es
        for v in mv:
            blocks_at.setdefault(v, []).append(b)

    reserved_end: dict[int, tuple] = {}
    reserved_pair: dict[int, tuple] = {}
    k2_edges: set = set()
    for comp in cat.components:
        if all(g.degree(a) == 1 or g.degree(b) == 1 for a, b in comp.edges):
            continue  # pendant star; its leaves join as singletons later
        if comp.is_trivial:
            u, v = sorted(comp.vertices)
            e = edge(u, v)
            k2_edges.add(e)
            reserved_end[u] = e
            reserved_end[v] = e
            continue
        comp_g = Graph.from_edges(comp.edges)
        need_end = frozenset(v for v in comp.vertices
                             if d.bn.get(v, 0) == 1 and d.k.get(v, 0) >= 1)
        need_pair = frozenset(v for v in comp.vertices
                              if d.bn.get(v, 0) == 2 and d.k.get(v, 0) >= 1)
        cc = caterpillar_cycle(comp_g, need_end, need_pair)
        cs.add(cc.order)
        for v in need_end:
            reserved_end[v] = cc.reserved[v]
        for v in need_pair:
            reserved_pair[v] = cc.reserved[v]

    # Every edge still owed to a cutvertex, by owner. A step can only take
    # away the edges it cuts, so only those are checked against the owners.
    owed: dict[tuple, list] = {}
    for (v, _), es in assigned.items():
        for e in es:
            owed.setdefault(e, []).append(v)
    for v, e in (*reserved_end.items(), *reserved_pair.items()):
        owed.setdefault(e, []).append(v)

    to_process = sorted(v for v in d.cutvertices if d.k[v] >= 1)
    processed: set = set()
    first = last = None
    for i in to_process:
        frags: list[_Frag] = []
        for b in blocks_at.get(i, ()):
            es = assigned.get((i, b.index))
            if not es:
                raise ConstructionError(
                    f"cutvertex {i} carries no assigned edges in block {b.index}")
            c = cs.cycle_of(es[0])
            if c is None or any(cs.cycle_of(e) != c for e in es):
                raise ConstructionError(
                    f"assigned edges {es} of vertex {i} vanished before its turn")
            if len(es) == 2:
                frags.append(_opened(cs, i, c, (0, b.index), es))
            else:
                frags.append(_anchored(i, c, es[0], (0, b.index)))
        if i in reserved_pair:
            e = reserved_pair[i]
            c = cs.cycle_of(e)
            if c is None:
                raise ConstructionError(f"pair edge {e} for {i} vanished")
            if i in e or not cs.around(i, c):
                raise ConstructionError(f"pair cut at {e} does not keep {i} inside")
            frags.append(_Frag("base2", e, (1, 0), c, (e,)))
        elif i in reserved_end:
            e = reserved_end[i]
            c = cs.cycle_of(e)
            if c is None:
                if e not in k2_edges:
                    raise ConstructionError(f"end edge {e} for {i} vanished")
                frags.append(_Frag("anch", (i, _partner(e, i)), (1, 0)))
            else:
                frags.append(_anchored(i, c, e, (1, 0)))
        for leaf in sorted(g.neighbors(i)):
            if g.degree(leaf) == 1 and leaf not in cs.nbrs:
                frags.append(_Frag("leaf", (leaf, leaf), (2, leaf)))

        first, last, removed = _merge_at(cs, g, i, frags)
        processed.add(i)
        for e in removed:
            for j in owed.get(e, ()):
                if j not in processed:
                    raise ConstructionError(
                        f"edge {e} owed to pending vertex {j} was consumed")
        e = reserved_end.get(i)
        if (e in k2_edges and _partner(e, i) not in processed
                and cs.cycle_of(e) is None):
            raise ConstructionError(
                f"end edge {e} reserved for pending vertex {_partner(e, i)} "
                "did not appear")

    if len(cs.live) != 1 or first is None:
        raise ConstructionError(
            f"merging finished with {len(cs.live)} cycles instead of one")
    return cs.walk(first, last)


def construct_ham_cycle(g: Graph, labelling: Labelling | None = None) -> list:
    """A hamiltonian cycle of square(g), built from the labelling's blueprint.

    With labelling None the decision procedure is run first and must come
    back positive. A supplied labelling must satisfy all six conditions.
    """
    if g.n < 3:
        raise ValueError("a hamiltonian cycle needs at least 3 vertices")
    if not g.is_connected():
        raise ValueError("input graph must be connected")
    d = decompose(g)
    if labelling is None:
        verdict = decide_hamiltonicity(g)
        if verdict.outcome != HAMILTONIAN:
            raise ValueError(
                f"decision procedure returned {verdict.outcome}; no labelling "
                "to build from")
        labelling = verdict.labelling
    bad = check_conditions(g, labelling, d)
    if bad:
        raise ValueError(f"labelling violates conditions {bad}")

    if not d.two_blocks():
        cyc = list(caterpillar_cycle(g).order)
    elif len(d.blocks) == 1:
        w = cycle_with(g.square(), g)
        if w is None:
            raise ConstructionError("no hamiltonian cycle in the block square")
        cyc = list(w.order)
    else:
        cyc = _merge_cycles(g, d, labelling)

    if not is_ham_cycle(g, cyc, square=True):
        raise ConstructionError("assembled sequence is not a hamiltonian cycle")
    return cyc


# -- hamiltonian paths -----------------------------------------------------

def _separates(g: Graph, v: int, x: int, y: int) -> bool:
    rest = g.subgraph(g.vertices - {v})
    for comp in rest.components():
        if x in comp:
            return y not in comp
    return False


def _splice_path(order: list, c: int, yp: int, tail: list) -> list:
    """Replace the c-yp step of the path by c, tail interior, tail end, yp."""
    if tail[0] != c:
        raise ConstructionError("splice tail must start at the cutvertex")
    for j in range(len(order) - 1):
        a, b = order[j], order[j + 1]
        if (a, b) == (c, yp):
            return order[:j + 1] + tail[1:] + order[j + 1:]
        if (a, b) == (yp, c):
            rt = list(reversed(tail))
            return order[:j + 1] + rt[:-1] + order[j + 1:]
    raise ConstructionError(f"edge ({c}, {yp}) not on the path")


def _partner(e, v):
    return e[0] if e[1] == v else e[1]


def _hanging_component(g: Graph, bg: Graph, c: int) -> Graph:
    """The piece of g attached through c once the block bg is taken out."""
    gm = g.subtract(bg)
    for comp in gm.components():
        if c in comp:
            return gm.subgraph(comp)
    raise ConstructionError(f"no component of the remainder contains {c}")


def _cycle_with_two_edges_at(g2: Graph, c2: int) -> list:
    """Hamiltonian cycle of g2**2, starting at c2, whose two cycle edges at
    c2 are g2-edges."""
    d2 = decompose(g2)
    cs = CycleSet()
    frags = []
    for blk in d2.two_blocks():
        if c2 not in blk.vertices:
            continue
        blkg = Graph.from_edges(blk.edges)
        others = [v for v in sorted(d2.cutvertices)
                  if v in blk.vertices and v != c2]
        if len(others) > 1:
            raise ConstructionError(
                f"block {blk.index} has more than two cutvertices")
        yi = others[0] if others else None
        demands = [(c2, 2)] + ([(yi, 1)] if yi is not None else [])
        w = cycle_with(blkg.square(), blkg, demands)
        if w is None:
            raise ConstructionError(
                f"no block cycle with two edges at {c2} in block {blk.index}")
        c = cs.add(w.order)
        if yi is not None:
            ypi = _partner(w.assignment[yi][0], yi)
            keep = g2.vertices - (blk.vertices - {yi})
            sub = g2.subgraph(keep)
            hi = None
            for comp in sub.components():
                if yi in comp:
                    hi = sub.subgraph(comp)
                    break
            if hi is None or hi.n < 2:
                raise ConstructionError(f"nothing hangs at cutvertex {yi}")
            di = min(hi.neighbors(yi))
            pi = _path_rec(hi, yi, di)
            cs.splice(pi + [ypi])
        frags.append(_opened(cs, c2, c, (0, blk.index), w.assignment[c2]))
    for leaf in sorted(g2.neighbors(c2)):
        if g2.degree(leaf) == 1:
            frags.append(_Frag("leaf", (leaf, leaf), (2, leaf)))
    first, last, _ = _merge_at(cs, g2, c2, frags)
    seq = cs.walk(first, last)
    if not is_ham_cycle(g2, seq, square=True):
        raise ConstructionError(
            "cycle through the hanging component is not hamiltonian")
    return seq


def _case_same_block(g: Graph, d: Decomposition, blk, x: int, y: int) -> list:
    bg = Graph.from_edges(blk.edges)
    cvs = sorted(v for v in d.cutvertices if v in blk.vertices)

    if len(cvs) == 1:
        c = cvs[0]
        flip = x == c
        if flip:
            x, y = y, x
        if blk.is_two_block:
            w = path_with(bg.square(), bg, x, y, [(c, 1)])
            if w is None:
                raise ConstructionError(
                    f"no {x}-{y} path with a block edge at {c}")
            pb = list(w.order)
            yp = _partner(w.assignment[c][0], c)
        else:
            if y != c:
                raise ConstructionError("bridge block endpoints are its vertices")
            pb = [x, y]
            yp = x
        rest = _hanging_component(g, bg, c)
        cp = min(rest.neighbors(c))
        pg = _path_rec(rest, c, cp)
        res = _splice_path(pb, c, yp, pg)
        return list(reversed(res)) if flip else res

    if len(cvs) != 2:
        raise ConstructionError(
            f"block carries {len(cvs)} cutvertices; at most two are buildable")
    c1, c2 = cvs
    if not blk.is_two_block:
        raise ConstructionError(
            f"bridge ({c1}, {c2}) joins two cutvertices; no path between its "
            "ends exists in the square")
    if {x, y} == {c1, c2}:
        c1, c2 = x, y
        w = path_with(bg.square(), bg, x, y, [(c1, 1), (c2, 1)])
        if w is None:
            return _rescue_through_neighbors(g, bg, c1, c2, x, y)
    else:
        w = path_with(bg.square(), bg, x, y, [(c1, 1), (c2, 1)])
        if w is None:
            raise ConstructionError(
                f"no {x}-{y} path with block edges at {c1} and {c2}")
    res = list(w.order)
    for c in (c1, c2):
        gi = _hanging_component(g, bg, c)
        cpi = min(gi.neighbors(c))
        pgi = _path_rec(gi, c, cpi)
        zi = _partner(w.assignment[c][0], c)
        res = _splice_path(res, c, zi, pgi)
    return res


def _rescue_through_neighbors(g: Graph, bg: Graph, c1: int, c2: int,
                              x: int, y: int) -> list:
    """x-y path when no block path carries an edge at the far endpoint.

    A path through some edge between two neighbors of c2 exists instead;
    the component hanging at c2 enters between those two neighbors.
    """
    import itertools
    found = None
    for u, v in itertools.combinations(sorted(bg.neighbors(c2)), 2):
        w = path_with(bg.square(), bg, x, y, [(c1, 1)],
                      required_edges=[edge(u, v)])
        if w is not None:
            found = (u, v, w)
            break
    if found is None:
        raise ConstructionError(
            f"neither an edge at {c2} nor a neighbor-pair edge is achievable")
    u, v, w = found
    res = list(w.order)

    g1 = _hanging_component(g, bg, c1)
    cp1 = min(g1.neighbors(c1))
    pg1 = _path_rec(g1, c1, cp1)
    z1 = _partner(w.assignment[c1][0], c1)
    res = _splice_path(res, c1, z1, pg1)

    g2 = _hanging_component(g, bg, c2)
    pos = None
    for j in range(len(res) - 1):
        if edge(res[j], res[j + 1]) == edge(u, v):
            pos = j
            break
    if pos is None:
        raise ConstructionError(f"required edge ({u}, {v}) lost while splicing")
    if g2.n == 2:
        cp2 = min(g2.neighbors(c2))
        insert = [cp2]
    else:
        insert = _oriented(_cycle_with_two_edges_at(g2, c2)[1:])
    return res[:pos + 1] + insert + res[pos + 1:]


def _path_rec(g: Graph, x: int, y: int) -> list:
    if g.n == 2:
        return [x, y]
    d = decompose(g)
    same = None
    for blk in d.blocks:
        if x in blk.vertices and y in blk.vertices:
            same = blk
            break
    if same is not None:
        if len(d.blocks) == 1:
            w = path_with(g.square(), g, x, y)
            if w is None:
                raise ConstructionError(f"no {x}-{y} path in the block square")
            return list(w.order)
        return _case_same_block(g, d, same, x, y)

    pg = g.shortest_path(x, y)
    c = None
    for v in pg[1:-1]:
        if v in d.cutvertices and _separates(g, v, x, y):
            c = v
            break
    if c is None:
        raise ConstructionError(
            f"no separating cutvertex between {x} and {y} found")
    rest = g.subgraph(g.vertices - {c})
    kx = None
    for comp in rest.components():
        if x in comp:
            kx = comp
            break
    gx = g.subgraph(kx | {c})
    gy = g.subgraph(g.vertices - kx)
    px = _path_rec(gx, x, c)
    py = _path_rec(gy, c, y)
    return px + py[1:]


def construct_ham_path(g: Graph, x: int, y: int) -> list:
    """A hamiltonian x-y path of square(g).

    Requires the connectedness decision to pass: no nontrivial bridge and
    at most two cutvertices per block.
    """
    from .hamconn import decide_hamiltonian_connectedness, HAM_CONNECTED
    if x == y:
        raise ValueError("endpoints must be distinct")
    if x not in g.vertices or y not in g.vertices:
        raise ValueError("endpoints must be vertices of the graph")
    verdict = decide_hamiltonian_connectedness(g)
    if verdict.outcome != HAM_CONNECTED:
        raise ValueError(
            f"square not guaranteed hamiltonian connected: {verdict.outcome}")
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, g.n * 16 + 400))
    try:
        path = _path_rec(g, x, y)
    finally:
        sys.setrecursionlimit(old)
    if not is_ham_path(g, path, x, y, square=True):
        raise ConstructionError("assembled sequence is not a hamiltonian path")
    return path
