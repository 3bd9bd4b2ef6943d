"""The block-cutvertex structure of a connected graph.

Computes blocks (maximal 2-connected subgraphs and bridges) and
cutvertices, and only what the deciders and constructors read of them.
Blocks are indexed in the order of their least edge, and their records,
one per block, are the one block store: a bridge is its edge (u, v), a
2-block is (a, b, edges, vertices). A tree, known from its counts
(n >= 2, m = n - 1) and one walk that proves it connected, is read off
its degrees: every edge is a bridge, the cutvertices are the non-leaves,
bn[v] is v's degree less the leaves at v, and the graph is its own bridge
forest. Any other graph takes one lowpoint DFS from the least vertex,
which also proves the graph connected by reaching every vertex, and one
loop over the blocks it finds. Every
other field is built on its first read: a tree's records (its sorted
edges), which no verdict or cycle reads; a tree's nontrivial bridges (its
edges between two non-leaves), which only the connectedness decider and
the CLI's decompose read; cuts_of, the cutvertices of each block, which
the deciders read; blocks_at, the blocks at each cutvertex, which no
verdict or cycle reads; and bridge_forest, the components of the bridge
forest P0 left after removing all 2-blocks, each as its adjacency across
bridges, which only the cycle merge reads. P0 is g itself when there is
no 2-block, and otherwise a walk over the bridge adjacency, in O(n + m).
bc_canonical reads the block-cutvertex tree off the records as the text
of its canonical form.
decompose hands its last decomposition back for the same Graph object, so
a run of requests on one graph costs one traversal.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field

from .graph import Graph


_DISCONNECTED = "input graph must be connected"


class _OnRead:
    """A field returned on its first read by d's method named build, looked
    up then, and stored in d.__dict__, where a value stored first is read
    as it is. It takes no lock, unlike the standard library's cached
    property, a cost on small graphs."""

    def __init__(self, build: str):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, d, owner=None):
        if d is None:
            return self
        value = d.__dict__[self.name] = getattr(d, self.build)()
        return value


@dataclass(frozen=True)
class Decomposition:
    """records[t] is block t: a bridge (u, v), or a 2-block (a, b, edges,
    vertices) with (a, b) its least edge. two_idx lists the 2-blocks;
    across maps each vertex on a bridge (or the lone vertex of a graph
    with no edge) to the set of its neighbours across bridges; for a tree
    it is g's own adjacency, g.adj.

    nontrivial_bridges holds the bridges between two vertices that are no
    leaf. decompose stores it and records on any graph but a tree; every
    other field below is built on its first read. Every field follows from
    the graph, so two decompositions compare and hash by it alone."""
    graph: Graph
    cutvertices: frozenset[int] = field(compare=False)
    bn: dict[int, int] = field(compare=False)
    k: dict[int, int] = field(compare=False)
    two_idx: tuple[int, ...] = field(compare=False)
    across: dict = field(compare=False)

    def _tree_records(self) -> tuple:
        """With no 2-block every edge is a bridge, and its own record."""
        return tuple(self.graph.sorted_edges())

    def _tree_bridges(self) -> frozenset:
        """With no 2-block the nontrivial bridges join two cutvertices."""
        cuts, adj = self.cutvertices, self.graph.adj
        return frozenset([(u, v) for u in cuts for v in adj[u]
                          if u < v and v in cuts])

    # a tree's, built on first read
    records = _OnRead("_tree_records")
    nontrivial_bridges = _OnRead("_tree_bridges")

    def block_count(self) -> int:
        """len(records), read without building a tree's records: with no
        2-block the graph is a tree (or one vertex) of n - 1 edge blocks."""
        return len(self.records) if self.two_idx else self.graph.n - 1

    def _cuts(self) -> dict:
        """cuts_of, from the records."""
        cut = self.cutvertices
        return {t: sorted(cut.intersection(r if len(r) == 2 else r[3]))
                for t, r in enumerate(self.records)}

    def _blocks_at(self) -> dict:
        """blocks_at, from cuts_of."""
        at: dict[int, list[int]] = {c: [] for c in self.cutvertices}
        for t, cuts in self.cuts_of.items():
            for c in cuts:
                at[c].append(t)
        return at

    def _bridge_forest(self) -> tuple:
        return compute_P0(self)

    # each built on its first read, ascending: cuts_of[t] the cutvertices of
    # block t, blocks_at[c] the blocks at cutvertex c, bridges included;
    # bridge_forest is P0's adjacencies, compute_P0(self), read by the merge
    cuts_of = _OnRead("_cuts")
    blocks_at = _OnRead("_blocks_at")
    bridge_forest = _OnRead("_bridge_forest")


def _blocks(g: Graph):
    """The block records, by least edge, and the cutvertices.

    One iterative lowpoint DFS from the least vertex over the unsorted
    adjacency; the blocks do not depend on the visiting order. Raises
    ValueError when the DFS does not reach every vertex.
    """
    adj = g.adj
    root = min(g.vertices)
    disc = {root: 0}
    low = {root: 0}
    arts: set[int] = set()
    raw: list = []
    estack: list[tuple[int, int]] = []
    stack = [(root, -1, iter(adj[root]))]
    root_children = 0
    while stack:
        v, parent, it = stack[-1]
        dv = disc[v]
        for w in it:
            dw = disc.get(w)
            if dw is None:
                estack.append((v, w))
                disc[w] = low[w] = len(disc)
                stack.append((w, v, iter(adj[w])))
                break
            if dw < dv and w != parent:
                estack.append((v, w))
                if dw < low[v]:
                    low[v] = dw
        else:
            stack.pop()
            if parent < 0:
                continue
            lv = low[v]
            if lv < low[parent]:
                low[parent] = lv
            if lv < disc[parent]:
                continue
            if parent == root:
                root_children += 1
            else:
                arts.add(parent)
            e = estack.pop()
            if e == (parent, v):  # a bridge
                raw.append((parent, v) if parent < v else (v, parent))
                continue
            es, vs = [], set()
            while True:
                a, b = e
                es.append((a, b) if a < b else (b, a))
                vs.add(a)
                vs.add(b)
                if e == (parent, v):
                    break
                e = estack.pop()
            raw.append((*min(es), frozenset(es), frozenset(vs)))
    if len(disc) != len(adj):
        raise ValueError(_DISCONNECTED)
    if root_children >= 2:
        arts.add(root)
    raw.sort()  # the least edges are distinct: no tie reaches the sets
    return raw, arts


def _tree(g: Graph) -> Decomposition:
    """decompose of a graph with n >= 2 and m = n - 1, read off the degrees.

    One walk proves g connected, and so a tree: every edge is a bridge,
    the cutvertices are the vertices that are no leaf, and bn[v] is v's
    degree less the leaves at v, 0 at a leaf. Its records and nontrivial
    bridges are left to their first read.
    """
    adj = g.adj
    root = min(adj)
    seen = {root}
    todo = [root]
    for v in todo:
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    if len(seen) != len(adj):
        raise ValueError(_DISCONNECTED)
    bn = dict(zip(adj, map(len, adj.values())))
    leaves = [v for v, deg in bn.items() if deg == 1]
    for v in leaves:
        for w in adj[v]:
            bn[w] -= 1
    bn.update(dict.fromkeys(leaves, 0))
    return Decomposition(g, g.vertices.difference(leaves), bn,
                         dict.fromkeys(adj, 0), (), adj)


_last: Decomposition | None = None  # what decompose returned last


def decompose(g: Graph) -> Decomposition:
    """Blocks, cutvertices and counters of a connected graph.

    Blocks are indexed in the order of their least edge. A graph with
    n >= 2 and m = n - 1 is a tree exactly when it is connected, and is
    read off its degrees (_tree). Any other graph takes the lowpoint DFS
    (_blocks), and the bridge classes, the counters, the 2-block indices
    and the bridge adjacency are filled in one loop over its blocks.
    The last one returned is kept and handed back for the same (immutable)
    Graph object. Raises ValueError, every time and keeping the memo as it
    was, when g is empty or not connected.
    """
    global _last
    last = _last
    if last is not None and last.graph is g:
        return last
    if g.n == 0:
        raise ValueError("decompose requires at least one vertex")
    if g.m == g.n - 1 and g.n >= 2:
        _last = d = _tree(g)
        return d
    raw, arts = _blocks(g)
    adj = g.adj
    nontrivial, two = [], []
    bn = dict.fromkeys(adj, 0)
    k = dict.fromkeys(adj, 0)
    across = defaultdict(set)
    for t, r in enumerate(raw):
        if len(r) > 2:
            two.append(t)
            for v in r[3]:
                k[v] += 1
            continue
        u, v = r
        across[u].add(v)
        across[v].add(u)
        if len(adj[u]) > 1 and len(adj[v]) > 1:
            nontrivial.append(r)
            bn[u] += 1
            bn[v] += 1
    # a lone vertex, on no block, is a component of P0 by itself
    across = dict(across) if raw else {v: set() for v in adj}
    _last = d = Decomposition(g, frozenset(arts), bn, k, tuple(two), across)
    d.__dict__.update(records=tuple(raw),
                      nontrivial_bridges=frozenset(nontrivial))
    return d


# -- block-cutvertex tree --------------------------------------------------

def bc_canonical(d: Decomposition) -> str:
    """The canonical form of d's block-cutvertex tree as text. Two graphs
    have tag-respecting isomorphic block-cutvertex trees exactly when their
    texts are equal."""
    return canonical_text(_bc_form(d))


def _bc_form(d: Decomposition):
    """The canonical form of the tree on nodes ("block", t), tagged
    "bridge" or "2block", and ("cut", v), tagged "cut"."""
    tags = {("block", t): "bridge" if len(r) == 2 else "2block"
            for t, r in enumerate(d.records)}
    tags.update((("cut", v), "cut") for v in sorted(d.cutvertices))
    adj: dict = {node: [] for node in tags}
    for t, cuts in d.cuts_of.items():
        for v in cuts:
            adj[("block", t)].append(("cut", v))
            adj[("cut", v)].append(("block", t))
    return _tree_canonical(tags, adj)


def _canon_cmp(a, b) -> int:
    """-1, 0 or 1 as canonical form a is below, equal to or above b.

    The same order as comparing the tuples, without the interpreter's
    recursion, which a form as deep as a long path would exceed.
    """
    stack = [((a,), (b,), 0)]
    while stack:
        xs, ys, i = stack.pop()
        if i == len(xs) or i == len(ys):
            if len(xs) != len(ys):
                return -1 if len(xs) < len(ys) else 1
            continue
        stack.append((xs, ys, i + 1))
        x, y = xs[i], ys[i]
        if x is y:
            continue
        if x[0] != y[0]:
            return -1 if x[0] < y[0] else 1
        stack.append((x[1], y[1], 0))
    return 0


def canonical_text(canon) -> str:
    """str(canon) for a canonical form, built without recursion."""
    out = []
    stack = [canon]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif not item:
            out.append("()")
        else:
            tag, kids = item
            parts = [f"({tag!r}, ("]
            for j, kid in enumerate(kids):
                parts += [", ", kid] if j else [kid]
            parts.append(",))" if len(kids) == 1 else "))")
            stack.extend(reversed(parts))
    return "".join(out)


def _tree_canonical(tags, adj):
    nodes = list(tags)
    if not nodes:
        return ()
    if len(nodes) == 1:
        return (tags[nodes[0]], ())
    by_form = functools.cmp_to_key(_canon_cmp)

    def canon_from(root):
        parent = {root: None}
        order = [root]
        for v in order:
            for w in adj[v]:
                if w != parent[v]:
                    parent[w] = v
                    order.append(w)
        kids: dict = {v: [] for v in order}
        for v in reversed(order):
            form = (tags[v], tuple(sorted(kids[v], key=by_form)))
            if parent[v] is None:
                return form
            kids[parent[v]].append(form)

    # centers by leaf stripping
    deg = {v: len(adj[v]) for v in nodes}
    layer = [v for v in nodes if deg[v] <= 1]
    remaining = len(nodes)
    alive = set(nodes)
    while remaining > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            remaining -= 1
            for w in adj[v]:
                if w in alive:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = sorted(alive)
    return min((canon_from(c) for c in centers), key=by_form)


# -- the bridge forest P0 --------------------------------------------------

def compute_P0(d: Decomposition) -> tuple[dict, ...]:
    """G minus the union of its 2-blocks, a forest whose edges are the
    bridges, as its components by least vertex. Its vertices are those on a
    bridge, and a lone vertex on no block. With no 2-block that is the graph
    itself; otherwise the components are walked over the bridge adjacency.
    A component is its adjacency: each of its vertices mapped to the set of
    its neighbours across bridges.
    """
    across = d.across
    if not d.two_idx:
        return (across,)
    seen: set = set()
    comps = []
    for root in sorted(across):
        if root in seen:
            continue
        seen.add(root)
        todo = [root]
        nbrs = {}  # vertex -> its neighbours across bridges
        while todo:
            v = todo.pop()
            nbrs[v] = nv = across[v]
            for w in nv:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        comps.append(nbrs)
    return tuple(comps)

