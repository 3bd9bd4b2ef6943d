"""Block-cutvertex structure of a connected graph.

Computes blocks (maximal 2-connected subgraphs and bridges), cutvertices, the
counters driving the decision procedures (bn, k, cvn), the block-cutvertex
tree with its node tags, and the bridge forest P0 left after removing all
blocks with more than two vertices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .graph import Graph, edge
from .caterpillars import is_caterpillar, longest_spine


@dataclass(frozen=True)
class Block:
    """One block of the graph: either a bridge or a 2-block (over two vertices)."""
    index: int
    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]

    @property
    def is_two_block(self) -> bool:
        return len(self.vertices) > 2

    @property
    def is_bridge(self) -> bool:
        return not self.is_two_block


@dataclass(frozen=True)
class Decomposition:
    graph: Graph
    blocks: tuple[Block, ...]
    cutvertices: frozenset[int]
    trivial_bridges: frozenset[tuple[int, int]]
    nontrivial_bridges: frozenset[tuple[int, int]]
    bn: dict[int, int] = field(compare=False)
    k: dict[int, int] = field(compare=False)
    cvn: dict[int, int] = field(compare=False)

    def two_blocks(self) -> list[Block]:
        return [b for b in self.blocks if b.is_two_block]

    def bridges(self) -> list[Block]:
        return [b for b in self.blocks if b.is_bridge]

    def blocks_at(self, v: int) -> list[Block]:
        return [b for b in self.blocks if v in b.vertices]

    def two_blocks_at(self, v: int) -> list[Block]:
        return [b for b in self.blocks if b.is_two_block and v in b.vertices]

    def block_of_edge(self, e: tuple[int, int]) -> Block:
        for b in self.blocks:
            if e in b.edges:
                return b
        raise KeyError(f"edge {e} not in any block")

    def endblocks(self) -> list[Block]:
        """Blocks containing at most one cutvertex (leaves of the bc-tree)."""
        return [b for b in self.blocks
                if sum(1 for v in b.vertices if v in self.cutvertices) <= 1]


def _biconnected(g: Graph):
    """Edge sets of the biconnected components plus the articulation vertices.

    Iterative lowpoint computation; neighbor order is sorted so the output is
    deterministic for a given labelled graph.
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    comps: list[frozenset[tuple[int, int]]] = []
    arts: set[int] = set()
    counter = 0
    for root in g.sorted_vertices():
        if root in disc:
            continue
        root_children = 0
        stack = [(root, None, iter(sorted(g.neighbors(root))))]
        disc[root] = low[root] = counter
        counter += 1
        estack: list[tuple[int, int]] = []
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if w not in disc:
                    estack.append((v, w))
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, v, iter(sorted(g.neighbors(w)))))
                    advanced = True
                    break
                elif disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if parent is not None:
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    comp = []
                    while estack:
                        e = estack.pop()
                        comp.append(edge(*e))
                        if e == (parent, v):
                            break
                    comps.append(frozenset(comp))
                    if parent != root:
                        arts.add(parent)
                if parent == root:
                    root_children += 1
        if root_children >= 2:
            arts.add(root)
    return comps, arts


def decompose(g: Graph) -> Decomposition:
    """Blocks, cutvertices and counters of a connected graph."""
    if not g.is_connected():
        raise ValueError("decompose requires a connected graph")
    if g.n == 0:
        raise ValueError("decompose requires at least one vertex")
    raw, arts = _biconnected(g)
    keyed = sorted(raw, key=lambda es: sorted(es))
    blocks = []
    for idx, es in enumerate(keyed):
        vs = frozenset(x for e in es for x in e)
        blocks.append(Block(idx, vs, es))
    cut = frozenset(arts)
    trivial, nontrivial = set(), set()
    for b in blocks:
        if b.is_bridge:
            (e,) = b.edges
            u, v = e
            if g.degree(u) == 1 or g.degree(v) == 1:
                trivial.add(e)
            else:
                nontrivial.add(e)
    bn = {v: 0 for v in g.vertices}
    k = {v: 0 for v in g.vertices}
    for e in nontrivial:
        bn[e[0]] += 1
        bn[e[1]] += 1
    for b in blocks:
        if b.is_two_block:
            for v in b.vertices:
                k[v] += 1
    cvn = {b.index: sum(1 for v in b.vertices if v in cut) for b in blocks}
    return Decomposition(g, tuple(blocks), cut,
                         frozenset(trivial), frozenset(nontrivial),
                         bn, k, cvn)


# -- block-cutvertex tree --------------------------------------------------

CUT = "cut"
TWO_BLOCK = "2block"
BRIDGE = "bridge"


@dataclass(frozen=True)
class BcTree:
    """Bipartite tree on block nodes and cutvertex nodes.

    Nodes are ("cut", v) or ("block", index); tags[node] distinguishes
    cutvertices, 2-blocks and bridges.
    """
    nodes: tuple
    tags: dict = field(compare=False)
    adj: dict = field(compare=False)

    def canonical(self):
        return _tree_canonical(self.nodes, self.tags, self.adj)


def bc_tree(d: Decomposition) -> BcTree:
    nodes = []
    tags = {}
    adj: dict = {}
    for b in d.blocks:
        node = ("block", b.index)
        nodes.append(node)
        tags[node] = TWO_BLOCK if b.is_two_block else BRIDGE
        adj[node] = []
    for v in sorted(d.cutvertices):
        node = ("cut", v)
        nodes.append(node)
        tags[node] = CUT
        adj[node] = []
    for b in d.blocks:
        for v in sorted(b.vertices):
            if v in d.cutvertices:
                adj[("block", b.index)].append(("cut", v))
                adj[("cut", v)].append(("block", b.index))
    return BcTree(tuple(nodes), tags, adj)


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


def _tree_canonical(nodes, tags, adj):
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


def bc_isomorphic(t1: BcTree, t2: BcTree) -> bool:
    """Tag-respecting tree isomorphism via canonical form comparison."""
    a, b = t1.canonical(), t2.canonical()
    return _canon_cmp(a, b) == 0 if a and b else a == b


# -- the bridge forest P0 --------------------------------------------------

@dataclass(frozen=True)
class P0Component:
    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]
    is_caterpillar: bool
    spine: tuple[int, ...] | None  # a longest path, for caterpillars with >= 3 vertices

    @property
    def is_trivial(self) -> bool:
        return len(self.vertices) == 2


@dataclass(frozen=True)
class CaterpillarAnalysis:
    p0: Graph
    components: tuple[P0Component, ...]

    @property
    def all_caterpillars(self) -> bool:
        return all(c.is_caterpillar for c in self.components)

    def component_of(self, v: int) -> P0Component | None:
        for c in self.components:
            if v in c.vertices:
                return c
        return None


def compute_P0(g: Graph, d: Decomposition | None = None) -> CaterpillarAnalysis:
    """G minus the union of its 2-blocks: a forest whose edges are the bridges."""
    if d is None:
        d = decompose(g)
    union_edges = set()
    union_vertices = set()
    for b in d.two_blocks():
        union_edges |= b.edges
        union_vertices |= b.vertices
    h = Graph(frozenset(union_vertices), frozenset(union_edges))
    p0 = g.subtract(h)
    comps = []
    for comp in p0.components():
        sub = p0.subgraph(comp)
        cat = is_caterpillar(sub)
        spine = None
        if cat and sub.n >= 3:
            spine = tuple(longest_spine(sub))
        comps.append(P0Component(comp, sub.edges, cat, spine))
    return CaterpillarAnalysis(p0, tuple(comps))
