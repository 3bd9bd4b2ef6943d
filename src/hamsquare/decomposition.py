"""Block-cutvertex structure of a connected graph.

Computes blocks (maximal 2-connected subgraphs and bridges) and
cutvertices in one lowpoint DFS from the least vertex, which also proves
the graph connected by reaching every vertex. Blocks are indexed in the
order of their least edge. One loop over them fills the block-cutvertex
index every other module reads: blocks_of, the blocks at each vertex, and
cuts_of, the cutvertices of each block. The counters driving the decision
procedures (bn, k, cvn), the block-cutvertex tree with its node tags, and
the bridge forest P0 left after removing all blocks with more than two
vertices are read off that index; P0 is a walk over the bridge blocks, in
O(n + m), made once per decomposition and kept on it (bridge_forest).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .graph import Graph


@dataclass(frozen=True, slots=True)
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
    blocks_of: dict[int, list[int]] = field(compare=False)  # ascending
    cuts_of: dict[int, list[int]] = field(compare=False)  # ascending

    def two_blocks(self) -> list[Block]:
        return [b for b in self.blocks if b.is_two_block]

    def bridges(self) -> list[Block]:
        return [b for b in self.blocks if b.is_bridge]

    def blocks_at(self, v: int) -> list[Block]:
        return [self.blocks[t] for t in self.blocks_of.get(v, ())]

    def endblocks(self) -> list[Block]:
        """Blocks containing at most one cutvertex (leaves of the bc-tree)."""
        return [b for b in self.blocks if self.cvn[b.index] <= 1]

    @functools.cached_property
    def bridge_forest(self) -> CaterpillarAnalysis:
        """compute_P0 of this decomposition, walked once, on first use."""
        return compute_P0(self.graph, self)


def _blocks(g: Graph):
    """The blocks as (least edge, edges, vertices), by least edge, and the
    cutvertices.

    One iterative lowpoint DFS from the least vertex over the unsorted
    adjacency; the blocks do not depend on the visiting order. Raises
    ValueError when the DFS does not reach every vertex.
    """
    adj = g._adj
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
                e = (parent, v) if parent < v else (v, parent)
                raw.append((e, (e,), e))
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
            raw.append((min(es), es, vs))
    if len(disc) != len(adj):
        raise ValueError("decompose requires a connected graph")
    if root_children >= 2:
        arts.add(root)
    raw.sort(key=lambda r: r[0])
    return raw, arts


def decompose(g: Graph) -> Decomposition:
    """Blocks, cutvertices and counters of a connected graph.

    Blocks are indexed in the order of their least edge; the index, the
    bridge classes and the counters are filled in one loop over them.
    """
    if g.n == 0:
        raise ValueError("decompose requires at least one vertex")
    raw, arts = _blocks(g)
    adj = g._adj
    cut = frozenset(arts)
    blocks = []
    trivial, nontrivial = set(), set()
    bn = dict.fromkeys(adj, 0)
    k = dict.fromkeys(adj, 0)
    blocks_of: dict[int, list[int]] = {v: [] for v in adj}
    cuts_of: dict[int, list[int]] = {}
    for idx, (e, es, vs) in enumerate(raw):
        blocks.append(Block(idx, frozenset(vs), frozenset(es)))
        for v in vs:
            blocks_of[v].append(idx)
        if len(vs) > 2:
            cuts_of[idx] = sorted(cut.intersection(vs))
            for v in vs:
                k[v] += 1
            continue
        u, v = e
        cuts_of[idx] = [x for x in e if x in cut]
        if len(adj[u]) == 1 or len(adj[v]) == 1:
            trivial.add(e)
        else:
            nontrivial.add(e)
            bn[u] += 1
            bn[v] += 1
    cvn = {t: len(cs) for t, cs in cuts_of.items()}
    return Decomposition(g, tuple(blocks), cut,
                         frozenset(trivial), frozenset(nontrivial),
                         bn, k, cvn, blocks_of, cuts_of)


def decomposition_of(g: Graph, d: Decomposition | None = None) -> Decomposition:
    """d, the caller's decomposition of g, or g decomposed when d is None."""
    if d is None:
        return decompose(g)
    if d.graph != g:
        raise ValueError("the decomposition given is not of this graph")
    return d


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
    for t, cuts in d.cuts_of.items():
        for v in cuts:
            adj[("block", t)].append(("cut", v))
            adj[("cut", v)].append(("block", t))
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
    """One tree of the bridge forest; nbrs is its adjacency across bridges."""
    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]
    is_caterpillar: bool
    nbrs: dict[int, list[int]] = field(compare=False, repr=False)

    @property
    def is_trivial(self) -> bool:
        return len(self.vertices) == 2


@dataclass(frozen=True)
class CaterpillarAnalysis:
    components: tuple[P0Component, ...]

    @functools.cached_property
    def p0(self) -> Graph:
        """The forest itself, built on first use: its components together."""
        return Graph(frozenset().union(*(c.vertices for c in self.components)),
                     frozenset().union(*(c.edges for c in self.components)))

    @property
    def all_caterpillars(self) -> bool:
        return all(c.is_caterpillar for c in self.components)


def compute_P0(g: Graph, d: Decomposition | None = None) -> CaterpillarAnalysis:
    """G minus the union of its 2-blocks: a forest whose edges are the bridges.

    Its vertices are those on a bridge, and a lone vertex on no block. The
    components are walked over the bridge blocks, by least vertex.
    """
    d = decomposition_of(g, d)
    bridge = {b.index: min(b.edges) for b in d.blocks
              if len(b.vertices) == 2}
    keep = sorted({x for e in bridge.values() for x in e}
                  | {v for v, ts in d.blocks_of.items() if not ts})
    seen: set = set()
    comps = []
    for root in keep:
        if root in seen:
            continue
        seen.add(root)
        vs, es, todo = [root], [], [root]
        nbrs = {}  # vertex -> its neighbours across bridges
        while todo:
            v = todo.pop()
            nbrs[v] = nv = []
            for t in d.blocks_of[v]:
                e = bridge.get(t)
                if e is None:
                    continue
                w = e[0] if e[1] == v else e[1]
                nv.append(w)
                if w not in seen:  # bridges form a forest: e is new
                    seen.add(w)
                    vs.append(w)
                    es.append(e)
                    todo.append(w)
        comps.append(P0Component(frozenset(vs), frozenset(es),
                                 len(vs) <= 2 or _is_caterpillar(nbrs), nbrs))
    return CaterpillarAnalysis(tuple(comps))


def _is_caterpillar(nbrs: dict[int, list[int]]) -> bool:
    """Whether the tree with these adjacency lists is a caterpillar.

    Its non-leaf vertices span a subtree, so they lie on a path exactly
    when none of them has more than two non-leaf neighbours.
    """
    return all(sum(len(nbrs[w]) >= 2 for w in nv) <= 2
               for nv in nbrs.values() if len(nv) >= 2)
