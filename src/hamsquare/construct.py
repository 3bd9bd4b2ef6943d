"""Building hamiltonian cycles and paths in the square of a graph.

Either constructor asks its decider first and refuses any verdict but a
positive one with NoLabellingError, which carries that verdict. Both lay
their witness as splices. A splice replaces an edge a-b, laid or still to
be laid, by an a-b path, and is kept as that path under the key edge(a, b),
once per edge; the witness is read out once, at the end, by expanding the
splices on an explicit stack, each read backwards when it is met from its b
end, and a splice the expansion never meets is an error.

The cycle constructor walks the tree of the graph's cycles from its first
2-block. Every 2-block gets a hamiltonian cycle of its own square carrying,
for each cutvertex i with label m_i, that many distinct block edges at i
(the oracle returns the cycle together with the distinct-edge assignment),
checked right after its search: each assigned edge holds its vertex, is an
edge of the cycle and is assigned once. Every nontrivial caterpillar
component of the bridge forest gets a hamiltonian cycle of its square
through dedicated end-edges and neighbor-pair edges; a K2 component is the
two-vertex cycle of its edge. A cycle is searched when the walk first
reaches it and dropped after its last step. At each cutvertex i the cycle
the walk came from is laid already and every other cycle at i is fresh.
Each is opened at its edges at i into a fragment, and the fragments, plus
any pendant leaves, are chained into one cycle in a fixed order: the pair
edge, else the anchors joined at i, then the open fragments by ascending
block, then the leaves. Every fragment end is a neighbor of i, so
consecutive ends are adjacent in the square. The fresh fragments go in as
plain lists, in one splice over the laid cycle's edge at i, or in two over
its two edges at i when that cycle is opened there. The first 2-block's
closed order is expanded once, and read from the first vertex of the step
at the largest cutvertex away from its last; a lone block's cycle is left
as its search found it. Since the chaining at each i is fixed, the cycle
does not depend on the order of the walk. The merge runs in O(n + m)
besides the block searches.

Splicing only over assigned edges is what makes the merge safe: the edges
a block assigns to its vertices are distinct, and two blocks share no edge,
so no step splices over an edge that another step needs. Each step checks
its joins against the square. The final cycle is validated from scratch,
so a wrong assembly can never be returned silently; a tree's cycle is
checked once, by caterpillar_cycle, on g.adj itself. All these checks test
square adjacency pairwise; no square of the whole graph is built.

The path constructor works top down too. The x-y path starts as the
placeholder edge x-y. A task (runs, a, b, t) replaces a placeholder edge
a-b by a hamiltonian a-b path of the square of block t, which holds a and
b, and of the parts hanging at t's cutvertices. runs maps a cutvertex c of
t to its run, the pairs (fn, s) of the blocks s still hanging at c, fn the
least neighbour of c in s, ordered by fn; at a cutvertex missing from runs,
all its blocks but t hang there, and the task makes their run when it first
reads it. The bc-tree path from x to y, read off the tree rooted at y once
per request, splits the graph into one part per block of it: every
cutvertex on it separates x from y, so the path crosses the parts in turn,
and the first splice is x, those cutvertices, y. A task lays a path of its
block with a designated block edge c-p at each cutvertex c whose run is not
empty. The part hanging there enters through that edge: c, fn, p take its
place, and the task of the edge c-fn lays the run's next block s, with the
rest of the run hanging at c. The leaves of c ahead of s go in with it, as
one splice. A run is handed on, never copied, and each pair is taken off it
once, in O(1). When both endpoints are the block's two cutvertices the
designated edge may not exist at the far end y; a path through an edge u-v
between two neighbours of y is used instead, and the part hanging at y goes
in over u-v by one step of the cycle merge at y, with the block path as its
pair node: its blocks' cycles, each with y taken out at its two edges
there, then y's leaves. Once no task is left, the splices are expanded
once, from x-y down. Nothing recurses, and besides the block searches a
path costs O(n + m) and one sort of the blocks at each cutvertex.

Each request, one call of either constructor, makes one BlockSearch and
hands it down to every block search it runs. A block of more than four
vertices is searched in its own labels, in its own square. A block of at
most four vertices is relabelled by vertex rank and answered from a
table. That answer maps back to exactly the witness a search on the
block's own labels would find, because the oracle reads labels only
through their order: it walks sorted neighbourhoods, picks its start by
min and max, and matches the demands in their given order against the
sorted witness edges. An order-preserving relabelling therefore relabels
the witness and nothing else.

What BlockSearch keeps has two lifetimes:
- Per process, the small-block table. A block of at most four vertices
  (C3, C4, K4-e or K4) has a complete square, so the oracle's answer on
  it is complete_with's, a pure function of the rank-space key that
  needs no search and no square, and counts no nodes. The table keeps each
  key's answer for the life of the process. Its keys are finite, 11
  shapes times the demand patterns sent here, so it needs no bound: the
  cycle and an end-to-end path of a 17,501-vertex chain of C3, C4 and K4
  blocks fill 11 keys.
- Per graph, the store. A small block's rank form, and a larger block's
  Graph and square, depend on the graph only: every request on one
  decomposition shares them, so a cycle and every pair's path on one
  graph relabel each small block once and square each larger block once.
  The store sits in one module-level slot, holds its decomposition
  weakly, and the first constructor call on another decomposition
  replaces it.
Nothing is kept per request, so the searches a request runs, with their
node counts, never depend on history.
"""

from __future__ import annotations

import itertools
import weakref

from .graph import Graph, edge, is_ham_cycle, is_ham_path
from .decomposition import Decomposition, decompose
from .labelling import (Labelling, HamiltonicityVerdict, decide_hamiltonicity,
                        HAMILTONIAN)
from .caterpillars import ConstructionError, caterpillar_cycle
from .hamconn import HamConnVerdict, decide_hamiltonian_connectedness, HAM_CONNECTED
from .oracle import Witness, complete_with, cycle_with, path_with


class NoLabellingError(ValueError):
    """A constructor's refusal: verdict is its decider's, not positive
    (not HAMILTONIAN for a cycle, not HAM_CONNECTED for a path)."""

    def __init__(self, verdict: HamiltonicityVerdict | HamConnVerdict):
        super().__init__(f"decision procedure returned {verdict.outcome}; "
                         "no witness is built")
        self.verdict = verdict


class _Store:
    """The part of the block searches that depends on the graph alone:
    blocks maps a block's edge set to its rank form (its sorted labels,
    their rank map and the rank edge set) when it has at most four
    vertices, and else to its Graph and square."""
    __slots__ = ("of", "blocks")

    def __init__(self, d: Decomposition):
        self.of = weakref.ref(d)
        self.blocks: dict = {}


_store: _Store | None = None  # the store of the last decomposition searched

# complete_with's answer on each rank-space block of at most four vertices,
# keyed by the frozenset of rank pairs of the block's edges, the demands in
# their given order, the endpoints (None for a cycle) and the required
# edges, all in ranks, for the life of the process
_complete: dict = {}


def _store_of(d: Decomposition) -> _Store:
    """The store of d: the slot's, or a new one put in the slot. Returned
    from a local, so a concurrent request on another graph cannot swap it
    mid-search."""
    global _store
    store = _store
    if store is None or store.of() is not d:
        _store = store = _Store(d)
    return store


class BlockSearch:
    """The block searches of one request.

    A block of more than four vertices is searched by the oracle in its
    own labels, with the block's Graph and square from the store of d,
    taken once here and shared with every request on d. A block of at
    most four vertices is relabelled by vertex rank, its rank form kept in
    that store, and answered from the process-wide small-block table.
    Every call hands back a witness of its own.
    """

    def __init__(self, d: Decomposition):
        self._blocks = _store_of(d).blocks

    def __call__(self, vertices, edges, demands=(), ends=None,
                 required=()) -> Witness | None:
        """The search of the block (vertices, edges), in its own labels:
        a cycle, or with ends (x, y) an x-y path, of the block's square.
        vertices and edges are the block's frozensets."""
        # the oracle's functions are looked up by name at each call, so a
        # rebinding of them (as a tracer or a spy does) sees every call
        if len(vertices) > 4:
            try:
                b, sq = self._blocks[edges]
            except KeyError:
                b = Graph(vertices, edges)
                sq = b.square()
                self._blocks[edges] = b, sq
            if ends is None:
                return cycle_with(sq, b, demands, required)
            return path_with(sq, b, *ends, demands, required)
        # the block's square is complete
        try:
            label, rank, es = self._blocks[edges]
        except KeyError:
            label = sorted(vertices)
            rank = {v: i for i, v in enumerate(label)}
            es = frozenset([(rank[u], rank[v]) for u, v in edges])
            self._blocks[edges] = label, rank, es
        demands = tuple([(rank[v], c) for v, c in demands])
        if ends is not None:
            ends = (rank[ends[0]], rank[ends[1]])
        required = tuple([edge(rank[u], rank[v]) for u, v in required])
        key = (es, demands, ends, required)
        try:
            w = _complete[key]
        except KeyError:
            w = _complete[key] = complete_with(len(label), es, demands, ends,
                                               required)
        if w is None:
            return None
        return Witness(
            tuple([label[i] for i in w.order]),
            {label[v]: [(label[a], label[b]) for a, b in at]
             for v, at in w.assignment.items()})


# -- splices --------------------------------------------------------------

class _Splices:
    """A path or a cycle as the splices that lay it: for each edge a-b that
    a splice replaced, keyed by edge(a, b), the a-b path that replaced it.
    It is read out once, by expand."""
    __slots__ = ("paths",)

    def __init__(self):
        self.paths: dict = {}

    def splice(self, path) -> None:
        """Replace the edge between path's two ends by path. A path of two
        vertices is that edge and changes nothing; an edge replaced twice
        raises ConstructionError."""
        if len(path) > 2:
            e = edge(path[0], path[-1])
            if e in self.paths:
                raise ConstructionError(f"edge {e} spliced twice")
            self.paths[e] = path

    def expand(self, seq) -> list:
        """What the splices make of the walk seq, each of its edges
        expanded in turn (an x-y path is laid over (x, y), a cycle over its
        closed order), read on an explicit stack of the vertices still to
        come; a splice met from its far end is read backwards. Every splice
        is used up, and one that the walk never reached raises
        ConstructionError."""
        paths = self.paths
        path, todo = [seq[0]], list(seq[:0:-1])
        while todo:
            a, b = path[-1], todo.pop()
            p = paths.pop((a, b) if a < b else (b, a), None)
            if p is None:
                path.append(b)
            elif p[0] == a:
                todo += p[:0:-1]
            else:
                todo += p[:-1]
        if paths:
            raise ConstructionError(
                f"the splice of edge {next(iter(paths))} lies off the walk")
        return path


def _partner(e, v):
    return e[0] if e[1] == v else e[1]


# -- the merge -------------------------------------------------------------

def _check_assigned(w: Witness, t: int, demands) -> None:
    """Raise ConstructionError unless the cycle w of block t gives each
    demanded vertex v its count of edges of w's cycle at v, no edge twice."""
    order = w.order
    succ = dict(zip(order, order[1:] + order[:1]))
    seen = set()
    for v, c in demands:
        at = w.assignment.get(v, ())
        for e in at:
            a, b = e
            if v not in e or (succ.get(a) != b and succ.get(b) != a):
                raise ConstructionError(
                    f"assigned edge {e} of vertex {v} is no edge of block "
                    f"{t}'s cycle at {v}")
            if e in seen:
                raise ConstructionError(f"edge {e} is assigned twice in block {t}")
            seen.add(e)
        if len(at) != c:
            raise ConstructionError(
                f"block {t} assigns {len(at)} edges to vertex {v}, not {c}")


def _cut(order, a: int, b: int) -> list:
    """The a-b path that the closed order makes without its edge a-b."""
    k = order.index(a)
    path = [*order[k:], *order[:k]]
    return path if path[-1] == b else [a, *path[:0:-1]]


def _without(order, i: int) -> list:
    """The path that the closed order makes with i taken out, read from the
    smaller of i's two neighbours on it."""
    k = order.index(i)
    path = [*order[k + 1:], *order[:k]]
    return path if path[0] < path[-1] else path[::-1]


def _check_joins(g: Graph, ends: list) -> None:
    """Raise ConstructionError unless each fragment's last vertex is
    adjacent in the square to the next fragment's first, cyclically."""
    for (_, a), (b, _) in zip(ends, ends[1:] + ends[:1]):
        if not g.square_has_edge(a, b):
            raise ConstructionError(f"assembled cycle uses non-edge ({a}, {b})")


def _merge_at(g: Graph, sp: _Splices, held: dict, i: int, parent: int,
              blocks: list, comp: int | None, leaves: list) -> tuple:
    """Chain the cycles at cutvertex i into one cycle, as splices into sp.

    The nodes at i are its 2-blocks, ascending, and comp, its bridge-forest
    component, if any; held maps each to its closed order and its edges at
    each of its cutvertices. The node parent is laid already; every other
    node is fresh. In the path constructor's rescue route, comp and parent
    are the block path, held with its edge u-v between two neighbours of i
    as a pair node. Each comes in as a fragment, a path between its ends:
    - a pair: comp cut at its pair edge u-v, ends (u, v), i kept inside;
    - an anchor: a node cut at its one edge i-w, ends (i, w);
    - an open fragment: a 2-block with i taken out at its two edges at i,
      ends ascending;
    - a leaf of i, ends (leaf, leaf).
    The chaining order is the pair, else the anchors (the 2-blocks', then
    comp's) joined at i, then the open fragments, then the leaves. The
    fresh fragments go in as lists, around the parent's laid one, in one
    splice over the edge it is cut at; an open parent takes two, over its
    edges at i, split at i. Returns the merged cycle's first and last
    vertex (it reads from the first away from the last) and the fresh
    nodes.
    """
    pair, anchs, rest = [], [], []
    for t in blocks:
        es = held[t][1].get(i)
        if not es:
            raise ConstructionError(
                f"cutvertex {i} carries no assigned edges in block {t}")
        if len(es) == 2:
            rest.append((t, *sorted(_partner(e, i) for e in es)))
        else:
            anchs.append((t, i, _partner(es[0], i)))
    if comp is not None:
        e = held[comp][1][i]
        if i in e:
            anchs.append((comp, i, _partner(e, i)))
        else:
            pair.append((comp, *e))
    rest += [(None, leaf, leaf) for leaf in leaves]
    if (pair and anchs) or len(anchs) > 2:
        raise ConstructionError(
            f"fragment mix at {i} not realizable: {len(pair)} saturated, "
            f"{len(anchs)} anchored")
    if len(anchs) == 2:  # joined at i
        head = [(anchs[0][0], anchs[0][2], i), anchs[1]]
    else:
        head = pair or anchs or [(None, i, i)]
    ends = [(head[0][1], head[-1][2])] + [(a, b) for _, a, b in rest]
    _check_joins(g, ends)

    pieces, fresh, p = [], [], 0
    for j, (node, a, b) in enumerate(head + rest):
        if node == parent:
            p = j
            pieces.append([a, b])
        elif node is None:
            pieces.append([a])
        else:
            fresh.append(node)
            order = held[node][0]
            pieces.append(_cut(order, a, b) if j < len(head)
                          else _without(order, i))
    if len(head) == 2:  # i once, in the parent if it is an anchor
        if p == 1:
            pieces[0].pop()
        else:
            del pieces[1][0]
    a, b = pieces[p]
    around = [b]  # from the parent's far end around to its near end
    for piece in pieces[p + 1:] + pieces[:p]:
        around += piece
    around.append(a)
    if p < len(head):
        sp.splice(around)
    else:
        j = around.index(i)
        sp.splice(around[:j + 1])
        sp.splice(around[j:])
    return ends[0][0], ends[-1][1], fresh


def _block_cycle(d: Decomposition, search: BlockSearch, t: int,
                 demands: list) -> tuple:
    """The closed order of 2-block t's cycle and its edges at each vertex
    v of the demands (v, c), c of them, checked."""
    _, _, es, vs = d.records[t]
    w = search(vs, es, demands)
    if w is None:
        raise ConstructionError(
            f"no cycle of block {t} satisfying {tuple(demands)}; the "
            "demands were expected to be feasible for any 2-block")
    _check_assigned(w, t, demands)
    return w.order, w.assignment


def _merge_cycles(g: Graph, d: Decomposition, labelling: Labelling,
                  search: BlockSearch) -> list:
    cuts_of, bn, k, m = d.cuts_of, d.bn, d.k, labelling.m

    def cycle_of(t):  # 2-block t's cycle, m[(i, t)] edges at each i
        return _block_cycle(d, search, t, [
            (i, v) for i in cuts_of[t] if (v := m.get((i, t), 0)) > 0])

    at_cut: dict[int, list] = {}  # each cutvertex's 2-blocks, ascending
    for t in d.two_idx:
        for i in cuts_of[t]:
            at_cut.setdefault(i, []).append(t)
    # node -> (closed order, its edges at each of its cutvertices), from
    # its search to its last step: a 2-block by index, a component by ~j
    held: dict = {}
    comp_at: dict[int, int] = {}
    for j, nbrs in enumerate(d.bridge_forest):
        if not any(bn[v] for v in nbrs):
            continue  # pendant star; its leaves join as singletons
        if len(nbrs) == 2:  # a K2, the two-vertex cycle of its edge
            e = tuple(sorted(nbrs))
            held[~j] = e, dict.fromkeys(e, e)
        else:
            need_end = frozenset(v for v in nbrs if bn[v] == 1 and k[v] >= 1)
            need_pair = frozenset(v for v in nbrs if bn[v] == 2 and k[v] >= 1)
            held[~j] = caterpillar_cycle(nbrs, need_end, need_pair)
        for v in held[~j][1]:
            comp_at[v] = ~j

    adj = g.adj
    root = d.two_idx[0]
    order, _ = held[root] = cycle_of(root)
    # a lone block's cycle is returned as it was found
    first, last = order[0], order[-1]
    final = max(at_cut, default=None)
    sp = _Splices()
    todo = [(root, None)]  # laid nodes, each with the cutvertex it came by
    while todo:
        node, came = todo.pop()
        for i in cuts_of[node] if node >= 0 else held[node][1]:
            if i == came:
                continue
            blocks = at_cut.pop(i)
            for t in blocks:
                if t != node:
                    held[t] = cycle_of(t)
            comp = comp_at.get(i)
            leaves = [] if comp is not None else sorted(
                w for w in adj[i] if len(adj[w]) == 1)
            a, b, fresh = _merge_at(g, sp, held, i, node, blocks, comp, leaves)
            if i == final:
                first, last = a, b
            todo += [(n, i) for n in fresh]
        del held[node]
    return _laid_cycle(sp, order, first, last)


def _laid_cycle(sp: _Splices, order, first: int, last: int) -> list:
    """The cycle that the splices make of the closed order, read from first
    away from last, which must be its neighbour there."""
    cyc = sp.expand([*order, order[0]])[:-1]
    j = cyc.index(first)
    cyc = cyc[j:] + cyc[:j]
    if cyc[-1] != last:
        cyc[1:] = cyc[:0:-1]
    if cyc[-1] != last:
        raise ConstructionError(
            f"the merged cycle does not close at {first} from {last}")
    return cyc


def construct_ham_cycle(g: Graph) -> list:
    """A hamiltonian cycle of square(g), built from the labelling of
    decide_hamiltonicity(g), which must come back positive; that labelling
    satisfies the six conditions and is not checked again. The decider's
    ValueError stands for a graph of fewer than 3 vertices, and any other
    verdict raises NoLabellingError, which carries it. decompose's
    traversal of g is the connectivity check.
    """
    verdict = decide_hamiltonicity(g)
    if verdict.outcome != HAMILTONIAN:
        raise NoLabellingError(verdict)
    d = decompose(g)

    if not d.two_idx:  # a tree: caterpillar_cycle checks its cycle on g.adj
        return caterpillar_cycle(g.adj)[0]
    cyc = _merge_cycles(g, d, verdict.labelling, BlockSearch(d))
    if not is_ham_cycle(g, cyc, square=True):
        raise ConstructionError("assembled sequence is not a hamiltonian cycle")
    return cyc


# -- hamiltonian paths -----------------------------------------------------

def _run(d: Decomposition, c: int, skip) -> list:
    """The pairs (fn, s) of the blocks s at cutvertex c not in skip, fn the
    least neighbour of c in block s, by descending fn: the next part hanging
    at c is read off the end."""
    nb, records = d.graph.adj[c], d.records
    pairs = []
    for s in d.blocks_at[c]:
        if s not in skip:
            r = records[s]
            pairs.append((min(nb.intersection(r if len(r) == 2 else r[3])), s))
    pairs.sort(reverse=True)
    return pairs


def _along(d: Decomposition, x: int, y: int) -> list:
    """The tasks (runs, a, b, t) of the blocks t of the bc-tree path from x
    to y, in order: a and b are t's ends on the path, x, every cutvertex
    between, then y; runs gives a the run of its blocks off the path, and b
    an empty one unless b is y. The tree is rooted at y and walked until x.
    """
    blocks_at, cuts_of = d.blocks_at, d.cuts_of
    # an end that is no cutvertex lies in one block, found by one scan
    ends = [v for v in (x, y) if v not in blocks_at]
    at = {v: (t,) for t, r in enumerate(d.records if ends else ())
          for v in ends if v in (r if len(r) == 2 else r[3])}
    tx = at[x][0] if x in at else None
    up: dict[int, int] = {}  # vertex -> its block on the way to y
    top: dict[int, int] = {}  # block -> its vertex on the way to y
    todo = [y]
    while x not in up:
        v = todo.pop()
        for t in at.get(v) or blocks_at[v]:
            if t not in top:
                top[t] = v
                if t == tx:
                    up[x] = t
                for w in cuts_of[t]:
                    if w != v and w not in up:
                        up[w] = t
                        todo.append(w)
    tasks, a, prev = [], x, None
    while a != y:
        t = up[a]
        b = top[t]
        runs = {a: _run(d, a, (prev, t)) if a in blocks_at else []}
        if b != y:
            runs[b] = []
        tasks.append((runs, a, b, t))
        a, prev = b, t
    return tasks


def _hang(d: Decomposition, sp: _Splices, todo: list, run: list, c: int,
          p: int) -> None:
    """Let the part still hanging at c, the run, enter through the block
    edge c-p: c, fn, p take its place, fn the least neighbour of c in the
    part, and the part's c-fn path is left as a task that lays the run's
    next block s, the rest of the run hanging at c. The leaves of c ahead of
    s in the run go in with it, in one splice into sp, c, fn, lk, ..., l1,
    p: the path a task per leaf would lay."""
    adj = d.graph.adj
    laid = [p]
    while run and len(adj[run[-1][0]]) == 1:
        laid.append(run.pop()[0])
    if run:
        fn, s = run.pop()
        laid.append(fn)
        todo.append(({c: run}, c, fn, s))
    laid.append(c)
    sp.splice(laid[::-1])


def _rescue_through_neighbors(d: Decomposition, sp: _Splices, todo: list,
                              runs: dict, t: int, x: int, y: int,
                              search: BlockSearch) -> None:
    """Splice into sp the x-y path between the two cutvertices of block t
    when no block path carries an edge at y; runs[x] and runs[y] hang there,
    and a missing one is all the other blocks.

    A path through some edge u-v between two neighbours of y exists
    instead. u-v may not be x's designated edge, which the part hanging at
    x takes. The part hanging at y goes in over u-v by one merge step at y,
    the block path its pair node: the part's 2-blocks, each with two edges
    at y and one at its other cutvertex, where all its other blocks enter,
    then y's leaves.
    """
    # a block is an induced subgraph: y's neighbours in it are those in g
    _, _, es, vs = d.records[t]
    g = d.graph
    nbrs = sorted(g.neighbors(y) & vs)
    for u, v in itertools.combinations(nbrs, 2):
        w = search(vs, es, [(x, 1)], (x, y), [(u, v)])
        if w is not None and (u, v) not in w.assignment[x]:
            break
    else:
        raise ConstructionError(
            f"neither an edge at {y} nor a neighbor-pair edge is achievable")
    sp.splice(w.order)
    rx, ry = (runs[c] if c in runs else _run(d, c, (t,)) for c in (x, y))
    _hang(d, sp, todo, rx, x, _partner(w.assignment[x][0], x))
    held = {t: (w.order, {y: edge(u, v)})}
    blocks = sorted(s for _, s in ry if len(d.records[s]) > 2)
    for s in blocks:
        cs = [c for c in d.cuts_of[s] if c != y]
        held[s] = _block_cycle(d, search, s, [(y, 2)] + [(c, 1) for c in cs])
        for c in cs:
            _hang(d, sp, todo, _run(d, c, (s,)), c,
                  _partner(held[s][1][c][0], c))
    leaves = [fn for fn, _ in reversed(ry) if g.degree(fn) == 1]  # ascending
    _merge_at(g, sp, held, y, t, blocks, t, leaves)


def _lay(d: Decomposition, sp: _Splices, todo: list, search: BlockSearch,
         runs: dict, x: int, y: int, t: int) -> None:
    """Splice into sp, over the placeholder edge x-y, a hamiltonian x-y
    path of the square of block t, which holds x and y, and of the parts
    hanging at its cutvertices: runs[c] at c, or all of c's other blocks
    when c is missing from runs. Leave a task for every part that enters
    through a placeholder of its own."""
    r = d.records[t]
    for c in d.cuts_of[t]:
        if c not in runs:
            runs[c] = _run(d, c, (t,))
    cvs = [c for c in d.cuts_of[t] if runs[c]]
    if len(cvs) > 2:
        raise ConstructionError(f"block carries {len(cvs)} cutvertices; "
                                "at most two are buildable")
    if len(r) == 2:  # a bridge
        if len(cvs) == 2:
            raise ConstructionError(
                f"bridge ({cvs[0]}, {cvs[1]}) joins two cutvertices; no "
                "path between its ends exists in the square")
        for c in cvs:
            _hang(d, sp, todo, runs[c], c, _partner((x, y), c))
        return
    between_cuts = set(cvs) == {x, y}
    if between_cuts:
        demands = [(x, 1), (y, 1)]
    else:
        demands = [(c, 1) for c in cvs]
        if cvs == [x]:
            x, y = y, x  # the search starts away from the cutvertex
    w = search(r[3], r[2], demands, (x, y))
    if w is None and between_cuts:
        _rescue_through_neighbors(d, sp, todo, runs, t, x, y, search)
        return
    if w is None:
        raise ConstructionError(
            f"no {x}-{y} path in the square of block {t} with a block "
            f"edge at each of {cvs}")
    sp.splice(w.order)
    for c in cvs:
        _hang(d, sp, todo, runs[c], c, _partner(w.assignment[c][0], c))


def construct_ham_path(g: Graph, x: int, y: int) -> list:
    """A hamiltonian x-y path of square(g), built when
    decide_hamiltonian_connectedness(g) is HAM_CONNECTED; any other verdict
    raises NoLabellingError, which carries it. Endpoints that are equal or
    no vertices raise a plain ValueError. decompose's traversal of g is the
    connectivity check. The path is laid as splices over the edge x-y,
    expanded once, and validated from scratch."""
    if x == y:
        raise ValueError("endpoints must be distinct")
    if x not in g.vertices or y not in g.vertices:
        raise ValueError("endpoints must be vertices of the graph")
    d = decompose(g)
    verdict = decide_hamiltonian_connectedness(g)
    if verdict.outcome != HAM_CONNECTED:
        raise NoLabellingError(verdict)
    sp = _Splices()
    todo = _along(d, x, y)
    sp.splice([x] + [b for _, _, b, _ in todo])
    search = BlockSearch(d)
    while todo:
        _lay(d, sp, todo, search, *todo.pop())
    path = sp.expand((x, y))
    if not is_ham_path(g, path, x, y, square=True):
        raise ConstructionError("assembled sequence is not a hamiltonian path")
    return path
