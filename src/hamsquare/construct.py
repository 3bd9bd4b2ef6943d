"""Building hamiltonian cycles and paths in the square of a graph.

Either constructor asks its decider first and refuses any verdict but a
positive one with NoLabellingError, which carries that verdict. The cycle
constructor works bottom up. Every 2-block gets a hamiltonian cycle of its
own square carrying, for each cutvertex i with label m_i, that many
distinct block edges at i (the oracle returns the cycle together with the
distinct-edge assignment). Every nontrivial caterpillar component of the
bridge forest gets a hamiltonian cycle of its square through dedicated
end-edges and neighbor-pair edges. All these cycles live in one CycleSet
(see caterpillars): each vertex's cycle neighbors, and an index from every
edge to the cycle holding it, kept through a union-find over cycle ids.
Then cutvertices are processed one at a time, in ascending order: each
cycle meeting the cutvertex is cut open exactly at that vertex's assigned
edges, found through the index, and the resulting fragments, plus any
pendant leaves, are chained back into a single cycle by linking fragment
ends; a lone block's cycle is left as its search found it. Every fragment
end is a neighbor of the cutvertex, so consecutive fragment ends are
adjacent in the square and any fixed chaining order works; we use ascending
block index with leaves last. A fragment is a pair (ends, cycle), and the
loop over the 2-blocks gathers each cutvertex's blocks in that order, so a
merge step takes its fragments already in chaining order and sorts nothing.
A step touches only the cutvertex's own cycle edges and the fragment ends,
and the cycle becomes a list once, at the end, so the merge runs in
O(n + m) besides the per-block oracle calls.

Cutting only at assigned edges is what makes the merge safe: the edges
assigned to different vertices are globally distinct, so processing one
cutvertex can never consume an edge that a later cutvertex still needs.
Each step checks the edges it cuts against the vertices still owed them,
and the edges it adds against the square. The final cycle is validated
from scratch, so a wrong assembly can never be returned silently; a
tree's cycle is checked once, by caterpillar_cycle, on g.adj itself. All
these checks test square adjacency pairwise; no square of the whole graph
is built.

The path constructor works top down and cuts nothing, so it keeps no
CycleSet: it records splices. A splice replaces a placeholder edge a-b,
still to be laid, by an a-b path, and is kept as that path under the key
edge(a, b), once per edge. The x-y path starts as the placeholder edge
x-y. A task (piece, a, b, t) replaces a placeholder edge a-b by a
hamiltonian a-b path of the square of the piece, whose block t holds a and
b. A piece is a handle on the block-cutvertex tree, not a set of blocks: a
dict from each of its boundary vertices (at most two, both ends of its
task) to its blocks there; at any other vertex it holds all the vertex's
blocks, so the whole graph is {}. The bc-tree path from x to y, read off
the tree rooted at y once per request, splits the graph into one part per
block of it: every cutvertex on it separates x from y, so the path
crosses the parts in turn, and the first splice is x, those cutvertices,
y. A task lays a path of its block with a designated block edge c-p at
each cutvertex c of the block. The part hanging there, {c: the other
blocks at c}, enters through that edge: c, fn, p take its place, fn the
least neighbour of c in the part, and the part is the task of the edge
c-fn. Those blocks are kept ordered by fn, so the next part hanging at c
drops the first in O(1), and pendant leaves at c go in as one splice. When
both endpoints are the block's two cutvertices the designated edge may not
exist at the far end y; a path through an edge u-v between two neighbours
of y is used instead, and the part hanging at y goes in between u and v as
a cycle through y opened up at y, merged in a CycleSet of its own. Once no
task is left, the splices are expanded once, from x-y down, on an explicit
stack, each read backwards when it is met from its b end; a splice the
expansion never meets is an error. Nothing recurses, and besides the block
searches a path costs O(n + m) and one sort of the blocks at each
cutvertex.

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
from .caterpillars import ConstructionError, CycleSet, caterpillar_cycle
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


# -- the merge -------------------------------------------------------------

def _opened(cs: CycleSet, i: int, c: int, es, cycles) -> tuple:
    """The ends, ascending, of cycle c with i taken out at its two edges es
    at i, whose cycles are cycles. Only es are read, so no other edge at i
    is visited."""
    if (len(set(es)) != 2 or i not in es[0] or i not in es[1]
            or cycles[0] != c or cycles[1] != c):
        cut = [edge(i, w) for w in cs.around(i, c)]
        raise ConstructionError(
            f"cycle edges {sorted(cut)} at {i} differ from the assigned "
            f"{sorted(es)}")
    a, b = _partner(es[0], i), _partner(es[1], i)
    return (a, b) if a < b else (b, a)


def _merge_at(cs: CycleSet, g: Graph, i: int, pair: list, anchs: list,
              rest: list) -> tuple:
    """Cut the fragments' cycles open and chain them into one cycle through i.

    A fragment is (ends, cycle): a path between its ends, cut from cycle,
    or from none (None). The three lists are each in chaining order:
    - pair: the saturated pair edge at i, if any, cut with i kept inside;
    - anchs: each cut at its edge i-w, ends (i, w); with cycle None, a K2
      end edge i-w, which comes along as it is;
    - rest: the open fragments, each cycle with i taken out at its two
      edges at i, then the leaves of i, ends (leaf, leaf).
    Returns the merged cycle's first and last vertex (it reads from the
    first away from the last) and the edges the step removed for good.
    """
    consumed = [c for _, c in (*pair, *anchs, *rest) if c is not None]
    removed = [e for e, _ in pair]
    removed += [edge(i, w) for (_, w), c in anchs if c is not None]
    for (a, b), c in rest:
        if c is not None:
            removed += (edge(i, a), edge(i, b))
    if len(set(consumed)) != len(consumed):
        raise ConstructionError(
            f"two fragments at {i} came from one cycle; they should only "
            f"meet when {i} itself is merged")
    if (pair and anchs) or len(anchs) > 2:
        raise ConstructionError(
            f"fragment mix at {i} not realizable: {len(pair)} saturated, "
            f"{len(anchs)} anchored")
    if pair:
        segs = [pair[0][0]]
    elif len(anchs) == 2:
        segs = [(anchs[0][0][1], anchs[1][0][1])]  # joined at i
    elif anchs:
        segs = [anchs[0][0]]
    else:
        segs = [(i, i)]
    segs += [ends for ends, _ in rest]
    joins = [(a, b) for (_, a), (b, _) in zip(segs, segs[1:] + segs[:1])]
    for a, b in joins:
        if not g.square_has_edge(a, b):
            raise ConstructionError(f"assembled cycle uses non-edge ({a}, {b})")
    joins += [(i, w) for (_, w), c in anchs if c is None]
    for e in removed:
        cs.cut(e)
    c = cs.new_cycle(consumed)
    for a, b in joins:
        cs.link(a, b, c)
    kept = {edge(a, b) for a, b in joins}
    return segs[0][0], segs[-1][1], [e for e in removed if e not in kept]


def _merge_cycles(g: Graph, d: Decomposition, labelling: Labelling,
                  search: BlockSearch) -> list:
    records, cuts_of, bn, k = d.records, d.cuts_of, d.bn, d.k
    m = labelling.m
    cs = CycleSet()
    # each cutvertex's 2-blocks, ascending, with its assigned edges in each
    at_cut: dict[int, list] = {}
    # Every edge still owed to a cutvertex, by owner. A step can only take
    # away the edges it cuts, so only those are checked against the owners.
    owed: dict[tuple, list] = {}
    for t in d.two_idx:
        _, _, es, vs = records[t]
        cuts = cuts_of[t]
        demands = [(i, v) for i in cuts if (v := m.get((i, t), 0)) > 0]
        w = search(vs, es, demands)
        if w is None:
            raise ConstructionError(
                f"no block cycle satisfying {tuple(demands)}; the demands "
                "were expected to be feasible for any 2-block")
        cs.add(w.order)
        assignment = w.assignment
        for v, at in assignment.items():
            for e in at:
                owed.setdefault(e, []).append(v)
        for i in cuts:
            at_cut.setdefault(i, []).append((t, assignment.get(i)))

    reserved_end: dict[int, tuple] = {}
    reserved_pair: dict[int, tuple] = {}
    k2_edges: set = set()
    for nbrs, _ in d.bridge_forest:
        if not any(bn[v] for v in nbrs):
            continue  # pendant star; its leaves join as singletons later
        if len(nbrs) == 2:
            e = tuple(sorted(nbrs))
            k2_edges.add(e)
            reserved_end[e[0]] = reserved_end[e[1]] = e
            continue
        need_end = frozenset(v for v in nbrs if bn[v] == 1 and k[v] >= 1)
        need_pair = frozenset(v for v in nbrs if bn[v] == 2 and k[v] >= 1)
        order, reserved = caterpillar_cycle(nbrs, need_end, need_pair)
        cs.add(order)
        for v in need_end:
            reserved_end[v] = reserved[v]
        for v in need_pair:
            reserved_pair[v] = reserved[v]
    for v, e in (*reserved_end.items(), *reserved_pair.items()):
        owed.setdefault(e, []).append(v)

    adj = g.adj
    processed: set = set()
    # a lone block's cycle is returned as it was found
    first, last = w.order[0], w.order[-1]
    for i in sorted(at_cut):  # the cutvertices on a 2-block
        pair, anchs, rest = [], [], []
        for t, es in at_cut[i]:
            if not es:
                raise ConstructionError(
                    f"cutvertex {i} carries no assigned edges in block {t}")
            cycles = [cs.cycle_of(e) for e in es]
            c = cycles[0]
            if c is None or cycles.count(c) != len(cycles):
                raise ConstructionError(
                    f"assigned edges {es} of vertex {i} vanished before its turn")
            if len(es) == 2:
                rest.append((_opened(cs, i, c, es, cycles), c))
            elif i not in es[0]:
                raise ConstructionError(
                    f"vertex {i} is not an end of the fragment")
            else:
                anchs.append(((i, _partner(es[0], i)), c))
        if i in reserved_pair:
            e = reserved_pair[i]
            c = cs.cycle_of(e)
            if c is None:
                raise ConstructionError(f"pair edge {e} for {i} vanished")
            if i in e or not cs.around(i, c):
                raise ConstructionError(f"pair cut at {e} does not keep {i} inside")
            pair.append((e, c))
        elif i in reserved_end:
            e = reserved_end[i]
            c = cs.cycle_of(e)
            if c is None and e not in k2_edges:
                raise ConstructionError(f"end edge {e} for {i} vanished")
            if c is not None and i not in e:
                raise ConstructionError(
                    f"vertex {i} is not an end of the fragment")
            anchs.append(((i, _partner(e, i)), c))
        rest += [((leaf, leaf), None) for leaf in sorted(
            w for w in adj[i] if len(adj[w]) == 1 and w not in cs.nbrs)]

        first, last, removed = _merge_at(cs, g, i, pair, anchs, rest)
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

    if len(cs.live) != 1:
        raise ConstructionError(
            f"merging finished with {len(cs.live)} cycles instead of one")
    return cs.walk(first, last)


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

class _Run:
    """A piece's blocks at its boundary vertex c, as pairs (fn, t) from
    index i on, ordered by fn, the least neighbour of c in block t. The
    part hanging at c off the first block is the same pairs from i + 1 on."""
    __slots__ = ("pairs", "i")

    def __init__(self, pairs: list, i: int = 0):
        self.pairs, self.i = pairs, i

    def __len__(self) -> int:
        return len(self.pairs) - self.i


def _cuts(d: Decomposition, piece: dict, t: int) -> list:
    """The cutvertices of the piece in block t, ascending."""
    return [v for v in d.cuts_of[t] if v not in piece or len(piece[v]) > 1]


def _rest(d: Decomposition, piece: dict, c: int, t: int) -> _Run:
    """The run of the piece's blocks at c other than t."""
    at = piece.get(c)
    if isinstance(at, _Run):  # a hanging part is laid from its first block
        return _Run(at.pairs, at.i + 1)
    nb, records = d.graph.adj[c], d.records
    pairs = []
    for s in (d.blocks_at[c] if at is None else at):
        if s != t:
            r = records[s]
            pairs.append((min(nb.intersection(r if len(r) == 2 else r[3])), s))
    return _Run(sorted(pairs))


def _along(d: Decomposition, x: int, y: int) -> list:
    """The tasks (part, a, b, t) of the blocks t of the bc-tree path from x
    to y, in order: a and b are t's ends on the path, x, every cutvertex
    between, then y. The tree is rooted at y and walked until it reaches x.
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
    parts, a, prev = [], x, None
    while a != y:
        t = up[a]
        b = top[t]
        part = {a: tuple([s for s in at.get(a) or blocks_at[a] if s != prev])}
        if b != y:
            part[b] = (t,)
        parts.append((part, a, b, t))
        a, prev = b, t
    return parts


class _Splices:
    """An x-y path as the splices that lay it: for each edge a-b that a
    splice replaced, keyed by edge(a, b), the a-b path that replaced it. The
    path is read out once, by expand."""
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

    def expand(self, x: int, y: int) -> list:
        """The x-y path that the splices make of the edge x-y, read on an
        explicit stack of the vertices still to come; a splice met from its
        far end is read backwards. Every splice is used up, and one that
        the path never reached raises ConstructionError."""
        paths = self.paths
        path, todo = [x], [y]
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
                f"the splice of edge {next(iter(paths))} lies off the path")
        return path


def _partner(e, v):
    return e[0] if e[1] == v else e[1]


def _hang(d: Decomposition, laid_in: _Splices | CycleSet, todo: list,
          piece: dict, t: int, c: int, p: int) -> None:
    """Let the part of the piece hanging at c off block t enter through the
    block edge c-p: c, fn, p take its place, fn the least neighbour of c in
    the part, and the part's c-fn path is left as a task. The leaves of c
    at the head of the run go in with it, in one splice c, fn, lk, ..., l1,
    p: the path a task per leaf would lay. The splice goes into laid_in:
    the path's _Splices, or the CycleSet in which _cycle_with_two_edges_at
    merges its cycle."""
    run = _rest(d, piece, c, t)
    adj, pairs, i = d.graph.adj, run.pairs, run.i
    laid = [p]
    while i < len(pairs) and len(adj[pairs[i][0]]) == 1:
        laid.append(pairs[i][0])
        i += 1
    if i < len(pairs):
        fn, s = pairs[i]
        laid.append(fn)
        todo.append(({c: _Run(pairs, i)}, c, fn, s))
    laid.append(c)
    laid_in.splice(laid[::-1])


def _cycle_with_two_edges_at(d: Decomposition, run: _Run, c2: int,
                             todo: list, search: BlockSearch) -> list:
    """Hamiltonian cycle of the square of the part {c2: run} whose two
    cycle edges at c2 are edges of the graph, read from c2 towards the
    smaller of its cycle neighbours. The parts hanging off its blocks are
    left as tasks on todo, their placeholder edges on the returned cycle."""
    records, adj = d.records, d.graph.adj
    piece = {c2: run}
    cs = CycleSet()
    rest = []
    for t in sorted(s for _, s in run.pairs[run.i:]):
        r = records[t]
        if len(r) == 2:
            continue
        others = [v for v in _cuts(d, piece, t) if v != c2]
        if len(others) > 1:
            raise ConstructionError(f"block {t} has more than two cutvertices")
        demands = [(c2, 2)] + [(v, 1) for v in others]
        w = search(r[3], r[2], demands)
        if w is None:
            raise ConstructionError(
                f"no block cycle with two edges at {c2} in block {t}")
        c = cs.add(w.order)
        for yi in others:
            _hang(d, cs, todo, piece, t, yi, _partner(w.assignment[yi][0], yi))
        es = w.assignment[c2]
        rest.append((_opened(cs, c2, c, es, [cs.cycle_of(e) for e in es]), c))
    rest += [((leaf, leaf), None) for leaf, _ in run.pairs[run.i:]  # ascending
             if len(adj[leaf]) == 1]
    _merge_at(cs, d.graph, c2, [], [], rest)
    return cs.walk(c2, max(cs.nbrs[c2]))


def _rescue_through_neighbors(d: Decomposition, sp: _Splices, todo: list,
                              piece: dict, t: int, x: int, y: int,
                              search: BlockSearch) -> None:
    """Splice into sp the x-y path between the two cutvertices of block t
    when no block path carries an edge at y.

    A path through some edge u-v between two neighbours of y exists
    instead; the part hanging at y enters between u and v, in the order
    they have on the block path, as its leaf or as a cycle through y with
    y taken out, one splice over u-v. u-v may not be x's designated edge,
    which the part hanging at x takes.
    """
    # a block is an induced subgraph: y's neighbours in it are those in g
    _, _, es, vs = d.records[t]
    nbrs = sorted(d.graph.neighbors(y) & vs)
    for u, v in itertools.combinations(nbrs, 2):
        w = search(vs, es, [(x, 1)], (x, y), [(u, v)])
        if w is not None and (u, v) not in w.assignment[x]:
            break
    else:
        raise ConstructionError(
            f"neither an edge at {y} nor a neighbor-pair edge is achievable")
    sp.splice(w.order)
    _hang(d, sp, todo, piece, t, x, _partner(w.assignment[x][0], x))
    a, b = sorted((u, v), key=w.order.index)
    h = _rest(d, piece, y, t)
    fn = h.pairs[h.i][0]
    if len(h) == 1 and d.graph.degree(fn) == 1:
        insert = [fn]
    else:
        insert = _cycle_with_two_edges_at(d, h, y, todo, search)[1:]
    sp.splice([a, *insert, b])


def _lay(d: Decomposition, sp: _Splices, todo: list, search: BlockSearch,
         piece: dict, x: int, y: int, t: int) -> None:
    """Splice into sp, over the placeholder edge x-y, a hamiltonian x-y
    path of the square of the piece, whose block t holds x and y, and leave
    a task for every part that enters through a placeholder of its own."""
    r = d.records[t]
    cvs = _cuts(d, piece, t)
    if len(cvs) > 2:
        raise ConstructionError(f"block carries {len(cvs)} cutvertices; "
                                "at most two are buildable")
    if len(r) == 2:  # a bridge
        if len(cvs) == 2:
            raise ConstructionError(
                f"bridge ({cvs[0]}, {cvs[1]}) joins two cutvertices; no "
                "path between its ends exists in the square")
        for c in cvs:
            _hang(d, sp, todo, piece, t, c, _partner((x, y), c))
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
        _rescue_through_neighbors(d, sp, todo, piece, t, x, y, search)
        return
    if w is None:
        raise ConstructionError(
            f"no {x}-{y} path in the square of block {t} with a block "
            f"edge at each of {cvs}")
    sp.splice(w.order)
    for c in cvs:
        _hang(d, sp, todo, piece, t, c, _partner(w.assignment[c][0], c))


def _fill(d: Decomposition, sp: _Splices, todo: list,
          search: BlockSearch) -> None:
    """Work off the tasks (piece, a, b, t) with _lay, one at a time, each
    splicing into sp."""
    while todo:
        _lay(d, sp, todo, search, *todo.pop())


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
    _fill(d, sp, todo, BlockSearch(d))
    path = sp.expand(x, y)
    if not is_ham_path(g, path, x, y, square=True):
        raise ConstructionError("assembled sequence is not a hamiltonian path")
    return path
