"""Exhaustive ground truth for hamiltonian cycles and paths under edge constraints.

The searches run on a host graph (usually the square of something) while
constraints reference a second "original" graph: a required incidence (v, c)
asks that the witness carry at least c edges at v that are edges of the
original graph, with all such designated edges globally distinct across the
demands. That single mechanism expresses every per-block property used by the
decision procedures: two original edges at one vertex, four distinct original
edges at four vertices, endpoint edges on hamiltonian paths, and so on.

Backtracking is depth first from a fixed start vertex over sorted adjacency,
so the first complete order accepted is the lexicographically least valid
one. It runs as one loop on an explicit stack, with no recursion, so the
depth of a search is bounded by memory alone and no interpreter limit is
touched. It prunes on required edge viability, degree feasibility,
connectivity, and a demand bound: a demanded vertex must still be able to
reach as many original edges as it asks for (counted one demand at a time;
distinctness across demands is settled by the matching at the leaf). Each
prune only drops subtrees that hold no valid order, so pruning never changes
which order is found, and a None result is a certificate of absence. The
connectivity prune at the root walks every vertex from the start, so a
disconnected host is turned down there, with no separate search.

The search keeps its unlaid set and each vertex's count of unlaid
neighbours as it lays and pops vertices. The root checks every vertex;
a later node rechecks only what laying one vertex changed, the degrees
at the neighbours of the vertex laid before it and the connectivity
around that vertex, and walks the whole unlaid region only when its
neighbours there are not joined among themselves. The leaf tests the
required edges by position and matches only the edges at demanded
vertices, so a search that never backtracks costs O(n + m) in all.

cycle_with and path_with are the entry points of the search. An optional
node budget, a positive count, turns a long search into an explicit
BudgetExceeded instead of a silent answer. Every search, on a host of any
size, counts one node for its root and one for each vertex it lays after
that: a path search on two vertices that finds its edge uses two.

complete_with returns their answer on a complete host without searching:
it shares the start and the leaf test with the search and tries the
orders in the search's order. The square of a 2-block on at most four
vertices is complete, so construct takes such blocks' witnesses from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .graph import Graph, edge


class BudgetExceeded(RuntimeError):
    """Search stopped after expanding the allowed number of nodes."""


@dataclass(frozen=True)
class Witness:
    order: tuple[int, ...]
    assignment: dict = field(default_factory=dict, compare=False)


def _match_incidences(witness_edges, is_orig, demands):
    """Assign globally distinct original edges, the (u, v) with is_orig(u, v),
    to the (vertex, count) demands: Kuhn matching on slots, {v: [edges]} or
    None."""
    available = sorted(e for e in witness_edges if is_orig(*e))
    slots = []
    for v, c in demands:
        slots.extend([v] * c)
    cand = [[i for i, e in enumerate(available) if s in e] for s in slots]
    match_of_edge: dict[int, int] = {}

    def try_slot(si, seen):
        for ei in cand[si]:
            if ei in seen:
                continue
            seen.add(ei)
            if ei not in match_of_edge or try_slot(match_of_edge[ei], seen):
                match_of_edge[ei] = si
                return True
        return False

    for si in range(len(slots)):
        if not try_slot(si, set()):
            return None
    out: dict[int, list] = {}
    for ei, si in match_of_edge.items():
        out.setdefault(slots[si], []).append(available[ei])
    for v in out:
        out[v].sort()
    return out


def _pick_start(demands, required, vertices, degree) -> int:
    """Where a cycle search starts: the demanded vertex that asks most, the
    least of them on a tie; else the least end of a required edge; else the
    least vertex of least degree."""
    if demands:
        return max(demands, key=lambda vc: (vc[1], -vc[0]))[0]
    if required:
        return min(x for e in required for x in e)
    return min(vertices, key=lambda v: (degree(v), v))


def _leaf(order, pos, cyclic, required, demands, is_orig) -> Witness | None:
    """The witness that the complete order makes, pos its index map, or None
    when it misses a required edge or cannot give the demands distinct
    original edges. The required edges are checked by position, and the
    matching reads only the witness edges at demanded vertices."""
    n = len(order)
    span = (1, n - 1) if cyclic else (1,)
    if any(abs(pos[a] - pos[b]) not in span for a, b in required):
        return None
    assignment = {}
    if demands:
        wedges = set()
        for v, _ in demands:
            i = pos[v]
            if i > 0 or cyclic:
                wedges.add(edge(order[i - 1], v))
            if i + 1 < n or cyclic:
                wedges.add(edge(v, order[(i + 1) % n]))
        assignment = _match_incidences(wedges, is_orig, demands)
        if assignment is None:
            return None
    return Witness(tuple(order), assignment)


class _Search:
    """One search: a cycle of host, or with ends (x, y) an x-y path."""

    def __init__(self, host: Graph, original: Graph, incidences,
                 required_edges, node_budget: int | None, ends=None):
        if node_budget is not None and node_budget < 1:
            raise ValueError(
                f"node budget must be a positive integer, got {node_budget}")
        self.ends = ends
        self.cyclic = ends is None
        self.budget = node_budget
        self.nodes = 0
        self.g = host
        self.orig = original
        self.required = frozenset(edge(*e) for e in required_edges)
        for e in self.required:
            if not host.has_edge(*e):
                raise ValueError(f"required edge {e} not in host graph")
        self.demands = tuple((v, c) for v, c in incidences if c > 0)
        for v, c in self.demands:
            if v not in host.vertices:
                raise ValueError(f"incidence vertex {v} not in host graph")

    # ---- feasibility shortcuts ------------------------------------------

    def _obviously_infeasible(self) -> bool:
        req_at: dict[int, int] = {}
        for a, b in self.required:
            req_at[a] = req_at.get(a, 0) + 1
            req_at[b] = req_at.get(b, 0) + 1
        ends = set(self.ends or ())
        for v, cnt in req_at.items():
            cap = 1 if (not self.cyclic and v in ends) else 2
            if cnt > cap:
                return True
        for v, c in self.demands:
            cap = 1 if (not self.cyclic and v in ends) else 2
            if c > cap:
                return True
            if c > len(self.orig.adj.get(v, ())):
                return True
        return False

    # ---- main search -----------------------------------------------------

    def run(self) -> Witness | None:
        g = self.g
        n = g.n
        if self.cyclic:
            if n < 3:
                return None
        else:
            x, y = self.ends
            if x == y or x not in g.vertices or y not in g.vertices:
                raise ValueError("path search needs two distinct endpoint vertices")
        if self._obviously_infeasible():
            return None

        if self.cyclic:
            self.start = _pick_start(self.demands, self.required,
                                     g.vertices, g.degree)
            self.target = None
        else:
            self.start, self.target = self.ends
        start = self.start

        # the vertices not yet laid, and each vertex's count of neighbours
        # among them
        self.adj = g.adj
        self.unlaid = set(g.vertices)
        self.unlaid.remove(start)
        self.free = {v: len(nv) - (start in nv) for v, nv in self.adj.items()}

        return self._dfs([start], {start: 0})

    # The partial order is order, with pos mapping each laid vertex to its
    # index in order. Its ends are the laid vertices that can still take a
    # witness edge: the tip order[-1] and, on a cycle, the start order[0].

    def _prune(self, order, pos) -> bool:
        adj = self.adj
        unlaid = self.unlaid
        tip = order[-1]
        # the ends are tip and s, one vertex on a path and at the root
        s = order[0] if self.cyclic else tip
        two = s != tip
        below_root = len(order) > 1
        # a cycle closes at the start from the last vertex laid, still unlaid
        if self.cyclic and below_root and unlaid and not self.free[s]:
            return True
        # unused required edges must stay addable
        for a, b in self.required:
            if a in pos and b in pos and abs(pos[a] - pos[b]) == 1:
                continue  # already laid
            if ((a in pos and a != tip and a != s)
                    or (b in pos and b != tip and b != s)):
                return True  # an end of it is closed
        # every demand must stay within reach of its vertex: an upper bound
        # on the original edges it can end up with, counted per demand
        orig = self.orig.adj
        for v, c in self.demands:
            nbrs = orig[v]
            if v in unlaid or not below_root:
                # every slot is still open, and no demand asks for more
                # slots than its vertex has
                got = len(nbrs & unlaid) + (tip in nbrs) + (two and s in nbrs)
            else:
                i = pos[v]
                got = ((i > 0 and order[i - 1] in nbrs)
                       + (i + 1 < len(order) and order[i + 1] in nbrs))
                if v == tip or v == s:
                    # the tip's next edge goes to an unlaid vertex; the
                    # cyclic start's last one comes from an unlaid vertex
                    # or from the tip
                    got += (not nbrs.isdisjoint(unlaid)
                            or (v != tip and tip in nbrs))
            if got < c:
                return True
        # every unlaid vertex needs enough open neighbours. Below the root
        # the parent passed this prune, and laying tip lowered the count
        # only at the unlaid neighbours of prev, and only if prev stopped
        # being an end
        if below_root:
            prev = order[-2]
            around = adj[prev] & unlaid
            check = () if prev == s else around
        else:
            check = unlaid
        free, target = self.free, self.target
        for v in check:
            a = adj[v]
            if free[v] + (tip in a) + (two and s in a) < (1 if v == target
                                                           else 2):
                return True
        # the unlaid region plus tip must be connected. Below the root it
        # is the parent's connected region less prev, so it stays connected
        # when prev's neighbours in it, tip and around, are joined among
        # themselves: tip is adjacent to all of around, or walks to them
        if below_root and (adj[tip].issuperset(around)
                           or self._reach(tip, around) > len(around)):
            return False
        return self._reach(tip, unlaid) <= len(unlaid)

    def _reach(self, tip, within) -> int:
        """How many vertices tip reaches through vertices of within, tip
        included."""
        adj = self.adj
        seen = {tip}
        stack = [tip]
        while stack:
            new = adj[stack.pop()] & within
            new -= seen
            seen |= new
            stack.extend(new)
        return len(seen)

    def _dfs(self, order, pos) -> Witness | None:
        adj, unlaid, free = self.adj, self.unlaid, self.free
        # one iterator of untried candidates per expanded laid vertex
        untried = []
        while True:
            # enter the node that order makes
            self.nodes += 1
            if self.budget is not None and self.nodes > self.budget:
                raise BudgetExceeded(f"search exceeded {self.budget} nodes")
            tip = order[-1]
            if len(order) == len(adj):
                closed = self.start in adj[tip] if self.cyclic else tip == self.target
                res = closed and _leaf(order, pos, self.cyclic, self.required,
                                       self.demands, self.orig.has_edge)
                if res:
                    return res
            elif tip != self.target and not self._prune(order, pos):
                untried.append(iter(sorted(adj[tip] & unlaid)))
            # back up to the deepest laid vertex with a candidate left,
            # popping every vertex that is not expanded or has none
            while True:
                if len(order) > len(untried):
                    if not untried:
                        return None  # the root is done
                    w = order.pop()
                    del pos[w]
                    unlaid.add(w)
                    for u in adj[w]:
                        free[u] += 1
                w = next(untried[-1], None)
                if w is not None:
                    break
                untried.pop()
            pos[w] = len(order)
            order.append(w)
            unlaid.remove(w)
            for u in adj[w]:
                free[u] -= 1


def cycle_with(host: Graph, original: Graph,
               incidences=(), required_edges=(),
               node_budget: int | None = None) -> Witness | None:
    """A hamiltonian cycle of host through every required edge with, for
    each incidence (v, c), c original edges at v, all distinct; or None."""
    return _Search(host, original, incidences, required_edges,
                   node_budget).run()


def path_with(host: Graph, original: Graph, x: int, y: int,
              incidences=(), required_edges=(),
              node_budget: int | None = None) -> Witness | None:
    """A hamiltonian x-y path of host under the constraints of cycle_with,
    or None."""
    return _Search(host, original, incidences, required_edges,
                   node_budget, (x, y)).run()


def complete_with(n: int, original_edges, incidences=(), ends=None,
                  required_edges=()) -> Witness | None:
    """What cycle_with, or with ends (x, y) path_with, returns on the
    complete host on 0..n-1, found without a search. The square of a 2-block
    on at most four vertices is complete, so on such a block this is the
    oracle's witness, order and assignment both.

    On a complete host every vertex is a candidate at every step, and no
    prune drops an order that passes the leaf test, so the search's answer
    is the first order from its start, in lexicographic order, that passes
    that test. This tries them in that order, at most (n - 1)! for a cycle
    and (n - 2)! for a path, and builds no host. original_edges holds
    (min, max) pairs. A required edge, a demanded vertex or an end off the
    host raises the search's ValueError, as do two equal ends.
    """
    required = frozenset(edge(*e) for e in required_edges)
    for e in required:
        if not 0 <= e[0] < e[1] < n:
            raise ValueError(f"required edge {e} not in host graph")
    demands = tuple((v, c) for v, c in incidences if c > 0)
    for v, _ in demands:
        if not 0 <= v < n:
            raise ValueError(f"incidence vertex {v} not in host graph")
    if ends is not None and (ends[0] == ends[1]
                             or not all(0 <= v < n for v in ends)):
        raise ValueError("path search needs two distinct endpoint vertices")
    if ends is None:
        if n < 3:
            return None
        first = _pick_start(demands, required, range(n), lambda v: n - 1)
        last = ()
    else:
        first, last = ends[0], ends[1:]
    middle = [v for v in range(n) if v != first and v not in last]
    for rest in itertools.permutations(middle):
        order = (first, *rest, *last)
        w = _leaf(order, {v: i for i, v in enumerate(order)}, ends is None,
                  required, demands, lambda u, v: (u, v) in original_edges)
        if w is not None:
            return w
    return None
