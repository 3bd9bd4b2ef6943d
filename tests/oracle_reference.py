"""The oracle's search with every check recomputed in full, kept as a reference.

hamsquare.oracle._Search keeps its unlaid set and free degrees as it lays
vertices, rechecks below the root only what laying one vertex changes, and
matches at the leaf only the edges at demanded vertices. ReferenceSearch
replaces those three steps with the full versions: every node rebuilds the
unlaid set, counts each demand's reachable original edges with helpers of
its own, rechecks the open degree of every unlaid vertex and walks the
whole unlaid region, and every leaf builds the whole edge set of its order.
Each prune drops the same nodes either way, so the tests can require the
same order, assignment and node count from both.

ReferenceSearch also keeps the recursive depth-first search, one call per
vertex laid, where _Search runs one loop on an explicit stack: two ways of
walking the same tree of nodes. Its recursion stays within the default
recursion limit on the hosts it checks, which have at most 8 vertices.
"""

from hamsquare.graph import cycle_edges, path_edges
from hamsquare.oracle import BudgetExceeded, Witness, _match_incidences, _Search


class ReferenceSearch(_Search):
    """_Search with the full-recompute prune and the all-edges leaf check."""

    def _orig_edges_laid(self, v, order, pos) -> int:
        """Original edges at the laid vertex v along the partial order."""
        i = pos[v]
        cnt = 0
        if i > 0 and self.orig.has_edge(order[i - 1], v):
            cnt += 1
        if i + 1 < len(order) and self.orig.has_edge(v, order[i + 1]):
            cnt += 1
        return cnt

    def _orig_edges_reachable(self, v, order, pos, unlaid, ends) -> int:
        """An upper bound on the original edges v can end up with."""
        nbrs = self.orig.neighbors(v)
        if v in unlaid or len(order) == 1:
            # v unlaid, or the lone start: every slot is still open
            slots = 1 if not self.cyclic and v in (self.start, self.target) else 2
            return min(slots, len(nbrs & unlaid) + len(nbrs & ends))
        has = self._orig_edges_laid(v, order, pos)
        if v not in ends:
            return has
        # the tip's next edge goes to an unlaid vertex; the cyclic start's
        # last one comes from an unlaid vertex or from the tip
        tip = order[-1]
        return has + (not nbrs.isdisjoint(unlaid) or (v != tip and tip in nbrs))

    def _prune(self, order, pos) -> bool:
        g = self.g
        tip = order[-1]
        unlaid = g.vertices.difference(pos)
        ends = {order[0], tip} if self.cyclic else {tip}
        # a cycle closes at the start from the last vertex laid, still unlaid
        if (self.cyclic and len(order) > 1 and unlaid
                and g.neighbors(order[0]).isdisjoint(unlaid)):
            return True
        # unused required edges must stay addable
        for a, b in self.required:
            if a in pos and b in pos and abs(pos[a] - pos[b]) == 1:
                continue  # already laid
            if (a in pos and a not in ends) or (b in pos and b not in ends):
                return True  # an end of it is closed
        # every demand must stay within reach of its vertex
        for v, c in self.demands:
            if self._orig_edges_reachable(v, order, pos, unlaid, ends) < c:
                return True
        # every unvisited vertex needs enough open neighbors
        for v in unlaid:
            nbrs = g.neighbors(v)
            need = 1 if not self.cyclic and v == self.target else 2
            if len(nbrs & unlaid) + len(nbrs & ends) < need:
                return True
        # connectivity of the unexplored region plus the tip
        rest = unlaid | {tip}
        seen = {tip}
        stack = [tip]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in rest and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen != rest

    def _finish(self, order) -> Witness | None:
        order = tuple(order)
        wedges = cycle_edges(order) if self.cyclic else path_edges(order)
        if not self.required.issubset(wedges):
            return None
        assignment = {}
        if self.demands:
            assignment = _match_incidences(wedges, self.orig.has_edge,
                                           self.demands)
            if assignment is None:
                return None
        return Witness(order, assignment)

    def _dfs(self, order, pos) -> Witness | None:
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExceeded(f"search exceeded {self.budget} nodes")
        g = self.g
        n = g.n
        tip = order[-1]
        if len(order) == n:
            if self.cyclic:
                if self.start in g.neighbors(tip):
                    return self._finish(order)
                return None
            if tip == self.target:
                return self._finish(order)
            return None
        if not self.cyclic and tip == self.target:
            return None
        if self._prune(order, pos):
            return None
        for w in sorted(g.neighbors(tip)):
            if w in pos:
                continue
            pos[w] = len(order)
            order.append(w)
            res = self._dfs(order, pos)
            if res is not None:
                return res
            order.pop()
            del pos[w]
        return None
