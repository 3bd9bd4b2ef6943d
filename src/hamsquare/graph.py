"""Immutable undirected graphs on integer vertices, plus the edge-list wire format.

Vertices are arbitrary non-negative integers; edges are stored as normalized
(min, max) tuples. The text format is one edge per line ("u v"), a line with a
single token declaring an isolated vertex, with blank lines and '#' comments
ignored.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class GraphParseError(ValueError):
    """Raised for malformed edge-list input; includes a 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def edge(u: int, v: int) -> tuple[int, int]:
    """Normalize an edge to (min, max) form. Self-loops are rejected."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u} not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph.

    Hashable and comparable by vertex and edge sets alone; the adjacency map
    is a cached derived structure.
    """

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]
    _adj: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for u, v in self.edges:
            if u >= v:
                raise ValueError(f"edge ({u}, {v}) not normalized")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u}, {v}) uses undeclared vertex")
        for x in self.vertices:
            if not isinstance(x, int) or x < 0:
                raise ValueError(f"vertex {x!r} is not a non-negative integer")
        adj: dict[int, frozenset[int]] = {}
        nbrs: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        for v in self.vertices:
            adj[v] = frozenset(nbrs[v])
        object.__setattr__(self, "_adj", adj)

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_edges(edges: Iterable[tuple[int, int]],
                   isolated: Iterable[int] = ()) -> "Graph":
        es = frozenset(edge(u, v) for u, v in edges)
        vs = frozenset(itertools.chain((x for e in es for x in e), isolated))
        return Graph(vs, es)

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return edge(u, v) in self.edges

    def square_has_edge(self, u: int, v: int) -> bool:
        """True iff u and v are adjacent in the square, which is not built."""
        if u == v:
            return False
        nu = self._adj[u]
        return v in nu or not nu.isdisjoint(self._adj[v])

    def sorted_vertices(self) -> list[int]:
        return sorted(self.vertices)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    # -- traversal --------------------------------------------------------

    def components(self) -> list[frozenset[int]]:
        """Connected components, each a vertex set, ordered by min vertex."""
        seen: set[int] = set()
        comps = []
        for start in self.sorted_vertices():
            if start in seen:
                continue
            comp = {start}
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for y in self._adj[x]:
                    if y not in comp:
                        comp.add(y)
                        queue.append(y)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        return len(self.components()) == 1

    def distances_from(self, source: int) -> dict[int, int]:
        """BFS distances from source to every reachable vertex."""
        dist = {source: 0}
        queue = deque([source])
        while queue:
            x = queue.popleft()
            for y in self._adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist

    def shortest_path(self, source: int, target: int) -> list[int] | None:
        """One shortest path as a vertex list, or None if unreachable.

        Deterministic: BFS explores neighbours in sorted order.
        """
        if source == target:
            return [source]
        parent: dict[int, int] = {source: source}
        queue = deque([source])
        while queue:
            x = queue.popleft()
            for y in sorted(self._adj[x]):
                if y in parent:
                    continue
                parent[y] = x
                if y == target:
                    path = [y]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    return path[::-1]
                queue.append(y)
        return None

    # -- derived graphs ---------------------------------------------------

    def square(self) -> "Graph":
        """The graph on the same vertices joining pairs at distance <= 2."""
        es = set(self.edges)
        for v in self.vertices:
            nb = sorted(self._adj[v])
            for a, b in itertools.combinations(nb, 2):
                es.add(edge(a, b))
        return Graph(self.vertices, frozenset(es))

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        ks = frozenset(keep)
        if not ks <= self.vertices:
            raise ValueError("subgraph vertices not in graph")
        es = frozenset(e for e in self.edges if e[0] in ks and e[1] in ks)
        return Graph(ks, es)

    def subtract(self, other: "Graph") -> "Graph":
        """Remove other's edges; drop its vertices whose full degree lived there.

        A vertex v of `other` is deleted exactly when every edge of self at v
        is an edge of other; remaining vertices stay, possibly isolated.
        """
        es = self.edges - other.edges
        drop = set()
        for v in other.vertices & self.vertices:
            if all(edge(v, w) in other.edges for w in self._adj[v]):
                drop.add(v)
        return Graph(self.vertices - drop,
                     frozenset(e for e in es if e[0] not in drop and e[1] not in drop))

    def relabelled(self, mapping: dict[int, int]) -> "Graph":
        """Apply an injective vertex relabelling."""
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("relabelling is not injective")
        vs = frozenset(mapping[v] for v in self.vertices)
        es = frozenset(edge(mapping[u], mapping[v]) for u, v in self.edges)
        return Graph(vs, es)

    # -- wire formats -----------------------------------------------------

    def edge_list_text(self) -> str:
        lines = [f"{u} {v}" for u, v in self.sorted_edges()]
        isolated = sorted(v for v in self.vertices if not self._adj[v])
        lines.extend(str(v) for v in isolated)
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dot(self, highlight: Iterable[tuple[int, int]] = ()) -> str:
        """Graphviz source; highlighted edges are drawn bold red."""
        hl = {edge(u, v) for u, v in highlight}
        out = ["graph G {"]
        for v in self.sorted_vertices():
            out.append(f"  {v};")
        for u, v in self.sorted_edges():
            if (u, v) in hl:
                out.append(f"  {u} -- {v} [color=red, penwidth=2.0];")
            else:
                out.append(f"  {u} -- {v};")
        out.append("}")
        return "\n".join(out) + "\n"


def edge_list_text(g: Graph) -> str:
    return g.edge_list_text()


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; raises GraphParseError with line numbers."""
    edges: set[tuple[int, int]] = set()
    isolated: set[int] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) == 1:
            try:
                isolated.add(int(tokens[0]))
            except ValueError:
                raise GraphParseError(f"bad vertex token {tokens[0]!r}", line_no)
            if int(tokens[0]) < 0:
                raise GraphParseError("vertices must be non-negative", line_no)
        elif len(tokens) == 2:
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise GraphParseError(f"bad edge tokens {line!r}", line_no)
            if u < 0 or v < 0:
                raise GraphParseError("vertices must be non-negative", line_no)
            if u == v:
                raise GraphParseError(f"self-loop at vertex {u}", line_no)
            edges.add(edge(u, v))
        else:
            raise GraphParseError(
                f"expected 1 or 2 tokens, got {len(tokens)}", line_no)
    return Graph.from_edges(edges, isolated)


# -- standard builders ----------------------------------------------------

def path_graph(n: int) -> Graph:
    """P_n on vertices 0..n-1."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)], isolated=[0])


def cycle_graph(n: int) -> Graph:
    """C_n on vertices 0..n-1."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph.from_edges([(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    """K_n on vertices 0..n-1."""
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph.from_edges(itertools.combinations(range(n), 2),
                            isolated=range(n))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: part A = 0..a-1, part B = a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError("both parts need at least one vertex")
    return Graph.from_edges((i, a + j) for i in range(a) for j in range(b))


def cycle_edges(order: list[int]) -> list[tuple[int, int]]:
    """The edge set of the closed walk order[0] .. order[-1] order[0]."""
    return [edge(order[i], order[(i + 1) % len(order)])
            for i in range(len(order))]


def path_edges(order: list[int]) -> list[tuple[int, int]]:
    """The edge set of the open walk along order."""
    return [edge(order[i], order[i + 1]) for i in range(len(order) - 1)]


def is_ham_cycle(g: Graph, order: list[int], square: bool = False) -> bool:
    """True iff order is a hamiltonian cycle of g (each vertex once, edges present).

    With square=True the cycle is checked against g's square, which is not
    built: see Graph.square_has_edge.
    """
    if g.n < 3 or len(order) != g.n or set(order) != set(g.vertices):
        return False
    adjacent = g.square_has_edge if square else g.has_edge
    return all(adjacent(order[i], order[(i + 1) % g.n])
               for i in range(g.n))


def is_ham_path(g: Graph, order: list[int],
                x: int | None = None, y: int | None = None,
                square: bool = False) -> bool:
    """True iff order is a hamiltonian path of g whose ends are x and y.

    When x or y is given the path must start at x and end at y (either
    orientation is accepted). With square=True the path is checked against
    g's square, which is not built.
    """
    if len(order) != g.n or set(order) != set(g.vertices):
        return False
    adjacent = g.square_has_edge if square else g.has_edge
    if not all(adjacent(order[i], order[i + 1]) for i in range(g.n - 1)):
        return False
    if x is None and y is None:
        return True
    ends = (order[0], order[-1])
    forward = (x is None or ends[0] == x) and (y is None or ends[1] == y)
    backward = (x is None or ends[1] == x) and (y is None or ends[0] == y)
    return forward or backward
