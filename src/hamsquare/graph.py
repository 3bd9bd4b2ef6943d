"""Immutable undirected graphs on integer vertices, plus the edge-list wire format.

Vertices are arbitrary non-negative integers; edges are stored as normalized
(min, max) tuples. The text format is one edge per line ("u v"), a line with a
single token declaring an isolated vertex, with blank lines and '#' comments
ignored.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections.abc import Set
from dataclasses import dataclass, field
from typing import Iterable


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
        self._index()

    @classmethod
    def _unchecked(cls, vertices, edges, adj=None) -> "Graph":
        """A graph the library derives itself, from edges it has normalized
        on vertices it has declared: built without __post_init__'s checks.
        adj, when given, is its adjacency, built alongside the edges."""
        g = object.__new__(cls)
        g.__dict__.update(vertices=vertices, edges=edges, _adj=adj)
        if adj is None:
            g._index()
        return g

    def _index(self) -> None:
        """Each vertex's neighbourhood, a set filled edge by edge and never
        changed after: neighbors() hands out a frozen copy of it."""
        nbrs: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        object.__setattr__(self, "_adj", nbrs)

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

    def neighbors(self, v: int) -> Set[int]:
        """v's neighbourhood, read-only: a frozenset copy of the graph's own
        set, so that no caller can change the graph through it."""
        return frozenset(self._adj[v])

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

    # -- derived graphs ---------------------------------------------------

    def square(self) -> "Graph":
        """The graph on the same vertices joining pairs at distance <= 2.
        Each vertex's neighbourhood in it, N(v) and N(N(v)) less v, is
        filled in the loop that collects the edges."""
        adj = self._adj
        es = []
        sq = {}
        for v, nv in adj.items():
            near = set(nv)
            for w in nv:
                near |= adj[w]
            near.discard(v)
            sq[v] = frozenset(near)
            es += [(v, w) for w in near if v < w]
        return Graph._unchecked(self.vertices, frozenset(es), sq)

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


# the form edge_list_text writes for a graph with no isolated vertex
_CANONICAL = re.compile(r"(?:[0-9]+ [0-9]+\n)*")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; raises GraphParseError with line numbers.

    Text in edge_list_text's own form, ASCII-digit "u v" lines with u < v
    each ended by a newline, is converted in bulk; anything else, and a
    token too long for int(), goes to the per-line parser, which gives the
    same graph or the error with its line number.
    """
    if _CANONICAL.fullmatch(text):
        try:
            nums = list(map(int, text.split()))
        except ValueError:  # a token past int()'s digit limit
            return _parse_lines(text)
        us, vs = nums[0::2], nums[1::2]
        if all(map(operator.lt, us, vs)):
            # unchecked: digits make non-negative vertices, u < v a
            # normalized edge
            return Graph._unchecked(frozenset(nums), frozenset(zip(us, vs)))
    return _parse_lines(text)


def _parse_lines(text: str) -> Graph:
    """The edge-list format line by line, every check made on its line."""
    edges: set[tuple[int, int]] = set()
    isolated: set[int] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) == 1:
            try:
                x = int(tokens[0])
            except ValueError:
                raise GraphParseError(f"bad vertex token {tokens[0]!r}", line_no)
            if x < 0:
                raise GraphParseError("vertices must be non-negative", line_no)
            isolated.add(x)
        elif len(tokens) == 2:
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise GraphParseError(f"bad edge tokens {line!r}", line_no)
            if u < 0 or v < 0:
                raise GraphParseError("vertices must be non-negative", line_no)
            if u == v:
                raise GraphParseError(f"self-loop at vertex {u}", line_no)
            edges.add((u, v) if u < v else (v, u))
        else:
            raise GraphParseError(
                f"expected 1 or 2 tokens, got {len(tokens)}", line_no)
    # unchecked: every check of __post_init__ is made above
    ends = itertools.chain.from_iterable(edges)
    return Graph._unchecked(frozenset(itertools.chain(ends, isolated)),
                            frozenset(edges))


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
    n = g.n
    if n < 3 or len(order) != n or set(order) != g.vertices:
        return False
    adjacent = g.square_has_edge if square else g.has_edge
    return all(map(adjacent, order, [*order[1:], order[0]]))


def is_ham_path(g: Graph, order: list[int],
                x: int | None = None, y: int | None = None,
                square: bool = False) -> bool:
    """True iff order is a hamiltonian path of g whose ends are x and y.

    When x or y is given the path must start at x and end at y (either
    orientation is accepted). With square=True the path is checked against
    g's square, which is not built.
    """
    if len(order) != g.n or set(order) != g.vertices:
        return False
    adjacent = g.square_has_edge if square else g.has_edge
    if not all(map(adjacent, order, order[1:])):
        return False
    if x is None and y is None:
        return True
    ends = (order[0], order[-1])
    forward = (x is None or ends[0] == x) and (y is None or ends[1] == y)
    backward = (x is None or ends[1] == x) and (y is None or ends[0] == y)
    return forward or backward
