"""Immutable undirected graphs on integer vertices, plus the edge-list wire format.

Vertices are arbitrary non-negative integers; edges are stored once, as
adjacency. The text format is one edge per line ("u v"), a line with a single
token declaring an isolated vertex, with blank lines and '#' comments
ignored; a vertex token is ASCII digits.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from collections.abc import Set
from dataclasses import dataclass
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


def _adjacency(ends: list, isolated: Iterable[int] = ()) -> tuple:
    """The vertices and adjacency of the edges ends[0]-ends[1], ends[2]-
    ends[3], ... and the vertices isolated, checked by the caller. Equal ints
    become one object: a vertex is held once, however often it is named."""
    one = dict(zip(ends, ends))
    one.update(zip(isolated, isolated))
    adj: dict[int, set[int]] = {v: set() for v in one.values()}
    it = map(one.__getitem__, ends)
    for u, v in zip(it, it):
        adj[u].add(v)
        adj[v].add(u)
    del one, it  # freed before the vertex set is built, to lower the peak
    return frozenset(adj), adj


@dataclass(frozen=True, init=False)
class Graph:
    """A finite simple undirected graph.

    adj, read-only like the graph, maps each vertex to the set of its
    neighbours: the one stored form of the edges, from which edges is built
    on each read. Hashable and comparable by vertex and edge sets alone.
    """

    vertices: frozenset[int]
    adj: dict[int, Set[int]]

    def __init__(self, vertices: frozenset[int],
                 edges: frozenset[tuple[int, int]]):
        for u, v in edges:
            if u >= v:
                raise ValueError(f"edge ({u}, {v}) not normalized")
            if u not in vertices or v not in vertices:
                raise ValueError(f"edge ({u}, {v}) uses undeclared vertex")
        for x in vertices:
            if not isinstance(x, int) or x < 0:
                raise ValueError(f"vertex {x!r} is not a non-negative integer")
        vertices, adj = _adjacency([*itertools.chain(*edges)], vertices)
        self.__dict__.update(vertices=vertices, adj=adj)

    @classmethod
    def _unchecked(cls, vertices: frozenset[int], adj: dict) -> "Graph":
        """The graph on vertices whose adjacency is adj, which the library
        has built and checked itself: built without __init__'s checks."""
        g = object.__new__(cls)
        g.__dict__.update(vertices=vertices, adj=adj)
        return g

    def __hash__(self):
        return hash((self.vertices, self.edges))

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_edges(edges: Iterable[tuple[int, int]],
                   isolated: Iterable[int] = ()) -> "Graph":
        es = frozenset(edge(u, v) for u, v in edges)
        return Graph(frozenset(itertools.chain(*es, isolated)), es)

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @functools.cached_property
    def m(self) -> int:
        return sum(map(len, self.adj.values())) // 2

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as (min, max) pairs, built from adj on each read."""
        return frozenset([(u, v) for u, nu in self.adj.items() for v in nu
                          if u < v])

    def neighbors(self, v: int) -> Set[int]:
        """v's neighbourhood, read-only: a frozenset copy of the graph's own
        set, so that no caller can change the graph through it."""
        return frozenset(self.adj[v])

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """True iff u-v is an edge; False when u or v is no vertex."""
        return v in self.adj.get(u, ())

    def square_has_edge(self, u: int, v: int) -> bool:
        """True iff u and v are adjacent in the square, which is not built."""
        if u == v:
            return False
        nu = self.adj[u]
        return v in nu or not nu.isdisjoint(self.adj[v])

    def sorted_vertices(self) -> list[int]:
        return sorted(self.vertices)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    # -- derived graphs ---------------------------------------------------

    def square(self) -> "Graph":
        """The graph on the same vertices joining pairs at distance <= 2:
        each vertex's neighbourhood in it is N(v) and N(N(v)) less v."""
        adj = self.adj
        sq = {}
        for v, nv in adj.items():
            near = set(nv)
            for w in nv:
                near |= adj[w]
            near.discard(v)
            sq[v] = near
        return Graph._unchecked(self.vertices, sq)

    def relabelled(self, mapping: dict[int, int]) -> "Graph":
        """Apply an injective vertex relabelling."""
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("relabelling is not injective")
        pairs = [(mapping[u], mapping[v]) for u, v in self.edges]
        return Graph.from_edges(pairs, map(mapping.__getitem__, self.vertices))

    # -- wire formats -----------------------------------------------------

    def edge_list_text(self) -> str:
        lines = [f"{u} {v}" for u, v in self.sorted_edges()]
        isolated = sorted(v for v in self.vertices if not self.adj[v])
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
        it = iter(nums)
        if all(map(operator.lt, it, it)):
            # unchecked: digits make non-negative vertices, u < v no loop
            return Graph._unchecked(*_adjacency(nums))
    return _parse_lines(text)


def _parse_lines(text: str) -> Graph:
    """The edge-list format line by line, every check made on its line."""
    ends: list[int] = []
    isolated: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) > 2:
            raise GraphParseError(
                f"expected 1 or 2 tokens, got {len(tokens)}", line_no)
        try:  # ASCII digits; a signed token is read to name its error
            nums = [int(t) for t in tokens
                    if t.isascii() and t.lstrip("-").isdigit()]
        except ValueError:  # "--1", or a token past int()'s digit limit
            nums = []
        if len(nums) < len(tokens):
            raise GraphParseError(
                f"bad vertex token {tokens[0]!r}" if len(tokens) == 1
                else f"bad edge tokens {line!r}", line_no)
        if "-" in line:
            raise GraphParseError("vertices must be non-negative", line_no)
        if len(nums) == 1:
            isolated += nums
        elif nums[0] == nums[1]:
            raise GraphParseError(f"self-loop at vertex {nums[0]}", line_no)
        else:
            ends += nums
    # unchecked: every check of __init__ is made above
    return Graph._unchecked(*_adjacency(ends, isolated))


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
