"""Independent checks of hamsquare's answers.

Everything here is computed from the input edge list with networkx and
plain Python; nothing comes from hamsquare, so a fault in the program cannot
hide itself in its own check. No check builds the square of a graph: square
adjacency is tested pairwise as "adjacent, or sharing a neighbour".

Each check returns None when the answer holds, else a one-line reason.
"""

from __future__ import annotations

import json
from pathlib import Path

import networkx as nx

HAM, NOT_HAM, RISKY = "HAMILTONIAN", "NOT_HAMILTONIAN", "STRUCTURALLY_RISKY"
HC, NOT_HC = "HAM_CONNECTED", "NOT_HAM_CONNECTED"

# Exit codes of the documented command-line contract (README.md of the
# package): 0 positive or success, 1 definite negative, 2 structurally risky.
EXIT_CODES = {HAM: 0, HC: 0, NOT_HAM: 1, NOT_HC: 1, RISKY: 2}


def parse_edges(text: str) -> list[tuple[int, int]]:
    return [(int(u), int(v)) for u, v in
            (line.split() for line in text.splitlines() if line.strip())]


class Structure:
    """The facts about one input graph that the verdicts must agree with."""

    def __init__(self, text: str):
        g = nx.Graph(parse_edges(text))
        self.n = g.number_of_nodes()
        self.m = g.number_of_edges()
        self.adj = {v: frozenset(g[v]) for v in g}
        deg = dict(g.degree())
        self.nontrivial = [e for e in nx.bridges(g)
                           if deg[e[0]] >= 2 and deg[e[1]] >= 2]
        bn = {}
        for u, v in self.nontrivial:
            bn[u] = bn.get(u, 0) + 1
            bn[v] = bn.get(v, 0) + 1
        # some vertex meets at least three nontrivial bridges
        self.heavy = any(c >= 3 for c in bn.values())
        cuts = set(nx.articulation_points(g))
        blocks = list(nx.biconnected_components(g))
        self.blocks = len(blocks)
        self.cutvertices = len(cuts)
        self.overloaded = any(len(b & cuts) > 2 for b in blocks)

    def hc_outcome(self) -> str:
        """The paper's two global facts: a nontrivial bridge rules hamiltonian
        connectedness out; a block with more than two cutvertices is risky."""
        if self.nontrivial:
            return NOT_HC
        return RISKY if self.overloaded else HC

    def square_adjacent(self, u: int, v: int) -> bool:
        au, av = self.adj[u], self.adj[v]
        return v in au or not au.isdisjoint(av)


def check_cycle(s: Structure, order) -> str | None:
    """A hamiltonian cycle of the square: every vertex once, consecutive
    vertices (wrapping around) adjacent or sharing a neighbour."""
    if len(order) != s.n or set(order) != s.adj.keys():
        return f"cycle visits {len(set(order))} of {s.n} vertices " \
               f"in {len(order)} steps"
    for a, b in zip(order, order[1:] + order[:1]):
        if not s.square_adjacent(a, b):
            return f"cycle step {a}-{b} is not an edge of the square"
    return None


def check_path(s: Structure, order, x: int, y: int) -> str | None:
    """A hamiltonian path of the square that ends at the requested pair."""
    if len(order) != s.n or set(order) != s.adj.keys():
        return f"path visits {len(set(order))} of {s.n} vertices " \
               f"in {len(order)} steps"
    if {order[0], order[-1]} != {x, y}:
        return f"path runs {order[0]}..{order[-1]}, asked for {x}..{y}"
    for a, b in zip(order, order[1:]):
        if not s.square_adjacent(a, b):
            return f"path step {a}-{b} is not an edge of the square"
    return None


def check_ham_outcome(s: Structure, outcome: str, expected: str) -> str | None:
    """NOT_HAMILTONIAN exactly when some vertex meets three nontrivial
    bridges, and the outcome the case's construction fixes."""
    if (outcome == NOT_HAM) != s.heavy:
        return f"check-ham said {outcome}, three heavy bridges at one " \
               f"vertex: {s.heavy}"
    if outcome != expected:
        return f"check-ham said {outcome}, the family gives {expected}"
    return None


def check_hc_outcome(s: Structure, outcome: str, expected: str) -> str | None:
    if outcome != s.hc_outcome():
        return f"check-hc said {outcome}, the structure gives {s.hc_outcome()}"
    if outcome != expected:
        return f"check-hc said {outcome}, the family gives {expected}"
    return None


class PayloadChecker:
    """Checks one `hamsquare ... --json` run: the payload against the
    published schema, the input summary against networkx, the outcome and
    exit code against the contract, and any witness against the graph."""

    def __init__(self, schema_path: Path):
        import jsonschema
        schema = json.loads(schema_path.read_text())
        self.validator = jsonschema.Draft7Validator(schema)

    def check(self, s: Structure, command: str, text: str, code: int,
              expected: str) -> str | None:
        payload = json.loads(text)
        err = next(iter(self.validator.iter_errors(payload)), None)
        if err is not None:
            return f"{command} payload breaks the schema: {err.message}"
        if payload["command"] != command:
            return f"payload names command {payload['command']}"
        summary = {"vertices": s.n, "edges": s.m, "blocks": s.blocks,
                   "cutvertices": s.cutvertices}
        if payload["input"] != summary:
            return f"input summary {payload['input']} != {summary}"
        result = payload["result"]
        outcome = result["outcome"]
        if code != EXIT_CODES.get(outcome):
            return f"{command} exit code {code} for {outcome}"
        if command == "check-hc":
            return check_hc_outcome(s, outcome, expected)
        problem = check_ham_outcome(s, outcome, expected)
        if problem or command != "construct-cycle" or outcome != HAM:
            return problem
        if "witness" not in result:
            return "construct-cycle said HAMILTONIAN without a witness"
        return check_cycle(s, result["witness"])
