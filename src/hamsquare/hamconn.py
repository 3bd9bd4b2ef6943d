"""Deciding hamiltonian connectedness of the square.

The square of a connected graph is hamiltonian connected whenever the graph
has no nontrivial bridge and no block with more than two cutvertices. A
nontrivial bridge xy is an outright obstruction: no xy-hamiltonian path can
exist in the square. A block with three or more cutvertices is a structural
risk: replacing it by a plain cycle (keeping the block-cutvertex tree) gives
a graph whose square is not hamiltonian connected, though the given graph's
square might be.

Both facts come from one decomposition: its nontrivial bridges (a tree's
least one read off its least cutvertex) and its per-block cutvertex
counts, so the decision costs one decompose plus O(n + m). When both
obstructions are present the bridge is reported; the smallest bridge and
the lowest-indexed overloaded block are named.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph
from .decomposition import decompose
from .labelling import STRUCTURALLY_RISKY

HAM_CONNECTED = "HAM_CONNECTED"
NOT_HAM_CONNECTED = "NOT_HAM_CONNECTED"


@dataclass(frozen=True)
class HamConnVerdict:
    outcome: str
    bridge: tuple | None = None
    risky_block: int | None = None
    risky_cvn: int | None = None
    reason: str | None = None


def decide_hamiltonian_connectedness(g: Graph) -> HamConnVerdict:
    """Verdict for a connected graph on at least 2 vertices.

    decompose's traversal of g is the connectivity check.
    """
    if g.n < 2:
        raise ValueError("hamiltonian connectedness needs at least 2 vertices")
    d = decompose(g)
    if d.two_idx:
        b = min(d.nontrivial_bridges, default=None)
    elif len(cuts := d.cutvertices) > 1:
        # a tree's cutvertices span a subtree: its least bridge joins the
        # least of them to its least cutvertex neighbour
        u = min(cuts)
        b = (u, min(d.graph.adj[u] & cuts))
    else:
        b = None
    if b is not None:
        return HamConnVerdict(
            NOT_HAM_CONNECTED, bridge=b,
            reason=(f"nontrivial bridge {b}: its square has no hamiltonian "
                    f"path between {b[0]} and {b[1]}"))
    for t in d.two_idx:  # a tree reads no cuts_of
        if (cuts := len(d.cuts_of[t])) > 2:
            return HamConnVerdict(
                STRUCTURALLY_RISKY, risky_block=t, risky_cvn=cuts,
                reason=(f"block {t} carries {cuts} cutvertices; replacing "
                        "it by a cycle of that length yields a graph with "
                        "the same block-cutvertex tree whose square is not "
                        "hamiltonian connected"))
    return HamConnVerdict(HAM_CONNECTED)
