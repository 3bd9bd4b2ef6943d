"""Graphs with a prescribed block-cutvertex tree and a non-hamiltonian square.

A structurally-risky verdict never claims the input graph itself fails; it
claims the block-cutvertex tree admits a failing instance. This module
produces such instances from the verdict's condition, case, block and
cutvertex and from the decomposition. The offending 2-blocks are exchanged
for small canonical replacements while every cutvertex keeps its
identifier, so the block-cutvertex tree is preserved up to isomorphism:

* a block with five or more cutvertices (condition 5, case a) becomes
  K_{2,k} with the k cutvertices on the 2-valent side,
* a block of three or four cutvertices, one of them heavy (case b),
  becomes the cycle on its cutvertices,
* a block squeezed by two heavy cutvertices (case c) becomes K_{2,3} with
  those two cutvertices on 2-valent vertices,
* around a cutvertex whose demand sum cannot reach 2k + bn - 2
  (condition 6), every 2-block with two or more cutvertices becomes the
  cycle on its cutvertices (C_3 for two),
* for hamiltonian connectedness, a block with more than two cutvertices
  becomes the cycle on exactly those cutvertices.
"""

from __future__ import annotations

from .graph import Graph, edge
from .decomposition import Decomposition, decompose, bc_canonical
from .labelling import decide_hamiltonicity, STRUCTURALLY_RISKY
from .hamconn import decide_hamiltonian_connectedness


def _exchange(g: Graph, d: Decomposition, bipartite: dict[int, bool]) -> Graph:
    """g with each named 2-block exchanged, keeping the block-cutvertex tree.

    The cutvertices of block t, padded with fresh vertices to three, become
    the side of K_{2,k} with two fresh hubs when bipartite[t], else a cycle.
    """
    removed = set()
    for t in bipartite:
        removed |= d.records[t][2]
    new_edges = [e for e in g.sorted_edges() if e not in removed]
    fresh = max(g.vertices) + 1
    for t in sorted(bipartite):
        hubs = (fresh, fresh + 1) if bipartite[t] else ()
        side = list(d.cuts_of[t])
        fresh += len(hubs)
        while len(side) < 3:
            side.append(fresh)
            fresh += 1
        if hubs:
            new_edges += [edge(h, s) for h in hubs for s in side]
        else:
            new_edges += [edge(side[j - 1], side[j]) for j in range(len(side))]
    out = Graph.from_edges(new_edges)
    if bc_canonical(d) != bc_canonical(decompose(out)):
        raise RuntimeError("substitution changed the block-cutvertex tree")
    return out


def counterexample_for(g: Graph, condition) -> Graph:
    """A graph bc-isomorphic to g realizing the requested failure.

    condition 4: g must already have a vertex with three or more nontrivial
    bridges; any graph with that block-cutvertex tree fails, so a relabelled
    copy is returned. Conditions 5 and 6 require the decision procedure to
    flag that exact condition; "hc" requires the connectedness procedure to
    flag a block with more than two cutvertices.
    """
    if condition not in (4, 5, 6, "hc"):
        raise ValueError(f"condition must be 4, 5, 6 or 'hc', not {condition!r}")
    d = decompose(g)
    if condition == 4:
        if max(d.bn.values(), default=0) < 3:
            raise ValueError(
                "graph has no vertex with three nontrivial bridges")
        mapping = {v: j for j, v in enumerate(g.sorted_vertices())}
        return g.relabelled(mapping)
    if condition == "hc":
        verdict = decide_hamiltonian_connectedness(g)
        if verdict.outcome != STRUCTURALLY_RISKY:
            raise ValueError(
                "connectedness procedure does not flag this graph "
                f"(got {verdict.outcome})")
        return _exchange(g, d, {verdict.risky_block: False})
    verdict = decide_hamiltonicity(g)
    if (verdict.outcome != STRUCTURALLY_RISKY
            or verdict.violated_condition != condition):
        raise ValueError(
            f"decision procedure does not flag condition {condition} "
            f"on this graph (got {verdict.outcome})")
    if condition == 5:
        # case b calls for a cycle, cases a and c for K_{2,k}
        return _exchange(g, d, {verdict.risky_block: verdict.risky_case != "b"})
    return _exchange(g, d, {t: False
                            for t in d.blocks_at[verdict.risky_cutvertex]
                            if len(d.records[t]) > 2
                            and len(d.cuts_of[t]) >= 2})
