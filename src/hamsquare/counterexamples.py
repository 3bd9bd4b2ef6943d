"""Graphs with a prescribed block-cutvertex tree and a non-hamiltonian square.

A structurally-risky verdict never claims the input graph itself fails; it
claims the block-cutvertex tree admits a failing instance. This module
produces such instances. The offending blocks are exchanged for small
canonical replacements while every cutvertex keeps its identifier, so the
block-cutvertex tree is preserved up to isomorphism:

* a block whose labelling demand is five or more becomes K_{2,k} with the
  k cutvertices on the 2-valent side,
* an overloaded block with a heavy cutvertex becomes the cycle C_k,
* a block squeezed by two heavy cutvertices becomes K_{2,3} with those two
  cutvertices on 2-valent vertices,
* the blocks around a cutvertex whose demand sum cannot reach 2k + bn - 2
  become cycles (C_3 for two cutvertices, C_k for k of them),
* for hamiltonian connectedness, a block with more than two cutvertices
  becomes the cycle on exactly those cutvertices.

Hanging plugs default to single edges, which keeps every generated instance
small enough for exhaustive certification.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, edge, path_graph, cycle_graph
from .decomposition import (
    Decomposition, decompose, decomposition_of, bc_tree, bc_isomorphic,
)
from .labelling import decide_hamiltonicity, STRUCTURALLY_RISKY
from .hamconn import decide_hamiltonian_connectedness


@dataclass(frozen=True)
class SubstitutionRecipe:
    """One block exchange: which block, what replaces it, who stays."""
    block_index: int
    kind: str  # "complete_bipartite_2k" | "cycle" | "k23_marked"
    size: int = 0
    marked: tuple = ()


def _replacement_edges(recipe: SubstitutionRecipe, cuts: list[int],
                       fresh: int) -> tuple[list, int]:
    if recipe.kind == "cycle":
        k = recipe.size
        if k < 3 or len(cuts) > k:
            raise ValueError(
                f"cycle replacement of size {k} cannot host {len(cuts)} "
                "cutvertices")
        ring = list(cuts)
        while len(ring) < k:
            ring.append(fresh)
            fresh += 1
        es = [edge(ring[j], ring[(j + 1) % k]) for j in range(k)]
        return es, fresh
    if recipe.kind == "complete_bipartite_2k":
        if recipe.size != len(cuts):
            raise ValueError(
                f"K_2k replacement sized {recipe.size} but the block exposes "
                f"{len(cuts)} cutvertices")
        p, q = fresh, fresh + 1
        es = [edge(p, c) for c in cuts] + [edge(q, c) for c in cuts]
        return es, fresh + 2
    if recipe.kind == "k23_marked":
        if len(cuts) != 2 or set(recipe.marked) != set(cuts):
            raise ValueError(
                f"K_23 replacement marks {recipe.marked} but the block "
                f"exposes cutvertices {cuts}")
        p, q, w = fresh, fresh + 1, fresh + 2
        small = [recipe.marked[0], recipe.marked[1], w]
        es = [edge(h, s) for h in (p, q) for s in small]
        return es, fresh + 3
    raise ValueError(f"unknown replacement kind {recipe.kind!r}")


def substitute_many(g: Graph, recipes, d: Decomposition | None = None) -> Graph:
    """Exchange several blocks at once, keeping the block-cutvertex tree.

    d is g's decomposition, if the caller has it.
    """
    recipes = sorted(recipes, key=lambda r: r.block_index)
    if len({r.block_index for r in recipes}) != len(recipes):
        raise ValueError("one block named by two recipes")
    d = decomposition_of(g, d)
    for r in recipes:
        if not 0 <= r.block_index < len(d.blocks):
            raise ValueError(f"no block with index {r.block_index}")
        if not d.blocks[r.block_index].is_two_block:
            raise ValueError(f"block {r.block_index} is a bridge, not exchangeable")
    removed = set()
    for r in recipes:
        removed |= d.blocks[r.block_index].edges
    new_edges = [e for e in g.sorted_edges() if e not in removed]
    fresh = max(g.vertices) + 1
    for r in recipes:
        es, fresh = _replacement_edges(r, d.cuts_of[r.block_index], fresh)
        new_edges.extend(es)
    out = Graph.from_edges(new_edges)
    if not bc_isomorphic(bc_tree(d), bc_tree(decompose(out))):
        raise RuntimeError("substitution changed the block-cutvertex tree")
    return out


def substitute(g: Graph, recipe: SubstitutionRecipe) -> Graph:
    """Exchange one block; see substitute_many."""
    return substitute_many(g, [recipe])


def recipes_from_verdict(verdict) -> tuple[SubstitutionRecipe, ...]:
    """Translate a risky hamiltonicity verdict's hint into exchange recipes."""
    hint = verdict.recipe
    if hint is None:
        raise ValueError("verdict carries no substitution hint")
    kind = hint[0]
    if kind == "complete_bipartite_2k":
        _, t, k = hint
        return (SubstitutionRecipe(t, "complete_bipartite_2k", size=k),)
    if kind == "cycle":
        _, t, k = hint
        return (SubstitutionRecipe(t, "cycle", size=max(3, k)),)
    if kind == "k23_marked":
        _, t, marked = hint
        return (SubstitutionRecipe(t, "k23_marked", marked=tuple(marked)),)
    if kind == "cond6_exchange":
        _, _, detail = hint
        out = []
        for t, _m, cvn in detail:
            if cvn >= 2:
                out.append(SubstitutionRecipe(t, "cycle", size=max(3, cvn)))
        if not out:
            raise ValueError("no exchangeable block around the deficient vertex")
        return tuple(out)
    raise ValueError(f"unknown hint kind {kind!r}")


# -- generators ------------------------------------------------------------

def _plug(h: Graph | None) -> Graph:
    return path_graph(2) if h is None else h


def _attach_point(h: Graph, given: int | None) -> int:
    if given is None:
        return min(h.vertices)
    if given not in h.vertices:
        raise ValueError(f"attach point {given} not in the plug")
    return given


def _shift(h: Graph, attach: int, to: int, fresh: int) -> tuple[Graph, int]:
    mapping = {attach: to}
    for v in sorted(h.vertices):
        if v != attach:
            mapping[v] = fresh
            fresh += 1
    return h.relabelled(mapping), fresh


def gen_bn3(h1: Graph | None = None, h2: Graph | None = None,
            h3: Graph | None = None, h4: Graph | None = None,
            attach: tuple = (None, None, None, None)) -> Graph:
    """A cutvertex with three heavy bridges; its square is never hamiltonian.

    The center carries h1 and is joined by a bridge into each of h2, h3, h4.
    Each of those plugs needs an edge, so none of the three bridges ends at
    a leaf and the center accumulates three nontrivial bridges.
    """
    plugs = [_plug(h) for h in (h1, h2, h3, h4)]
    for h in plugs[1:]:
        if h.m == 0:
            raise ValueError("bridge plugs need at least one edge")
        if not h.is_connected():
            raise ValueError("plugs must be connected")
    if not plugs[0].is_connected():
        raise ValueError("plugs must be connected")
    center = 0
    fresh = 1
    edges: list = []
    hg, fresh = _shift(plugs[0], _attach_point(plugs[0], attach[0]),
                       center, fresh)
    edges.extend(hg.sorted_edges())
    for h, a in zip(plugs[1:], attach[1:]):
        ap = _attach_point(h, a)
        mapping = {}
        for v in sorted(h.vertices):
            mapping[v] = fresh
            fresh += 1
        hg = h.relabelled(mapping)
        edges.extend(hg.sorted_edges())
        edges.append(edge(center, mapping[ap]))
    out = Graph.from_edges(edges, isolated=(center,))
    d = decompose(out)
    if d.bn.get(center, 0) < 3:
        raise RuntimeError("construction failed to give three heavy bridges")
    return out


def gen_hc_counterexample(r: int, plugs: list | None = None) -> Graph:
    """A cycle of cutvertices: no hamiltonian path joins two of them squared.

    Each cycle vertex carries a plug (sharing the vertex), so all r of them
    are cutvertices of the result.
    """
    if r < 3:
        raise ValueError("need a cycle on at least 3 vertices")
    if plugs is None:
        plugs = [None] * r
    if len(plugs) != r:
        raise ValueError(f"expected {r} plugs, got {len(plugs)}")
    plugs = [_plug(h) for h in plugs]
    for h in plugs:
        if h.m == 0 or not h.is_connected():
            raise ValueError("plugs must be connected with at least one edge")
    edges = [edge(j, (j + 1) % r) for j in range(r)]
    fresh = r
    for j, h in enumerate(plugs):
        hg, fresh = _shift(h, min(h.vertices), j, fresh)
        edges.extend(hg.sorted_edges())
    return Graph.from_edges(edges)


def counterexample_for(g: Graph, condition,
                       d: Decomposition | None = None) -> Graph:
    """A graph bc-isomorphic to g realizing the requested failure.

    d is g's decomposition, if the caller has it.

    condition 4: g must already have a vertex with three or more nontrivial
    bridges; any graph with that block-cutvertex tree fails, so a relabelled
    copy is returned. Conditions 5 and 6 require the decision procedure to
    flag that exact condition; "hc" requires the connectedness procedure to
    flag a block with more than two cutvertices.
    """
    if condition == 4:
        d = decomposition_of(g, d)
        if max(d.bn.values(), default=0) < 3 and d.bridge_forest.all_caterpillars:
            raise ValueError(
                "graph has no vertex with three nontrivial bridges")
        mapping = {v: j for j, v in enumerate(g.sorted_vertices())}
        return g.relabelled(mapping)
    if condition in (5, 6):
        verdict = decide_hamiltonicity(g, d)
        if (verdict.outcome != STRUCTURALLY_RISKY
                or verdict.violated_condition != condition):
            raise ValueError(
                f"decision procedure does not flag condition {condition} "
                f"on this graph (got {verdict.outcome})")
        return substitute_many(g, recipes_from_verdict(verdict), d)
    if condition == "hc":
        verdict = decide_hamiltonian_connectedness(g, d)
        if verdict.outcome != STRUCTURALLY_RISKY:
            raise ValueError(
                "connectedness procedure does not flag this graph "
                f"(got {verdict.outcome})")
        return substitute_many(g, [SubstitutionRecipe(
            verdict.risky_block, "cycle", size=verdict.risky_cvn)], d)
    raise ValueError(f"condition must be 4, 5, 6 or 'hc', not {condition!r}")


# -- named minimal instances ----------------------------------------------

@dataclass(frozen=True)
class CertifiedFamily:
    """A risky skeleton and its minimal certified failing instance."""
    name: str
    skeleton: Graph
    instance: Graph
    kind: str  # "cycle": square not hamiltonian; "connectedness": no xy path


def _bridge_pair(edges, c, a, b):
    edges.append(edge(c, a))
    edges.append(edge(a, b))


def minimal_families() -> tuple[CertifiedFamily, ...]:
    """The seven smallest failing instances, one per failure shape."""
    fams = []

    spider = gen_bn3()
    fams.append(CertifiedFamily("three-heavy-bridges", spider,
                                counterexample_for(spider, 4), "cycle"))

    es = [edge(j, (j + 1) % 5) for j in range(5)]
    es += [edge(j, j + 5) for j in range(5)]
    five = Graph.from_edges(es)
    fams.append(CertifiedFamily("five-cutvertex-block", five,
                                counterexample_for(five, 5), "cycle"))

    es = [edge(0, 1), edge(1, 2), edge(0, 2)]
    _bridge_pair(es, 0, 3, 4)
    _bridge_pair(es, 0, 5, 6)
    es += [edge(1, 7), edge(2, 8)]
    heavy_end = Graph.from_edges(es)
    fams.append(CertifiedFamily("heavy-end-on-triangle", heavy_end,
                                counterexample_for(heavy_end, 5), "cycle"))

    es = [edge(0, 1), edge(1, 2), edge(0, 2)]
    _bridge_pair(es, 0, 3, 4)
    _bridge_pair(es, 0, 5, 6)
    _bridge_pair(es, 1, 7, 8)
    _bridge_pair(es, 1, 9, 10)
    double_heavy = Graph.from_edges(es)
    fams.append(CertifiedFamily("two-heavy-cutvertices", double_heavy,
                                counterexample_for(double_heavy, 5), "cycle"))

    es = [edge(0, 1), edge(1, 2), edge(0, 2),
          edge(0, 3), edge(3, 4), edge(0, 4)]
    _bridge_pair(es, 0, 5, 6)
    _bridge_pair(es, 1, 7, 8)
    _bridge_pair(es, 1, 9, 10)
    es += [edge(3, 11), edge(4, 12)]
    mixed = Graph.from_edges(es)
    fams.append(CertifiedFamily("cond6-deficit-mixed", mixed,
                                counterexample_for(mixed, 6), "cycle"))

    es = [edge(0, 1), edge(1, 2), edge(0, 2),
          edge(0, 3), edge(3, 4), edge(0, 4),
          edge(0, 5), edge(5, 6), edge(6, 7), edge(0, 7)]
    _bridge_pair(es, 1, 8, 9)
    _bridge_pair(es, 1, 10, 11)
    es += [edge(3, 12), edge(4, 13), edge(5, 14), edge(6, 15), edge(7, 16)]
    pure = Graph.from_edges(es)
    fams.append(CertifiedFamily("cond6-deficit-pure", pure,
                                counterexample_for(pure, 6), "cycle"))

    tri = gen_hc_counterexample(3)
    fams.append(CertifiedFamily("cutvertex-triangle", tri,
                                counterexample_for(tri, "hc"),
                                "connectedness"))

    return tuple(fams)
