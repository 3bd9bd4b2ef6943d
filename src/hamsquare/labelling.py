"""Deciding hamiltonicity of the square via cutvertex labellings.

A labelling assigns to every (cutvertex i, 2-block B_t) pair a value
m_i(B_t) in {0, 1, 2}: how many edges of B_t incident to i the witness
cycle is asked to carry. Six arithmetic conditions on these values decide
the matter:

1) every value lies in {0, 1, 2};
2) the value is 0 exactly when i is outside B_t;
3) the value is at least bn(i) when i is in B_t, where bn counts the
   nontrivial bridges at i;
4) bn(i) is at most 2 everywhere;
5) per 2-block the values sum to at most 4, and to at most 3 as soon as
   any single value is 2;
6) per cutvertex the values sum to at least 2*k_i + bn(i) - 2, where k_i
   is the number of 2-blocks containing i.

decide_hamiltonicity builds such a labelling greedily, peeling one 2-block
at a time from the outside in. A definite NO happens only when some vertex
meets three or more nontrivial bridges (equivalently, when the bridge
forest is not a union of caterpillars). When the greedy construction gets
stuck on condition 5 or 6, the verdict is STRUCTURALLY_RISKY: the input
itself may still have a hamiltonian square, but some graph with the same
block-cutvertex tree does not. The verdict names the violated condition,
the case, and the block or cutvertex where the peel got stuck;
counterexamples.counterexample_for builds the failing graph from those.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .graph import Graph
from .decomposition import Decomposition, decompose

HAMILTONIAN = "HAMILTONIAN"
NOT_HAMILTONIAN = "NOT_HAMILTONIAN"
STRUCTURALLY_RISKY = "STRUCTURALLY_RISKY"


@dataclass(frozen=True)
class Labelling:
    """Values m_i(B_t) keyed by (cutvertex, 2-block index); missing means 0."""
    m: dict

    def value(self, i: int, t: int) -> int:
        return self.m.get((i, t), 0)


def check_conditions(g: Graph, labelling: Labelling) -> list[int]:
    """Exactly the condition numbers (1..6) the labelling violates on g."""
    d = decompose(g)
    violated = set()
    two = {b.index: b for b in d.two_blocks()}
    # per cutvertex, the 2-blocks it holds a value for; values at other
    # vertices and at bridges take part in no condition but the first
    rows: dict[int, list] = {}
    for (i, t), v in labelling.m.items():
        if v not in (0, 1, 2):
            violated.add(1)
        if i in d.cutvertices and t in two:
            rows.setdefault(i, []).append(t)
            if v != 0 and i not in two[t].vertices:
                violated.add(2)
    for t in two:
        vals = []
        for i in d.cuts_of[t]:
            v = labelling.value(i, t)
            vals.append(v)
            if v == 0:
                violated.add(2)
            if v < d.bn[i]:
                violated.add(3)
        cap = 3 if any(v == 2 for v in vals) else 4
        if sum(vals) > cap:
            violated.add(5)
    for i in d.cutvertices:
        if d.bn[i] > 2:
            violated.add(4)
        # summed in block order, as a row of the whole grid would be
        total = sum(labelling.value(i, t) for t in sorted(rows[i])) \
            if i in rows else 0
        if total < 2 * d.k[i] + d.bn[i] - 2:
            violated.add(6)
    return sorted(violated)


@dataclass(frozen=True)
class HamiltonicityVerdict:
    outcome: str
    labelling: Labelling | None = None
    trivial_reason: str | None = None
    reason: str | None = None
    violated_condition: int | None = None
    risky_case: str | None = None
    risky_block: int | None = None
    risky_cutvertex: int | None = None
    trace: tuple = field(default=(), compare=False)


def decide_hamiltonicity(g: Graph) -> HamiltonicityVerdict:
    """Run the peeling labelling construction on a connected graph, n >= 3.

    decompose's traversal of g is the connectivity check.
    """
    if g.n < 3:
        raise ValueError("hamiltonicity of the square needs at least 3 vertices")
    d = decompose(g)
    for comp in d.bridge_forest:
        if not comp.is_caterpillar:
            return HamiltonicityVerdict(
                NOT_HAMILTONIAN,
                reason=("bridge forest component on vertices "
                        f"{sorted(comp.vertices)} is not a caterpillar, so some "
                        "vertex meets at least three nontrivial bridges"))
    # A caterpillar star of bridges can hide a third nontrivial bridge at its
    # hub even though every component passes the caterpillar test, so the
    # bridge count itself is gated explicitly. Only a cutvertex meets a
    # nontrivial bridge, so the scan of bn finds cutvertices.
    over = [i for i, b in d.bn.items() if b >= 3]
    if over:
        i = min(over)
        return HamiltonicityVerdict(
            NOT_HAMILTONIAN,
            reason=(f"vertex {i} meets {d.bn[i]} nontrivial bridges; a "
                    "hamiltonian cycle of the square can absorb at most two"))

    if not d.two_blocks():
        return HamiltonicityVerdict(HAMILTONIAN, labelling=Labelling({}),
                                    trivial_reason="caterpillar")
    if len(d.blocks) == 1:
        return HamiltonicityVerdict(HAMILTONIAN, labelling=Labelling({}),
                                    trivial_reason="two-block")

    return _peel(g, d)


def _peel(g: Graph, d: Decomposition) -> HamiltonicityVerdict:
    two_idx = [b.index for b in d.two_blocks()]
    # bound once: a Decomposition field read costs several times a local's
    blocks, blocks_of, cuts_of, bn, dk = (d.blocks, d.blocks_of, d.cuts_of,
                                          d.bn, d.k)

    def two_at(c: int) -> list[int]:
        return [t for t in blocks_of[c] if blocks[t].is_two_block]

    m: dict[tuple[int, int], int] = {}
    labelled: set[int] = set()
    trace: list[tuple] = []
    # unl[c]: unlabelled 2-blocks at c; c is active for an unlabelled block
    # at it while another one is left (unl[c] >= 2). busy[t]: active
    # cutvertices of t. ready: a min-heap of the unlabelled blocks with
    # busy <= 1, the blocks that may be peeled next; busy only falls, so
    # each block enters it once and stays eligible until it is popped.
    unl = {c: dk[c] for c in d.cutvertices}
    busy = {t: sum(1 for c in cuts_of[t] if unl[c] >= 2) for t in two_idx}
    ready = [t for t in two_idx if busy[t] <= 1]
    heapq.heapify(ready)

    def complete(c: int) -> bool:
        return unl[c] == 0

    def label(B: int) -> None:
        labelled.add(B)
        for c in cuts_of[B]:
            unl[c] -= 1
            if unl[c] == 1:
                (t,) = (t for t in two_at(c) if t not in labelled)
                busy[t] -= 1
                if busy[t] == 1:
                    heapq.heappush(ready, t)

    def cond6_ok(c: int) -> bool:
        total = sum(m.get((c, t), 0) for t in two_at(c))
        return total >= 2 * dk[c] + bn[c] - 2

    def risky(cond, case, block, cut=None):
        trace.append((case, block, ()))
        return HamiltonicityVerdict(
            STRUCTURALLY_RISKY,
            violated_condition=cond, risky_case=case, risky_block=block,
            risky_cutvertex=cut, trace=tuple(trace),
            reason=(f"condition {cond} cannot be met (case {case}); some graph "
                    "with the same block-cutvertex tree has a non-hamiltonian "
                    "square"))

    while len(labelled) < len(two_idx):
        B = heapq.heappop(ready)
        cuts = cuts_of[B]
        k = len(cuts)

        if k >= 5:
            return risky(5, "a", B)
        if k >= 3 and any(bn[c] == 2 for c in cuts):
            return risky(5, "b", B)
        if k == 2 and bn[cuts[0]] == 2 and bn[cuts[1]] == 2:
            return risky(5, "c", B)

        if k == 1:
            c1 = cuts[0]
            m[(c1, B)] = 2
            label(B)
            trace.append(("d", B, ((c1, 2),)))
            if complete(c1) and not cond6_ok(c1):
                return risky(6, "d", B, c1)
        elif k == 2:
            c1, c2 = cuts
            if bn[c2] == 2 or bn[c1] == 2:
                two = c2 if bn[c2] == 2 else c1
                one = c1 if two == c2 else c2
                m[(one, B)] = 1
                m[(two, B)] = 2
            else:
                # the cuts where B is the last unlabelled block
                done = [c for c in cuts if unl[c] == 1]
                j = min(done)
                other = c2 if j == c1 else c1
                m[(j, B)] = 1
                if cond6_ok(j):
                    m[(other, B)] = 2
                else:
                    m[(j, B)] = 2
                    m[(other, B)] = 1
            label(B)
            trace.append(("e", B, tuple(sorted((c, m[(c, B)]) for c in cuts))))
            for c in cuts:
                if complete(c) and not cond6_ok(c):
                    return risky(6, "e", B, c)
        else:  # k in {3, 4}, every bn <= 1
            for c in cuts:
                m[(c, B)] = 1
            label(B)
            trace.append(("f", B, tuple((c, 1) for c in cuts)))
            for c in cuts:
                if complete(c) and not cond6_ok(c):
                    return risky(6, "f", B, c)

    labelling = Labelling(dict(m))
    return HamiltonicityVerdict(HAMILTONIAN, labelling=labelling,
                                trace=tuple(trace))

