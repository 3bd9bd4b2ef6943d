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
at a time from the outside in. Each cutvertex keeps its count of
unlabelled 2-blocks, the bound of condition 6, the running sum of its
values and the index sum of its unlabelled 2-blocks, so a step does O(1)
work per (cutvertex, 2-block) incidence besides one heap operation, and
the peel reads of the decomposition only two_idx and cuts_of. A definite
NO happens only when some vertex meets three or more nontrivial bridges:
a bridge forest component that is no caterpillar (P0 is read as a pair
(adjacency, caterpillar) per component) has one, and bn is scanned for the
rest, since three bridges at a hub may each be a component of its own.
When the greedy construction gets stuck on condition 5 or 6, the verdict
is STRUCTURALLY_RISKY: the input itself may still have a hamiltonian
square, but some graph with the same block-cutvertex tree does not. The
verdict names the violated condition, the case, and the block or cutvertex
where the peel got stuck; counterexamples.counterexample_for builds the
failing graph from those.
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
    two = {t: d.records[t][3] for t in d.two_idx}  # vertices of each
    # per cutvertex, the 2-blocks it holds a value for; values at other
    # vertices and at bridges take part in no condition but the first
    rows: dict[int, list] = {}
    for (i, t), v in labelling.m.items():
        if v not in (0, 1, 2):
            violated.add(1)
        if i in d.cutvertices and t in two:
            rows.setdefault(i, []).append(t)
            if v != 0 and i not in two[t]:
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
    for nbrs, caterpillar in d.bridge_forest:
        if not caterpillar:
            return HamiltonicityVerdict(
                NOT_HAMILTONIAN,
                reason=("bridge forest component on vertices "
                        f"{sorted(nbrs)} is not a caterpillar, so some "
                        "vertex meets at least three nontrivial bridges"))
    if not d.two_idx:
        # a tree is its own bridge forest, a caterpillar exactly when no
        # bn exceeds 2
        return HamiltonicityVerdict(HAMILTONIAN, labelling=Labelling({}),
                                    trivial_reason="caterpillar")
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
    if d.block_count() == 1:
        return HamiltonicityVerdict(HAMILTONIAN, labelling=Labelling({}),
                                    trivial_reason="two-block")

    return _peel(g, d)


def _peel(g: Graph, d: Decomposition) -> HamiltonicityVerdict:
    two_idx, cuts_of, bn, dk = d.two_idx, d.cuts_of, d.bn, d.k
    # Per cutvertex c of a 2-block: unl[c], its unlabelled 2-blocks; need[c],
    # condition 6's bound 2k + bn - 2; got[c], the sum of its values; isum[c],
    # the index sum of its unlabelled 2-blocks, the last one's index once
    # one is left. c is active while unl[c] >= 2. busy[t] counts t's active
    # cutvertices, and ready is a min-heap of the unlabelled blocks with
    # busy <= 1; busy only falls, so each block enters it once.
    unl, need, got, isum, busy = {}, {}, {}, {}, {}
    ready = []  # two_idx ascends, so the list is a heap as built
    for t in two_idx:
        active = 0
        for c in cuts_of[t]:
            if c in isum:
                isum[c] += t
            else:
                isum[c], got[c] = t, 0
                unl[c] = kc = dk[c]
                need[c] = 2 * kc + bn[c] - 2
            if dk[c] >= 2:
                active += 1
        busy[t] = active
        if active <= 1:
            ready.append(t)
    m, trace = {}, []

    def risky(cond, case, block, cut=None):
        trace.append((case, block, ()))
        return HamiltonicityVerdict(
            STRUCTURALLY_RISKY,
            violated_condition=cond, risky_case=case, risky_block=block,
            risky_cutvertex=cut, trace=tuple(trace),
            reason=(f"condition {cond} cannot be met (case {case}); some graph "
                    "with the same block-cutvertex tree has a non-hamiltonian "
                    "square"))

    for _ in two_idx:
        B = heapq.heappop(ready)
        cuts = cuts_of[B]
        k = len(cuts)

        if k >= 5:
            return risky(5, "a", B)
        if k >= 3 and any(bn[c] == 2 for c in cuts):
            return risky(5, "b", B)
        if k == 2 and bn[cuts[0]] == 2 and bn[cuts[1]] == 2:
            return risky(5, "c", B)

        # the values, aligned with cuts
        if k == 1:
            case, vals = "d", (2,)
        elif k == 2:
            case, (c1, c2) = "e", cuts
            if bn[c1] == 2 or bn[c2] == 2:
                vals = (2, 1) if bn[c1] == 2 else (1, 2)
            else:
                # j, the least cut where B is the last unlabelled block,
                # takes 1 when condition 6 then holds there, else 2
                j = c1 if unl[c1] == 1 else c2
                ok = got[j] + 1 >= need[j]
                vals = (1, 2) if (j == c1) == ok else (2, 1)
        else:  # k in {3, 4}, every bn <= 1
            case, vals = "f", (1,) * k

        for c, v in zip(cuts, vals):
            m[c, B] = v
            got[c] += v
            isum[c] -= B
            unl[c] = left = unl[c] - 1
            if left == 1:
                t = isum[c]
                busy[t] -= 1
                if busy[t] == 1:
                    heapq.heappush(ready, t)
        trace.append((case, B, tuple(zip(cuts, vals))))
        for c in cuts:
            if not unl[c] and got[c] < need[c]:
                return risky(6, case, B, c)

    return HamiltonicityVerdict(HAMILTONIAN, labelling=Labelling(m),
                                trace=tuple(trace))
