"""Seeded inputs of the three benchmark workloads.

Every workload is a fixed list of cases. The seed picks the structure of each
graph (block types, where blocks meet, where pendant leaves and tree legs
go); the number of graphs, their sizes and the operations each one gets do
not depend on the seed, so every seed does the same amount of work of the
same kind. A case carries its edge list as text, which is all the program
sees, and the verdicts its construction fixes (README.md gives the reasons).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

HAM, NOT_HAM = "HAMILTONIAN", "NOT_HAMILTONIAN"
HC, NOT_HC = "HAM_CONNECTED", "NOT_HAM_CONNECTED"


@dataclass(frozen=True)
class Case:
    gid: str
    text: str                 # edge list, one "u v" per line
    ham: str                  # expected check-ham outcome
    hc: str                   # expected check-hc outcome
    cycle: bool               # whether the case gets a witness cycle
    pairs: tuple = ()         # (x, y) pairs that get a witness path


def _text(edges) -> str:
    return "".join(f"{u} {v}\n" for u, v in sorted(edges))


# -- small blocks on local labels 0..k-1 ------------------------------------

def _cycle(k):
    return [(i, (i + 1) % k) for i in range(k)], k


def _complete(k):
    return [(i, j) for i in range(k) for j in range(i + 1, k)], k


def _wheel(rim):
    """Hub 0 joined to every vertex of the rim cycle 1..rim."""
    es = [(0, i) for i in range(1, rim + 1)]
    es += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return es, rim + 1


def _theta(lengths):
    """Poles 0 and 1 joined by disjoint paths of the given lengths."""
    es, nxt = [], 2
    for ln in lengths:
        prev = 0
        for _ in range(ln - 1):
            es.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
        es.append((prev, 1))
    return es, nxt


def _k2(k):
    """K_{2,k}: the two hubs are 0 and 1."""
    return [(h, 2 + i) for h in (0, 1) for i in range(k)], k + 2


def _grid(r, c):
    es = [(i * c + j, i * c + j + 1) for i in range(r) for j in range(c - 1)]
    es += [(i * c + j, (i + 1) * c + j)
           for i in range(r - 1) for j in range(c)]
    return es, r * c


def _ladder(k):
    """Circular ladder: two k-cycles 0..k-1 and k..2k-1 joined rung by rung."""
    es = [(i, (i + 1) % k) for i in range(k)]
    es += [(k + i, k + (i + 1) % k) for i in range(k)]
    es += [(i, k + i) for i in range(k)]
    return es, 2 * k


# The block-search family, 5 to 11 vertices per block, six of each kind.
# Wheels and K_{2,k} have complete squares, and from 9 vertices on their
# demanded searches take 20-300 ms or more, depending on the vertex labels;
# ladders of 10 and the 3x4 grid pass 20k oracle nodes. Those sizes are
# left out (README.md, "Left out").
MEDIUM_BLOCKS = (
    [("wheel", _wheel(rim), (1, 1 + rim // 2)) for rim in (5, 5, 6, 6, 7, 7)]
    + [("theta", _theta(ls), (0, 1)) for ls in ((2, 2, 2), (2, 2, 3),
                                                (2, 3, 4), (3, 3, 3),
                                                (3, 4, 4), (4, 4, 4))]
    + [("k2", _k2(k), (0, k + 1)) for k in (3, 4, 4, 5, 5, 6)]
    + [("grid", _grid(3, 3), (0, 8))] * 6
    + [("ladder", _ladder(k), (0, k + k // 2)) for k in (3, 4) * 3]
)


# -- gluing blocks into a chain -------------------------------------------

def _chain(blocks, rng):
    """Glue blocks one after another at a single shared vertex each.

    blocks: (edges, k, ports) on local labels, ports an (entry, exit) pair
    or None for a seeded choice. Block i+1 is attached at the exit of block
    i, which differs from its entry, so every block carries at most two
    cutvertices. Returns the edges, the vertex set of each block, each
    block's (entry, exit), entry None for the first block and exit None for
    the last, and the next free label.
    """
    edges, sets, ports = [], [], []
    nxt, joint = 0, None
    for i, (bes, k, fixed) in enumerate(blocks):
        if fixed is None:
            entry = rng.randrange(k)
            exit_ = rng.choice([v for v in range(k) if v != entry])
        else:
            entry, exit_ = fixed
        label = {}
        for v in range(k):
            if v == entry and joint is not None:
                label[v] = joint
            else:
                label[v] = nxt
                nxt += 1
        edges += [(label[u], label[v]) for u, v in bes]
        sets.append(sorted(label.values()))
        joint = label[exit_] if i + 1 < len(blocks) else None
        ports.append((label[entry] if i else None, joint))
    return edges, sets, ports, nxt


def _chain_pairs(sets, ports):
    """The fixed path pairs of a chain: its two ends, the two cutvertices of
    the middle block, and a free vertex of the middle block with the far
    end. A lone block takes three pairs of its own vertices."""
    if len(sets) == 1:
        s = sets[0]
        return ((s[0], s[-1]), (s[1], s[-2]), (s[0], s[1]))
    cuts = {p for pr in ports for p in pr if p is not None}
    end0 = min(v for v in sets[0] if v not in cuts)
    end1 = max(v for v in sets[-1] if v not in cuts)
    mid = len(sets) // 2
    entry, exit_ = ports[mid]
    free = [v for v in sets[mid] if v not in cuts]
    inner = (entry, exit_ if exit_ is not None else free[-1])
    return ((end0, end1), inner, (free[0], end1 if free[0] != end1 else end0))


# -- the workloads ---------------------------------------------------------

CHAIN_SIZES = (40, 46, 52, 60, 68, 76, 86, 96, 108, 120, 136, 160)
SMALL_BLOCKS = tuple((*blk, None)
                     for blk in (_cycle(3), _cycle(4), _complete(4)))


def chain_witness(seed: int) -> list[Case]:
    """Long chains of C3, C4 and K4 blocks with pendant leaves at joints.

    Each chain takes C3, C4 and K4 in turn until it reaches its size, and a
    pendant leaf at every fourth joint; the seed shuffles the blocks and
    picks the joints and the pendants' places.
    """
    rng = random.Random(f"chain-witness/{seed}")
    cases = []
    for idx, target in enumerate(CHAIN_SIZES):
        blocks, n = [], 1
        while n < target:
            blocks.append(SMALL_BLOCKS[len(blocks) % 3])
            n += blocks[-1][1] - 1
        rng.shuffle(blocks)
        edges, sets, ports, nxt = _chain(blocks, rng)
        joints = [exit_ for _, exit_ in ports[:-1]]
        for leaf, joint in enumerate(rng.sample(joints, len(joints) // 4),
                                     start=nxt):
            edges.append((joint, leaf))
        cases.append(Case(f"cw{idx:02d}", _text(edges), HAM, HC, True,
                          _chain_pairs(sets, ports)))
    return cases


BLOCK_COUNTS = (1, 2, 3, 4) * 24   # 240 blocks: MEDIUM_BLOCKS eight times


def block_search(seed: int) -> list[Case]:
    """Chains of one to four medium 2-blocks. The family's blocks are dealt
    out to the chains in a fixed order, kinds taking turns; the seed orders
    the blocks along each chain. Each block meets its neighbours at two
    fixed vertices far apart."""
    rng = random.Random(f"block-search/{seed}")
    per_kind = len(MEDIUM_BLOCKS) // 5
    deck = [MEDIUM_BLOCKS[j * per_kind + i]
            for i in range(per_kind) for j in range(5)] * 8
    cases = []
    for idx, count in enumerate(BLOCK_COUNTS):
        hand, deck = deck[:count], deck[count:]
        rng.shuffle(hand)
        edges, sets, ports, _ = _chain([(*blk, at) for _, blk, at in hand],
                                       rng)
        cases.append(Case(f"bs{idx:02d}", _text(edges), HAM, HC, True,
                          _chain_pairs(sets, ports)))
    return cases


def _caterpillar(spine, legs, rng):
    es = [(i, i + 1) for i in range(spine - 1)]
    for leaf in range(spine, spine + legs):
        es.append((rng.randrange(1, spine - 1), leaf))
    return es


def _spider(n, rng):
    """Centre 0 with three legs, each at least a sixth of the tree long."""
    rest = n - 1
    a = rng.randint(rest // 6, rest // 2)
    b = rng.randint(rest // 6, (rest - a) - rest // 6)
    es, nxt = [], 1
    for ln in (a, b, rest - a - b):
        prev = 0
        for _ in range(ln):
            es.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return es


CATERPILLAR_SIZES = tuple(round(300 * 2 ** (i / 32)) for i in range(33))
PATH_SIZES = (300, 600, 1200, 2000)
STAR_LEAVES = (300, 450, 600)
SPIDER_SIZES = (300, 600, 1000, 1500, 2000, 2500, 3000)


def forest_square(seed: int) -> list[Case]:
    """Large trees: caterpillars, paths and stars (hamiltonian squares, so
    they get a cycle) and three-legged spiders (verdicts only)."""
    rng = random.Random(f"forest-square/{seed}")
    trees = []
    for n in CATERPILLAR_SIZES:
        legs = n // 7
        trees.append((_caterpillar(n - legs, legs, rng), HAM, NOT_HC, True))
    for n in PATH_SIZES:
        trees.append(([(i, i + 1) for i in range(n - 1)], HAM, NOT_HC, True))
    for k in STAR_LEAVES:
        trees.append(([(0, i) for i in range(1, k + 1)], HAM, HC, True))
    for n in SPIDER_SIZES:
        trees.append((_spider(n, rng), NOT_HAM, NOT_HC, False))
    return [Case(f"fs{idx:02d}", _text(es), ham, hc, cyc)
            for idx, (es, ham, hc, cyc) in enumerate(trees)]


WORKLOADS = {
    "chain-witness": chain_witness,
    "block-search": block_search,
    "forest-square": forest_square,
}
