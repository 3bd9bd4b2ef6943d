#!/usr/bin/env python3
"""Time the constructors on graphs with long chains and high-degree
cutvertices, and check every witness.

Each row builds one witness in this process and validates it in the square
without building the square (`is_ham_cycle`/`is_ham_path` with
`square=True`). The rows are a star K1,2999, windmills of 1000 and 2000
triangles (k triangles sharing vertex 0), a chain of 2560 triangles
(each sharing one vertex with the next), a mixed chain of 6000 blocks
(C3, C4 and K4 in turn, each sharing one vertex with the next, with a
pendant leaf on every fourth joint: 17,501 vertices, its cycle, its path
from end to end, and its path between the two cutvertices of its middle
block, each with 3000 blocks hanging off it), a chain of 2001
theta(1,4,4) blocks (two poles joined by an edge and by two paths of four
edges), each sharing a pole with the next (14,008 vertices), and its path
between the poles of block 1000, for which no block path has an edge of
the graph at both poles: it takes the rescue route once, and the 1000
blocks beyond the far pole go in as a cycle through that pole opened
there, a hub theta: a theta(1,4,4) with a triangle at pole 0 and 2000
triangles and a leaf at pole 1, and its path from pole 0 to pole 1, which
takes the rescue route once and lays the 2001 parts hanging at pole 1 in
one merge step there, a lone cycle block C2000, whose witnesses come from the oracle,
the cycle of a lone cycle block C40000, which the oracle lays 40,000
vertices deep (a search that recursed once per vertex overflowed the C
stack of CPython 3.10 from about C25000 on), two chains whose cycle
merges the bridge forest: 5000
triangles joined by paths of three bridges, a leaf on each inner path
vertex and every other triangle entered and left at one vertex (34,996
vertices; 2,499 caterpillar components, each with a pair reservation), and
2000 triangles joined by single bridges, each a K2 component, and the cycle
of a caterpillar on 100,000 vertices: a spine of 60,000 with the other
40,000 on seeded random inner spine vertices, under shuffled labels. The
verdict rows run both deciders, decomposition included, on an equal copy
of the mixed chain, the windmill k=2000, the triangle chain, the leafy
bridge chain and the caterpillar, and on a spider of three legs on 100,000
vertices under shuffled labels, and check both verdicts: positive, except
that no graph with a bridge between two non-leaves has a hamiltonian
connected square, and that the square of a tree that is no caterpillar
has no hamiltonian cycle (Harary and Schwenk 1971). A row prints its CPU
seconds (`time.process_time`). The script exits 1 when a row raises,
returns an invalid witness or a wrong verdict, or takes more than LIMIT_S
of CPU; a constructor that is quadratic at a cutvertex of degree a few
thousand, or an oracle that does O(n) work per node, takes several
seconds. A last row parses the canonical text of a chain of 100,000
triangles (200,001 vertices) and exits 1 when tracemalloc counts more than
MEMORY_LIMIT_MB held by the parsed graph: a graph that stored its edges
twice, or held a vertex as one int object per mention, holds over 100 MB.
Another builds the cycle of a chain of 5000 triangles, already built, and
exits 1 when tracemalloc's peak over the constructor passes
CYCLE_MEMORY_LIMIT_MB: a merge that kept every cycle edge indexed, with
each vertex's neighbour set and the edges still owed, peaks at 22 MB.
Run it from the root of the checkout: `python scripts/scale_check.py`.
"""

import random
import sys
import time
import tracemalloc

sys.path.insert(0, "src")

from hamsquare.construct import construct_ham_cycle, construct_ham_path
from hamsquare.graph import Graph, is_ham_cycle, is_ham_path, parse_edge_list
from hamsquare.hamconn import (HAM_CONNECTED, NOT_HAM_CONNECTED,
                               decide_hamiltonian_connectedness)
from hamsquare.labelling import (HAMILTONIAN, NOT_HAMILTONIAN,
                                 decide_hamiltonicity)

LIMIT_S = 2.0
MEMORY_LIMIT_MB = 70
CYCLE_MEMORY_LIMIT_MB = 18
# the verdict pairs a verdict row expects; a bridge between two non-leaves
# rules out a hamiltonian connected square
POSITIVE = (HAMILTONIAN, HAM_CONNECTED)
BRIDGED = (HAMILTONIAN, NOT_HAM_CONNECTED)
NEGATIVE = (NOT_HAMILTONIAN, NOT_HAM_CONNECTED)


def star(k):
    return Graph.from_edges((0, i) for i in range(1, k + 1))


def cycle(n):
    return Graph.from_edges((i, (i + 1) % n) for i in range(n))


def windmill(k):
    return Graph.from_edges(e for i in range(k) for e in
                            [(0, 2 * i + 1), (2 * i + 1, 2 * i + 2),
                             (0, 2 * i + 2)])


def triangle_chain(k):
    return Graph.from_edges(e for t in range(k) for e in
                            [(2 * t, 2 * t + 1), (2 * t + 1, 2 * t + 2),
                             (2 * t, 2 * t + 2)])


def mixed_chain(k):
    """C3, C4 and K4 blocks in turn, k in all, the last vertex of each the
    first of the next, and a pendant leaf on every fourth of those joints.
    Returns the graph and the joints, the far end of the last block last."""
    shapes = [(3, [(0, 1), (1, 2), (0, 2)]),
              (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
              (4, [(a, b) for a in range(4) for b in range(a + 1, 4)])]
    edges, base, joints = [], 0, []
    for t in range(k):
        size, es = shapes[t % 3]
        edges += [(base + a, base + b) for a, b in es]
        base += size - 1
        joints.append(base)
    leaf = base + 1
    for v in joints[:-1][::4]:
        edges.append((v, leaf))
        leaf += 1
    return Graph.from_edges(edges), joints


def theta_chain(k):
    """k theta(1,4,4) blocks, block t with poles 7t and 7t + 7 joined by an
    edge and by the paths through 7t + 1..7t + 3 and 7t + 4..7t + 6."""
    edges = []
    for t in range(k):
        a, b = 7 * t, 7 * t + 7
        edges.append((a, b))
        for s in (1, 4):
            walk = [a, 7 * t + s, 7 * t + s + 1, 7 * t + s + 2, b]
            edges += zip(walk, walk[1:])
    return Graph.from_edges(edges)


def hub_theta(k):
    """A theta(1,4,4), poles 0 and 1 joined by an edge and by the paths
    through 2..4 and 5..7, with the triangle 0, 8, 9 at pole 0, and k
    triangles 1, 10 + 2j, 11 + 2j and the leaf 10 + 2k at pole 1."""
    edges = [(0, 1), (0, 2), (2, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 7),
             (7, 1), (0, 8), (8, 9), (0, 9), (1, 10 + 2 * k)]
    edges += [e for j in range(k) for e in
              [(1, 10 + 2 * j), (10 + 2 * j, 11 + 2 * j), (1, 11 + 2 * j)]]
    return Graph.from_edges(edges)


def leafy_bridge_chain(k):
    """k triangles, each joined to the next by a path of three bridges with
    a leaf on each of its two inner vertices; odd triangles are entered and
    left at one vertex, even ones at two."""
    edges = [e for t in range(k) for e in
             [(3 * t, 3 * t + 1), (3 * t + 1, 3 * t + 2), (3 * t, 3 * t + 2)]]
    p = 3 * k  # the next fresh vertex
    for t in range(k - 1):
        out = 3 * t if t % 2 else 3 * t + 2
        edges += [(out, p), (p, p + 1), (p + 1, 3 * t + 3),
                  (p, p + 2), (p + 1, p + 3)]
        p += 4
    return Graph.from_edges(edges)


def bridged_triangles(k):
    """k triangles, each joined to the next by one bridge."""
    return Graph.from_edges(e for t in range(k) for e in
                            [(3 * t, 3 * t + 1), (3 * t + 1, 3 * t + 2),
                             (3 * t, 3 * t + 2), (3 * t + 2, 3 * t + 3)]
                            if e[1] < 3 * k)


def caterpillar(n, spine, seed):
    """A path of spine vertices and n - spine leaves, each on a random inner
    vertex of the path, with labels shuffled by random.Random(seed)."""
    rng = random.Random(seed)
    label = rng.sample(range(n), n)
    edges = [(label[i], label[i + 1]) for i in range(spine - 1)]
    edges += [(label[rng.randrange(1, spine - 1)], label[i])
              for i in range(spine, n)]
    return Graph.from_edges(edges)


def spider(legs, length, seed):
    """legs paths of length vertices, each joined to one centre, with labels
    shuffled by random.Random(seed)."""
    n = 1 + legs * length
    label = random.Random(seed).sample(range(n), n)
    return Graph.from_edges(
        (label[0 if j == 0 else 1 + leg * length + j - 1],
         label[1 + leg * length + j])
        for leg in range(legs) for j in range(length))


def copy(g):
    """An equal Graph that decompose has not seen."""
    return Graph(g.vertices, g.edges)


def rows():
    """(name, graph, what): what is the path's endpoints, None for the
    cycle, or the two verdicts both deciders must return."""
    k1 = star(2999)
    yield "K1,2999 path 1-2999", k1, (1, 2999)
    for k in (1000, 2000):
        w = windmill(k)
        yield f"windmill k={k} cycle", w, None
        yield f"windmill k={k} path 1-{2 * k}", w, (1, 2 * k)
    yield "windmill k=2000 verdicts", copy(w), POSITIVE
    chain = triangle_chain(2560)
    yield "triangle chain k=2560 cycle", chain, None
    yield "triangle chain k=2560 path 0-5120", chain, (0, 5120)
    yield "triangle chain k=2560 path 2560-2562", chain, (2560, 2562)
    yield "triangle chain k=2560 verdicts", copy(chain), POSITIVE
    mixed, joints = mixed_chain(6000)
    yield f"mixed C3/C4/K4 chain k=6000 n={mixed.n} cycle", mixed, None
    yield f"mixed C3/C4/K4 chain k=6000 path 0-{joints[-1]}", mixed, \
        (0, joints[-1])
    a, b = joints[2998:3000]  # the cutvertices of block 2999
    yield f"mixed C3/C4/K4 chain k=6000 path {a}-{b}", mixed, (a, b)
    yield "mixed C3/C4/K4 chain k=6000 verdicts", copy(mixed), POSITIVE
    thetas = theta_chain(2001)
    yield f"theta(1,4,4) chain k=2001 n={thetas.n} path 7000-7007", thetas, \
        (7000, 7007)
    yield "hub theta k=2000 path 0-1", hub_theta(2000), (0, 1)
    c = cycle(2000)
    yield "cycle block C2000 cycle", c, None
    yield "cycle block C2000 path 0-1000", c, (0, 1000)
    yield "cycle block C40000 cycle", cycle(40000), None
    leafy = leafy_bridge_chain(5000)
    yield f"leafy bridge chain k=5000 n={leafy.n} cycle", leafy, None
    yield "leafy bridge chain k=5000 verdicts", copy(leafy), BRIDGED
    yield "bridged triangles k=2000 cycle", bridged_triangles(2000), None
    cat = caterpillar(100_000, 60_000, 5)
    yield "caterpillar n=100,000 cycle", cat, None
    yield "caterpillar n=100,000 verdicts", copy(cat), BRIDGED
    yield "spider of 3 legs n=100,000 verdicts", spider(3, 33_333, 5), NEGATIVE


def parsed_mb(text):
    """The graph that parse_edge_list makes of text, and the MB (10**6
    bytes) that tracemalloc counts as held by it."""
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return g, held / 1e6


def cycle_peak_mb(g):
    """The cycle that construct_ham_cycle builds of g, and the MB that
    tracemalloc counts at its peak while it does."""
    tracemalloc.start()
    try:
        cyc = construct_ham_cycle(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return cyc, peak / 1e6


def main() -> int:
    bad = 0
    for name, g, ends in rows():
        start = time.process_time()
        verdicts = ends in (POSITIVE, BRIDGED, NEGATIVE)
        try:
            if verdicts:
                w = (decide_hamiltonicity(g).outcome,
                     decide_hamiltonian_connectedness(g).outcome)
            elif ends is None:
                w = construct_ham_cycle(g)
            else:
                w = construct_ham_path(g, *ends)
        except Exception as e:  # every failure is reported, then counted
            print(f"{name}: raised {type(e).__name__}: {e}")
            bad += 1
            continue
        cpu = time.process_time() - start
        if verdicts:
            valid = w == ends
        elif ends is None:
            valid = is_ham_cycle(g, w, square=True)
        else:
            valid = is_ham_path(g, w, *ends, square=True)
        verdict = "ok" if valid and cpu <= LIMIT_S else (
            "INVALID" if not valid else f"over {LIMIT_S} s")
        print(f"{name}: {cpu:.3f} s CPU, {verdict}")
        bad += verdict != "ok"
    chain = triangle_chain(100_000)
    g, held = parsed_mb(chain.edge_list_text())
    verdict = ("INVALID" if g != chain else "ok" if held <= MEMORY_LIMIT_MB
               else f"over {MEMORY_LIMIT_MB} MB")
    print(f"triangle chain k=100,000 n={g.n} parsed: {held:.1f} MB held, "
          f"{verdict}")
    bad += verdict != "ok"
    chain = triangle_chain(5000)
    cyc, peak = cycle_peak_mb(chain)
    verdict = ("INVALID" if not is_ham_cycle(chain, cyc, square=True)
               else "ok" if peak <= CYCLE_MEMORY_LIMIT_MB
               else f"over {CYCLE_MEMORY_LIMIT_MB} MB")
    print(f"triangle chain k=5000 cycle: {peak:.1f} MB peak, {verdict}")
    bad += verdict != "ok"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
