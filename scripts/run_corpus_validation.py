#!/usr/bin/env python3
"""Sweep the structured corpus and cross-check every verdict with the oracle.

For each corpus graph the hamiltonicity decision is compared against an
exhaustive cycle search in the square, and the connectedness decision against
an all-pairs path search. Structurally risky verdicts are tallied but not
counted as errors: they assert something about the block-cutvertex tree, not
about the input graph itself.
"""

import argparse
import sys
import time

sys.path.insert(0, "src")
sys.path.insert(0, "tests")

from corpus import corpus
from hamsquare.labelling import decide_hamiltonicity, HAMILTONIAN, NOT_HAMILTONIAN
from hamsquare.hamconn import decide_hamiltonian_connectedness, HAM_CONNECTED, NOT_HAM_CONNECTED
from hamsquare.construct import construct_ham_cycle, construct_ham_path
from hamsquare.graph import is_ham_cycle, is_ham_path
from hamsquare.oracle import cycle_with
from properties import is_ham_connected
import itertools


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    graphs = corpus()
    print(f"corpus: {len(graphs)} graphs up to 8 vertices")

    t0 = time.perf_counter()
    counts = {HAMILTONIAN: 0, NOT_HAMILTONIAN: 0, "STRUCTURALLY_RISKY": 0}
    errors = []
    for g in graphs:
        if g.n < 3:
            continue
        v = decide_hamiltonicity(g)
        counts[v.outcome] += 1
        truth = cycle_with(g.square(), g) is not None
        if v.outcome == HAMILTONIAN and not truth:
            errors.append(("false positive", g.edge_list_text()))
        if v.outcome == NOT_HAMILTONIAN and truth:
            errors.append(("false negative", g.edge_list_text()))
        if v.outcome == HAMILTONIAN:
            cyc = construct_ham_cycle(g)
            if not is_ham_cycle(g.square(), cyc):
                errors.append(("bad cycle witness", g.edge_list_text()))
    dt = time.perf_counter() - t0
    print(f"hamiltonicity: {counts[HAMILTONIAN]} positive, "
          f"{counts[NOT_HAMILTONIAN]} negative, "
          f"{counts['STRUCTURALLY_RISKY']} risky   [{dt:.1f}s]")

    t0 = time.perf_counter()
    hc_counts = {HAM_CONNECTED: 0, NOT_HAM_CONNECTED: 0, "STRUCTURALLY_RISKY": 0}
    for g in graphs:
        if g.n < 2:
            continue
        v = decide_hamiltonian_connectedness(g)
        hc_counts[v.outcome] += 1
        if v.outcome == NOT_HAM_CONNECTED:
            if is_ham_connected(g.square()):
                errors.append(("hc false negative", g.edge_list_text()))
        if v.outcome == HAM_CONNECTED:
            sq = g.square()
            for x, y in itertools.combinations(g.sorted_vertices(), 2):
                p = construct_ham_path(g, x, y)
                if not is_ham_path(sq, p, x, y):
                    errors.append((f"bad path witness {x}-{y}",
                                   g.edge_list_text()))
    dt = time.perf_counter() - t0
    print(f"connectedness: {hc_counts[HAM_CONNECTED]} positive, "
          f"{hc_counts[NOT_HAM_CONNECTED]} negative, "
          f"{hc_counts['STRUCTURALLY_RISKY']} risky   [{dt:.1f}s]")

    if errors:
        print(f"\n{len(errors)} DISCREPANCIES:")
        for kind, text in errors:
            print(f"- {kind}:")
            for line in text.splitlines():
                print(f"    {line}")
        return 1
    print("no discrepancies")
    return 0


if __name__ == "__main__":
    sys.exit(main())
