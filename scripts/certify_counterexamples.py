#!/usr/bin/env python3
"""Certify the seven minimal counterexample families with the oracle.

Each family pairs a risky skeleton with the smallest failing instance that
shares its block-cutvertex tree. Certification checks the tree isomorphism
and lets the exhaustive search confirm the failure: no hamiltonian cycle in
the square, or some vertex pair without a hamiltonian path.
"""

import sys
import time

sys.path.insert(0, "src")
sys.path.insert(0, "tests")

from families import minimal_families
from properties import is_ham_connected
from hamsquare.decomposition import bc_canonical, decompose
from hamsquare.oracle import cycle_with


def main() -> int:
    ok = True
    print(f"{'family':24s} {'n':>3s} {'kind':13s} {'bc-iso':6s} "
          f"{'certified':9s} {'time':>6s}")
    for f in minimal_families():
        t0 = time.perf_counter()
        iso = (bc_canonical(decompose(f.skeleton))
               == bc_canonical(decompose(f.instance)))
        if f.kind == "cycle":
            fail = cycle_with(f.instance.square(), f.instance) is None
        else:
            fail = not is_ham_connected(f.instance.square())
        dt = time.perf_counter() - t0
        ok = ok and iso and fail and dt <= 5.0
        print(f"{f.name:24s} {f.instance.n:3d} {f.kind:13s} "
              f"{'yes' if iso else 'NO':6s} {'yes' if fail else 'NO':9s} "
              f"{dt:5.2f}s")
    print("all certified" if ok else "CERTIFICATION FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
