#!/usr/bin/env python3
"""Verify the per-block square properties over all small 2-connected graphs.

Enumerates 2-connected graphs from the networkx atlas (complete up to 7
vertices) and checks each property kind over its stated order range. Also
searches order-5 blocks for a failure of the five-vertex property, which is
expected to exist.
"""

import argparse
import sys
import time

sys.path.insert(0, "src")
sys.path.insert(0, "tests")

from properties import two_connected, verify_property

RANGES = {
    "twoBlockCycle": (3, 7),
    "strongF3": (3, 7),
    "strongF3ends": (3, 7),
    "H4": (4, 7),
    "F4": (4, 7),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=7,
                    help="upper bound on block order (atlas covers up to 7)")
    args = ap.parse_args()

    bad = 0
    for kind, (nmin, nmax) in RANGES.items():
        nmax = min(nmax, args.max_order)
        t0 = time.perf_counter()
        total = fails = 0
        for b in two_connected(nmin, nmax):
            total += 1
            res = verify_property(kind, b)
            if not res:
                fails += 1
                print(f"  FAIL {kind} on {b.n} vertices at {res.counterexample}:"
                      f" {b.sorted_edges()}")
        dt = time.perf_counter() - t0
        print(f"{kind:14s} orders {nmin}-{nmax}: {total - fails}/{total} hold"
              f"   [{dt:.1f}s]")
        bad += fails

    t0 = time.perf_counter()
    h5_fails = [(b, verify_property("H5", b).counterexample)
                for b in two_connected(5, 5) if not verify_property("H5", b)]
    dt = time.perf_counter() - t0
    print(f"{'H5 (negative)':14s} order 5: {len(h5_fails)} failing blocks "
          f"found (expected >= 1)   [{dt:.1f}s]")
    for b, cx in h5_fails:
        print(f"  H5 fails on {sorted(b.sorted_edges())} at subset {cx}")

    if bad or not h5_fails:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
