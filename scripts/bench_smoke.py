#!/usr/bin/env python3
"""Smoke-run the benchmark: one second per workload, every answer checked.

`perfbench/run.py` prints one JSON line per workload and exits 0 even when
a line says `"correct": false`. This script runs it with `--seconds 1` from
the root of the checkout and exits 1 unless there are exactly three result
lines, each with `"correct": true` and `"failed": 0`.
"""

import json
import subprocess
import sys

WORKLOADS = 3


def main() -> int:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1"],
        capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    results = []
    for line in proc.stdout.splitlines():
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if isinstance(row, dict) and "workload" in row:
            results.append(row)
    ok = proc.returncode == 0 and len(results) == WORKLOADS
    for row in results:
        good = row.get("correct") is True and row.get("failed") == 0
        ok = ok and good
        print(f"{row['workload']:14s} correct={row.get('correct')} "
              f"failed={row.get('failed')} attempted={row.get('attempted')}"
              f"{'' if good else '  FAILED'}")
    print("benchmark smoke ok" if ok else
          f"BENCHMARK SMOKE FAILED (exit {proc.returncode}, "
          f"{len(results)} of {WORKLOADS} result lines)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
