#!/usr/bin/env python3
"""Smoke-run the benchmark: one second per workload, every answer checked.

`perfbench/run.py` prints one JSON line per workload and exits 0 even when
a line says `"correct": false`. This script runs it with `--seconds 1` from
the root of the checkout and exits 1 unless there are exactly three result
lines, each with `"correct": true` and `"failed": 0`. It then runs three
workloads once more with `--trace 1` and exits 1 unless each run is
correct, failed nothing and saw its layers: chain-witness must report
the self time of `decomposition.decompose` and `decomposition.compute_P0`,
block-search `oracle.search` calls, forest-square the self time of
`graph.parse_edge_list`, `caterpillars.caterpillar_cycle` and
`decomposition.decompose`. The tracer rebinds these functions by name,
and a module that stopped calling them by name would hide them from it.
The bridge forest is walked only by the cycle merge, for a graph with a
2-block, so chain-witness, whose cycle requests walk the bridge forests
of its pendant leaves, is where `compute_P0` shows; the verdicts on
forest-square's trees read bn and walk no bridge forest.

chain-witness must run no oracle search and build no square
(`oracle.search.calls` and `graph.square.calls` 0): its blocks are C3, C4
and K4, and construct takes the witness of a block of at most four
vertices, whose square is complete, without either.

block-search must also build at most 240 squares per pass
(`graph.square.calls`). Its 96 graphs hold 240 2-blocks in all, and
construct keeps each 2-block's square for every request on a graph, so a
pass has each 2-block squared once per graph, whatever the number of
requests. A square per request and block, the cost this bound guards
against, comes to 960 per pass.

forest-square must build no square at all (`graph.square.calls` 0): its
trees get verdicts and cycles through the CLI, whose witnesses, the
largest of the three workloads, are validated against the square
without building it.

No workload may spend time checking a labelling
(`labelling.check_conditions.self_ms` 0): no request re-checks a
labelling it made itself, the CLI's `construct-cycle` included.
"""

import json
import subprocess
import sys

WORKLOADS = 3
# workload -> the per-layer metrics that its traced run must report above 0
TRACED = {
    "chain-witness": ("decomposition.decompose.self_ms",
                      "decomposition.compute_P0.self_ms"),
    "block-search": ("oracle.search.calls",),
    "forest-square": ("graph.parse_edge_list.self_ms",
                      "caterpillars.caterpillar_cycle.self_ms",
                      "decomposition.decompose.self_ms"),
}
# workload -> the per-layer metrics that its traced run must keep at or
# below a ceiling per pass
NO_CHECK = {"labelling.check_conditions.self_ms": 0}
CEILINGS = {"chain-witness": {"oracle.search.calls": 0,
                              "graph.square.calls": 0, **NO_CHECK},
            "block-search": {"graph.square.calls": 240, **NO_CHECK},
            "forest-square": {"graph.square.calls": 0, **NO_CHECK}}


def traced_ok(workload: str, metrics) -> bool:
    """Whether a traced one-second run of the workload is correct, reports
    each of the metrics above 0 and keeps each of its ceilings."""
    ceilings = CEILINGS.get(workload, {})
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    names = [*metrics, *ceilings]
    try:
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        values = {m: row["metrics"].get(m, {}).get("value") for m in names}
    except (IndexError, AttributeError, KeyError, TypeError, ValueError):
        row, values = {}, dict.fromkeys(names)
    number = {m: isinstance(v, (int, float)) for m, v in values.items()}
    good = (proc.returncode == 0 and row.get("correct") is True
            and row.get("failed") == 0
            and all(number[m] and values[m] > 0 for m in metrics)
            and all(number[m] and values[m] <= top
                    for m, top in ceilings.items()))
    print(f"{workload + ' traced':22s} correct={row.get('correct')} "
          f"failed={row.get('failed')} "
          + " ".join(f"{m}={v}" for m, v in values.items())
          + ("" if good else "  FAILED"))
    return good


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
    traced = all([traced_ok(*t) for t in TRACED.items()])
    ok = ok and traced
    print("benchmark smoke ok" if ok else
          f"BENCHMARK SMOKE FAILED (exit {proc.returncode}, "
          f"{len(results)} of {WORKLOADS} result lines, traced run "
          f"{'ok' if traced else 'failed'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
