#!/usr/bin/env python3
"""Benchmark of hamsquare, timed from outside the package.

    python3 perfbench/run.py --workload chain-witness --seed 1 --seconds 20
    python3 perfbench/run.py --workload forest-square --seed 1 --trace 1
    python3 perfbench/run.py                     # every workload, each in
                                                 # its own fresh process

Run from the root of a checkout; hamsquare is imported from ./src. One run
is one workload in one process: set-up (import, parse of every input from
edge-list text, one warm-up pass), then whole passes over the workload's
operations, one at a time, until the passes have taken --seconds. Every
output is checked by checker.py outside the timed calls. Every time is
CPU time scaled to a reference speed of the machine (speed.py). The last line
printed is one JSON object: correct, attempted, failed and the metrics by
name and unit (end-to-end ones with --trace 0, per-layer ones with
--trace 1). README.md defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
SCHEMA = Path.cwd() / "docs" / "verdict.schema.json"
OUT = HERE / "out"
CHILD_SETUPS = 2           # fresh-process set-ups per run, besides its own
CHILD_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
import checker  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import REF_NS, clock, kernel_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PER_LAYER = (
    ("graph.parse_edge_list.self_ms", "ms"),
    ("graph.square.calls", "count"),
    ("graph.square.self_ms", "ms"),
    ("graph.is_ham_cycle.self_ms", "ms"),
    ("graph.is_ham_path.self_ms", "ms"),
    ("decomposition.decompose.calls", "count"),
    ("decomposition.decompose.self_ms", "ms"),
    ("decomposition.compute_P0.self_ms", "ms"),
    ("caterpillars.caterpillar_cycle.self_ms", "ms"),
    ("caterpillars.replace_edge_with.calls", "count"),
    ("labelling.decide_hamiltonicity.self_ms", "ms"),
    ("labelling.check_conditions.self_ms", "ms"),
    ("hamconn.decide_hamiltonian_connectedness.self_ms", "ms"),
    ("oracle.search.calls", "count"),
    ("oracle.search.self_ms", "ms"),
    ("oracle.search.found_ratio", "ratio"),
    ("construct.construct_ham_cycle.self_ms", "ms"),
    ("construct.construct_ham_path.self_ms", "ms"),
    ("cli.run.self_ms", "ms"),
)


@dataclass(frozen=True)
class Op:
    gid: str
    label: str
    kind: str                                   # "verdict" or "witness"
    call: Callable[[], object]
    verify: Callable[[object, checker.Structure], str | None]


def library_ops(hs, case, g) -> list[Op]:
    """Verdicts and witnesses through the library's public functions."""
    ops = [
        Op(case.gid, "check-ham", "verdict",
           lambda: hs.decide_hamiltonicity(g),
           lambda v, s: checker.check_ham_outcome(s, v.outcome, case.ham)),
        Op(case.gid, "check-hc", "verdict",
           lambda: hs.decide_hamiltonian_connectedness(g),
           lambda v, s: checker.check_hc_outcome(s, v.outcome, case.hc)),
    ]
    if case.cycle:
        ops.append(Op(case.gid, "cycle", "witness",
                      lambda: hs.construct_ham_cycle(g),
                      lambda c, s: checker.check_cycle(s, c)))
    for x, y in case.pairs:
        ops.append(Op(case.gid, f"path {x} {y}", "witness",
                      lambda x=x, y=y: hs.construct_ham_path(g, x, y),
                      lambda p, s, x=x, y=y: checker.check_path(s, p, x, y)))
    return ops


def cli_ops(hs, case, path: Path, payloads) -> list[Op]:
    """`hamsquare <command> FILE --json` in process: run, to_json and
    exit_code."""
    def op(command, kind, expected):
        def call():
            report = hs.cli.run([command, str(path), "--json"])
            return report.to_json(), report.exit_code

        def verify(out, s):
            return payloads.check(s, command, out[0], out[1], expected)
        return Op(case.gid, command, kind, call, verify)

    ops = [op("check-ham", "verdict", case.ham),
           op("check-hc", "verdict", case.hc)]
    if case.cycle:
        ops.append(op("construct-cycle", "witness", case.ham))
    return ops


def set_up(workload, cases, inputs: Path, payloads, tracer=None):
    """Import hamsquare, parse every input, run one warm-up pass.

    Returns the set-up's CPU seconds at the reference speed, without the
    kernel runs between its steps, and the operations of one pass.
    """
    kernel = []
    start = clock()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    hs = importlib.import_module("hamsquare")
    importlib.import_module("hamsquare.cli")
    if tracer is not None:
        tracer.install()
        tracer.phase = "parse"
    ops = []
    for case in cases:
        if tracer is not None:
            tracer.gid = case.gid
        kernel.append(kernel_time())
        g = hs.parse_edge_list(case.text)
        if workload == "forest-square":  # the CLI parses its file again
            ops += cli_ops(hs, case, inputs / f"{case.gid}.txt", payloads)
        else:
            ops += library_ops(hs, case, g)
    if tracer is not None:
        tracer.phase = "warmup"
    for op in ops:
        if tracer is not None:
            tracer.gid = op.gid
        kernel.append(kernel_time())
        try:
            op.call()
        except Exception:  # counted when the timed passes meet it
            pass
    took = clock() - start - sum(kernel)
    return took * REF_NS / statistics.fmean(kernel) / 1e9, ops


def inputs_dir(args) -> Path:
    """Where a run writes the edge-list files the CLI reads."""
    return OUT / f"inputs-{args.workload}-{args.seed}"


def write_inputs(cases, inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    for case in cases:
        (inputs / f"{case.gid}.txt").write_text(case.text)


def child_setup(args) -> float:
    """Set-up time of a fresh process running the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def tail_level(count: int) -> int:
    """The highest whole percentile with at least ten of `count` samples
    beyond it (inclusive interpolation over the sorted samples)."""
    level = 99
    while level > 1 and count - 1 - (count - 1) * level // 100 < 10:
        level -= 1
    return level


def end_to_end(timed, n_graphs, setup_times) -> dict:
    """timed: (op, its durations in ns) for every op that never failed."""
    mean = [(op.kind, statistics.fmean(s)) for op, s in timed]
    verdict = [m for kind, m in mean if kind == "verdict"]
    witness = sorted(m for kind, m in mean if kind == "witness")
    level = tail_level(len(witness))
    tail = statistics.quantiles(witness, n=100, method="inclusive")[level - 1]
    pass_s = sum(m for _, m in mean) / 1e9
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "verdict_ms.p50": {"value": statistics.median(verdict) / 1e6,
                           "unit": "ms"},
        "witness_ms.p50": {"value": statistics.median(witness) / 1e6,
                           "unit": "ms"},
        "witness_ms.tail": {"value": tail / 1e6, "unit": "ms"},
        "graphs_per_s": {"value": n_graphs / pass_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }


def run_pass(ops, samples, structures, tracer, raised, wrong) -> float:
    """Every operation once, in order; checks run outside the timed call.

    The speed kernel runs right before and right after each operation.
    The operation's CPU time is scaled to the reference speed by the mean
    of those two kernel times. Returns the kernel's mean time over the pass.
    """
    kernel = []
    for op, durations in zip(ops, samples):
        if tracer is not None:
            tracer.gid = op.gid
        gc.collect()
        before = kernel_time()
        try:
            t0 = clock()
            out = op.call()
            t1 = clock()
        except Exception as e:
            raised.append(f"{op.gid} {op.label}: raised {e!r}")
            continue
        after = kernel_time()
        kernel += [before, after]
        problem = op.verify(out, structures[op.gid])
        del out
        if problem:
            wrong.append(f"{op.gid} {op.label}: {problem}")
        else:
            durations.append((t1 - t0) * REF_NS * 2 / (before + after))
    return statistics.fmean(kernel) if kernel else float("nan")


def measure(args) -> dict:
    cases = WORKLOADS[args.workload](args.seed)
    structures = {c.gid: checker.Structure(c.text) for c in cases}
    payloads = checker.PayloadChecker(SCHEMA)
    inputs = inputs_dir(args)
    write_inputs(cases, inputs)
    tracer = Tracer() if args.trace else None
    # Fresh-process set-ups are spread over the run, one each time another
    # share of --seconds has been measured, so that a slow spell of the
    # machine meets few of them. Their time does not count as measured.
    children = 0 if tracer else CHILD_SETUPS
    due = [(j + 0.5) * args.seconds / children for j in range(children)]
    try:
        gc.collect()
        took, ops = set_up(args.workload, cases, inputs, payloads, tracer)
        setup_times = [took]
        # The inputs live for the whole run: keep them out of every
        # collection the timed calls trigger.
        gc.collect()
        gc.freeze()
        if tracer is not None:
            tracer.phase = "pass"
        samples = [[] for _ in ops]
        raised, wrong = [], []
        passes, measured, kernel_ns = 0, 0.0, []
        while passes == 0 or measured < args.seconds:
            start = time.perf_counter()
            kernel_ns.append(
                run_pass(ops, samples, structures, tracer, raised, wrong))
            measured += time.perf_counter() - start
            passes += 1
            while due and due[0] <= measured:
                due.pop(0)
                setup_times.append(child_setup(args))
        setup_times += [child_setup(args) for _ in due]
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    for line in dict.fromkeys(raised + wrong):
        print(f"FAILED {line}", file=sys.stderr)
    print(f"speed kernel: {min(kernel_ns) / 1e6:.3f}-"
          f"{max(kernel_ns) / 1e6:.3f} ms, the means of {passes} passes",
          file=sys.stderr)
    timed = [(op, s) for op, s in zip(ops, samples) if s]
    if tracer is not None:
        metrics = layer_metrics(args, tracer, passes, timed,
                                REF_NS / statistics.fmean(kernel_ns))
    else:
        metrics = end_to_end(timed, len(cases), setup_times)
    # A wrong answer makes the run incorrect; an operation that raised is
    # counted as failed only.
    return {"correct": not wrong, "attempted": passes * len(ops),
            "failed": len(raised) + len(wrong), "metrics": metrics}


def layer_metrics(args, tracer, passes, timed, scale) -> dict:
    """Per-layer figures of a traced run. Self times are scaled to the
    reference speed by the speed kernel's mean time over the whole run."""
    table = tracer.layer_table(passes, scale)
    pass_ms = sum(statistics.fmean(s) for _, s in timed) / 1e6
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as f:
        f.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "passes": passes,
            "traced_pass_ms": pass_ms, "speed_scale": scale,
            "layers": table,
            "span_fields": ["layer", "start_ns", "end_ns", "parent",
                            "graph", "phase", "found"]}) + "\n")
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")
    metrics = {}
    for name, unit in PER_LAYER:
        layer, _, field = name.rpartition(".")
        metrics[name] = {"value": table[layer][field], "unit": unit}
    return metrics


def run_all(args) -> int:
    """Every workload in its own fresh process, one result line each."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
        print(json.dumps({"workload": name, **json.loads(last[0])}))
        status = status or proc.returncode
    return status


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if not (SRC / "hamsquare" / "__init__.py").is_file() or \
            not SCHEMA.is_file():
        print(f"error: run from the root of a hamsquare checkout "
              f"({SRC / 'hamsquare'} or {SCHEMA} is missing)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        cases = WORKLOADS[args.workload](args.seed)
        took, _ = set_up(args.workload, cases, inputs_dir(args), None)
        print(took)
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
