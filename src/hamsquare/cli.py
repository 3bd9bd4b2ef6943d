"""Command-line front end.

Eight subcommands: square, decompose, check-ham, check-hc, construct-cycle,
construct-path, counterexample, oracle. Every command reads one edge-list
file ("-" for standard input), prints a human report, and with --json emits
a single machine-readable object instead (schema in docs/verdict.schema.json).

Exit codes: 0 positive verdict or plain success, 1 definite negative
verdict, 2 structurally risky (the block structure admits a failing graph,
the input itself stays undecided), 64 usage error, 65 unreadable or invalid
input, 70 internal error (an unexpected exception, reported in one line on
stderr), 75 oracle budget exhausted without a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .graph import Graph, GraphParseError, parse_edge_list, cycle_edges, path_edges
from .decomposition import decompose, bc_tree, canonical_text
from .labelling import decide_hamiltonicity, HAMILTONIAN, NOT_HAMILTONIAN
from .hamconn import decide_hamiltonian_connectedness, HAM_CONNECTED, NOT_HAM_CONNECTED
from .construct import construct_ham_cycle, construct_ham_path
from .counterexamples import counterexample_for
from .oracle import cycle_with, path_with, BudgetExceeded

_OUTCOME_CODES = {
    "HAMILTONIAN": 0, "HAM_CONNECTED": 0, "FOUND": 0, "OK": 0,
    "NOT_HAMILTONIAN": 1, "NOT_HAM_CONNECTED": 1, "NOT_FOUND": 1,
    "STRUCTURALLY_RISKY": 2,
    "BUDGET_EXCEEDED": 75,
}


class _InputError(Exception):
    pass


@dataclass
class RunReport:
    command: str
    input: dict
    result: dict
    elapsed_s: float
    lines: tuple[str, ...]

    def to_json(self) -> str:
        payload = {"command": self.command, "input": self.input,
                   "result": self.result, "elapsed_s": self.elapsed_s}
        return json.dumps(payload, indent=2, sort_keys=True)

    @property
    def exit_code(self) -> int:
        return _OUTCOME_CODES[self.result["outcome"]]


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hamsquare",
        description="Hamiltonicity of graph squares from block-cutvertex "
                    "structure")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file", help="edge list file, or - for stdin")
        sp.add_argument("--json", action="store_true", dest="as_json")
        sp.add_argument("--dot", metavar="PATH", default=None)

    sp = sub.add_parser("square", help="print the square's edge list")
    common(sp)
    sp = sub.add_parser("decompose", help="blocks, cutvertices, bridges")
    common(sp)
    sp = sub.add_parser("check-ham", help="is the square hamiltonian?")
    common(sp)
    sp = sub.add_parser("check-hc", help="is the square hamiltonian connected?")
    common(sp)
    sp = sub.add_parser("construct-cycle", help="build a hamiltonian cycle "
                        "of the square")
    common(sp)
    sp = sub.add_parser("construct-path", help="build a hamiltonian path "
                        "of the square")
    common(sp)
    sp.add_argument("--pair", nargs=2, type=int, required=True,
                    metavar=("X", "Y"))
    sp = sub.add_parser("counterexample", help="emit a failing graph with "
                        "the same block-cutvertex tree")
    common(sp)
    sp.add_argument("--condition", choices=["4", "5", "6", "hc"],
                    required=True)
    sp = sub.add_parser("oracle", help="exhaustive search in the square")
    common(sp)
    sp.add_argument("--pair", nargs=2, type=int, default=None,
                    metavar=("X", "Y"))
    sp.add_argument("--node-budget", type=int, default=None)
    return p


def _load(path: str) -> Graph:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as e:
        raise _InputError(f"cannot read {path}: {e}")
    try:
        g = parse_edge_list(text)
    except GraphParseError as e:
        raise _InputError(str(e))
    if g.n == 0:
        raise _InputError("empty graph")
    if not g.is_connected():
        raise _InputError("input graph must be connected")
    return g


def _summary(g: Graph) -> dict:
    d = decompose(g)
    return {"vertices": g.n, "edges": g.m, "blocks": len(d.blocks),
            "cutvertices": len(d.cutvertices)}


def _edge_rows(g: Graph) -> list:
    return [[u, v] for u, v in g.sorted_edges()]


def _labelling_rows(lab) -> list:
    return [[c, t, v] for (c, t), v in sorted(lab.m.items())]


def _trace_lines(trace) -> list[str]:
    out = []
    for case, block, values in trace:
        vals = ", ".join(f"m({c})={v}" for c, v in values) or "stop"
        out.append(f"  case {case}, block {block}: {vals}")
    return out


def _check_pair(g: Graph, pair) -> tuple[int, int]:
    x, y = pair
    if x not in g.vertices or y not in g.vertices:
        raise _InputError(f"pair {x} {y} not among the vertices")
    if x == y:
        raise _InputError("pair must name two different vertices")
    return x, y


def _cmd_square(g, args):
    sq = g.square()
    lines = [sq.edge_list_text().rstrip()]
    if args.dot:
        Path(args.dot).write_text(sq.to_dot())
    return {"outcome": "OK", "edges": _edge_rows(sq)}, lines


def _cmd_decompose(g, args):
    d = decompose(g)
    lines = []
    for b in d.blocks:
        kind = "2-block" if b.is_two_block else "bridge"
        lines.append(f"block {b.index} ({kind}): "
                     + " ".join(str(v) for v in sorted(b.vertices)))
    lines.append("cutvertices: "
                 + (" ".join(map(str, sorted(d.cutvertices))) or "none"))
    lines.append("nontrivial bridges: "
                 + (" ".join(f"{u}-{v}" for u, v in sorted(d.nontrivial_bridges))
                    or "none"))
    for v in sorted(d.cutvertices):
        lines.append(f"  vertex {v}: bn={d.bn[v]} blocks={d.k[v]}")
    result = {
        "outcome": "OK",
        "blocks": [{"index": b.index,
                    "kind": "2-block" if b.is_two_block else "bridge",
                    "vertices": sorted(b.vertices)} for b in d.blocks],
        "cutvertices": sorted(d.cutvertices),
        "trivial_bridges": [list(e) for e in sorted(d.trivial_bridges)],
        "nontrivial_bridges": [list(e) for e in sorted(d.nontrivial_bridges)],
        "bn": {str(v): d.bn[v] for v in sorted(d.bn)},
        "k": {str(v): d.k[v] for v in sorted(d.k)},
        "bc_canonical": canonical_text(bc_tree(d).canonical()),
    }
    if args.dot:
        Path(args.dot).write_text(g.to_dot())
    return result, lines


def _cmd_check_ham(g, args):
    try:
        v = decide_hamiltonicity(g)
    except ValueError as e:
        raise _InputError(str(e))
    lines = [f"verdict: {v.outcome}"]
    result = {"outcome": v.outcome}
    if v.outcome == HAMILTONIAN:
        if v.labelling is not None and v.labelling.m:
            result["labelling"] = _labelling_rows(v.labelling)
            lines.append("labelling:")
            lines += [f"  m(vertex {c}, block {t}) = {val}"
                      for c, t, val in result["labelling"]]
        if v.trivial_reason:
            result["reason"] = v.trivial_reason
            lines.append(f"trivially hamiltonian: {v.trivial_reason}")
    else:
        result["reason"] = v.reason or ""
        lines.append(v.reason or "")
    if v.violated_condition is not None:
        result["violated_condition"] = v.violated_condition
    if v.trace:
        result["trace"] = [[case, block, [list(x) for x in values]]
                           for case, block, values in v.trace]
        lines += _trace_lines(v.trace)
    if args.dot:
        Path(args.dot).write_text(g.to_dot())
    return result, lines


def _cmd_check_hc(g, args):
    try:
        v = decide_hamiltonian_connectedness(g)
    except ValueError as e:
        raise _InputError(str(e))
    lines = [f"verdict: {v.outcome}"]
    result = {"outcome": v.outcome}
    if v.reason:
        result["reason"] = v.reason
        lines.append(v.reason)
    if v.outcome == NOT_HAM_CONNECTED and v.bridge is not None:
        result["bridge"] = list(v.bridge)
        lines.append(f"blocking bridge: {v.bridge[0]}-{v.bridge[1]}")
    if v.outcome == "STRUCTURALLY_RISKY":
        result["risky_block"] = v.risky_block
        result["risky_cvn"] = v.risky_cvn
    if args.dot:
        Path(args.dot).write_text(g.to_dot())
    return result, lines


def _cmd_construct_cycle(g, args):
    try:
        v = decide_hamiltonicity(g)
    except ValueError as e:
        raise _InputError(str(e))
    if v.outcome != HAMILTONIAN:
        result = {"outcome": v.outcome, "reason": v.reason or ""}
        if v.violated_condition is not None:
            result["violated_condition"] = v.violated_condition
        return result, [f"verdict: {v.outcome}", v.reason or ""]
    order = construct_ham_cycle(g, v.labelling)
    lines = ["cycle: " + " ".join(map(str, order))]
    if args.dot:
        Path(args.dot).write_text(g.square().to_dot(highlight=cycle_edges(order)))
    return {"outcome": "HAMILTONIAN", "witness": order}, lines


def _cmd_construct_path(g, args):
    x, y = _check_pair(g, args.pair)
    try:
        v = decide_hamiltonian_connectedness(g)
    except ValueError as e:
        raise _InputError(str(e))
    if v.outcome != HAM_CONNECTED:
        result = {"outcome": v.outcome, "reason": v.reason or ""}
        return result, [f"verdict: {v.outcome}", v.reason or ""]
    order = construct_ham_path(g, x, y)
    lines = [f"path {x} to {y}: " + " ".join(map(str, order))]
    if args.dot:
        Path(args.dot).write_text(g.square().to_dot(highlight=path_edges(order)))
    return {"outcome": "HAM_CONNECTED", "witness": order,
            "pair": [x, y]}, lines


def _cmd_counterexample(g, args):
    cond = args.condition if args.condition == "hc" else int(args.condition)
    try:
        out = counterexample_for(g, cond)
    except ValueError as e:
        raise _InputError(str(e))
    c1 = canonical_text(bc_tree(decompose(g)).canonical())
    c2 = canonical_text(bc_tree(decompose(out)).canonical())
    lines = [out.edge_list_text().rstrip(),
             f"bc-isomorphic to input: {'yes' if c1 == c2 else 'NO'}"]
    if args.dot:
        Path(args.dot).write_text(out.to_dot())
    return {"outcome": "OK", "edges": _edge_rows(out),
            "bc_isomorphic": c1 == c2}, lines


def _cmd_oracle(g, args):
    sq = g.square()
    try:
        if args.pair is None:
            w = cycle_with(sq, g, node_budget=args.node_budget)
        else:
            x, y = _check_pair(g, args.pair)
            w = path_with(sq, g, x, y, node_budget=args.node_budget)
    except BudgetExceeded as e:
        return ({"outcome": "BUDGET_EXCEEDED", "reason": str(e)},
                [f"no verdict: {e}"])
    if w is None:
        kind = "cycle" if args.pair is None else "path"
        return ({"outcome": "NOT_FOUND"},
                [f"no hamiltonian {kind} in the square"])
    order = list(w.order)
    lines = ["found: " + " ".join(map(str, order))]
    if args.dot:
        es = (cycle_edges(order) if args.pair is None else path_edges(order))
        Path(args.dot).write_text(sq.to_dot(highlight=es))
    return {"outcome": "FOUND", "witness": order}, lines


_HANDLERS = {
    "square": _cmd_square,
    "decompose": _cmd_decompose,
    "check-ham": _cmd_check_ham,
    "check-hc": _cmd_check_hc,
    "construct-cycle": _cmd_construct_cycle,
    "construct-path": _cmd_construct_path,
    "counterexample": _cmd_counterexample,
    "oracle": _cmd_oracle,
}


def _execute(args) -> RunReport:
    g = _load(args.file)
    t0 = time.perf_counter()
    result, lines = _HANDLERS[args.command](g, args)
    elapsed = time.perf_counter() - t0
    return RunReport(args.command, _summary(g), result, elapsed, tuple(lines))


def run(argv=None) -> RunReport:
    """Parse arguments, execute, and return the report (library entry)."""
    return _execute(_parser().parse_args(argv))


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 0
        return 64 if code != 0 else 0
    try:
        report = _execute(args)
    except _InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 65
    except Exception as e:  # 1 would read as a definite negative
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 70
    if args.as_json:
        print(report.to_json())
    else:
        for line in report.lines:
            if line:
                print(line)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
