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
import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .graph import Graph, GraphParseError, parse_edge_list, cycle_edges, path_edges
from .decomposition import decompose, bc_canonical
from .labelling import decide_hamiltonicity, HAMILTONIAN, NOT_HAMILTONIAN
from .hamconn import decide_hamiltonian_connectedness, NOT_HAM_CONNECTED
from .construct import construct_ham_cycle, construct_ham_path, NoLabellingError
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


def _positive_int(text: str) -> int:
    """An argparse type: a positive integer, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as is."""
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
    sp.add_argument("--node-budget", type=_positive_int, default=None)
    return p


def _load(path: str) -> Graph:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise _InputError(f"cannot read {path}: {e}")
    try:
        g = parse_edge_list(text)
    except GraphParseError as e:
        raise _InputError(str(e))
    if g.n == 0:
        raise _InputError("empty graph")
    return g


def _summary(g: Graph, d) -> dict:
    return {"vertices": g.n, "edges": g.m, "blocks": d.block_count(),
            "cutvertices": len(d.cutvertices)}


def _edge_rows(g: Graph) -> list:
    return [[u, v] for u, v in g.sorted_edges()]


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


def _cmd_square(g, d, args):
    sq = g.square()
    lines = [sq.edge_list_text().rstrip()]
    return {"outcome": "OK", "edges": _edge_rows(sq)}, lines, sq.to_dot


def _cmd_decompose(g, d, args):
    lines, rows = [], []
    for t, r in enumerate(d.records):
        kind = "bridge" if len(r) == 2 else "2-block"
        vs = sorted(r if len(r) == 2 else r[3])
        lines.append(f"block {t} ({kind}): " + " ".join(map(str, vs)))
        rows.append({"index": t, "kind": kind, "vertices": vs})
    lines.append("cutvertices: "
                 + (" ".join(map(str, sorted(d.cutvertices))) or "none"))
    lines.append("nontrivial bridges: "
                 + (" ".join(f"{u}-{v}" for u, v in sorted(d.nontrivial_bridges))
                    or "none"))
    for v in sorted(d.cutvertices):
        lines.append(f"  vertex {v}: bn={d.bn[v]} blocks={d.k[v]}")
    result = {
        "outcome": "OK",
        "blocks": rows,
        "cutvertices": sorted(d.cutvertices),
        "trivial_bridges": [list(r) for r in d.records  # by least edge
                            if len(r) == 2 and r not in d.nontrivial_bridges],
        "nontrivial_bridges": [list(e) for e in sorted(d.nontrivial_bridges)],
        "bn": {str(v): d.bn[v] for v in sorted(d.bn)},
        "k": {str(v): d.k[v] for v in sorted(d.k)},
        "bc_canonical": bc_canonical(d),
    }
    return result, lines, g.to_dot


def _cmd_check_ham(g, d, args):
    try:
        v = decide_hamiltonicity(g)
    except ValueError as e:
        raise _InputError(str(e))
    lines = [f"verdict: {v.outcome}"]
    result = {"outcome": v.outcome}
    if v.outcome == HAMILTONIAN:
        if v.labelling is not None and v.labelling.m:
            result["labelling"] = [[c, t, val] for (c, t), val
                                   in sorted(v.labelling.m.items())]
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
    return result, lines, g.to_dot


def _cmd_check_hc(g, d, args):
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
    return result, lines, g.to_dot


def _cmd_construct_cycle(g, d, args):
    try:
        order = construct_ham_cycle(g)
    except ValueError as e:
        if g.n >= 3:  # not the decider's "too small": a refusal or a fault
            raise
        raise _InputError(str(e))
    lines = ["cycle: " + " ".join(map(str, order))]
    return ({"outcome": "HAMILTONIAN", "witness": order}, lines,
            lambda: g.square().to_dot(highlight=cycle_edges(order)))


def _cmd_construct_path(g, d, args):
    x, y = _check_pair(g, args.pair)
    order = construct_ham_path(g, x, y)
    lines = [f"path {x} to {y}: " + " ".join(map(str, order))]
    return ({"outcome": "HAM_CONNECTED", "witness": order, "pair": [x, y]},
            lines, lambda: g.square().to_dot(highlight=path_edges(order)))


def _cmd_counterexample(g, d, args):
    cond = args.condition if args.condition == "hc" else int(args.condition)
    try:
        out = counterexample_for(g, cond)
    except ValueError as e:
        raise _InputError(str(e))
    iso = bc_canonical(d) == bc_canonical(decompose(out))
    lines = [out.edge_list_text().rstrip(),
             f"bc-isomorphic to input: {'yes' if iso else 'NO'}"]
    return ({"outcome": "OK", "edges": _edge_rows(out), "bc_isomorphic": iso},
            lines, out.to_dot)


def _cmd_oracle(g, d, args):
    pair = None if args.pair is None else _check_pair(g, args.pair)
    sq = g.square()
    if pair is None:
        w = cycle_with(sq, g, node_budget=args.node_budget)
        kind, edges = "cycle", cycle_edges
    else:
        w = path_with(sq, g, *pair, node_budget=args.node_budget)
        kind, edges = "path", path_edges
    if w is None:
        return ({"outcome": "NOT_FOUND"},
                [f"no hamiltonian {kind} in the square"], None)
    order = list(w.order)
    return ({"outcome": "FOUND", "witness": order},
            ["found: " + " ".join(map(str, order))],
            lambda: sq.to_dot(highlight=edges(order)))


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
    """Run one command; the graph is decomposed once, for the summary and,
    through decompose's memo, the handler; that traversal proves it connected.
    A handler returns its result, its lines and a callable giving the --dot
    text, or None; a constructor's refusal and an overrun are rendered here."""
    g = _load(args.file)
    t0 = time.perf_counter()
    try:
        d = decompose(g)
    except ValueError as e:  # g is not connected
        raise _InputError(str(e))
    try:
        result, lines, dot = _HANDLERS[args.command](g, d, args)
    except NoLabellingError as e:  # the command's one decision, not positive
        v = e.verdict
        result = {"outcome": v.outcome, "reason": v.reason or ""}
        if getattr(v, "violated_condition", None) is not None:
            result["violated_condition"] = v.violated_condition
        lines, dot = [f"verdict: {v.outcome}", v.reason or ""], None
    except BudgetExceeded as e:
        result = {"outcome": "BUDGET_EXCEEDED", "reason": str(e)}
        lines, dot = [f"no verdict: {e}"], None
    if args.dot and dot is not None:
        Path(args.dot).write_text(dot())
    elapsed = time.perf_counter() - t0
    return RunReport(args.command, _summary(g, d), result, elapsed,
                     tuple(lines))


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
