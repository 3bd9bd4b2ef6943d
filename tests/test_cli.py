"""Command-line interface: exit codes, reports, JSON schema conformance."""

import ast
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from hamsquare import cli, labelling
from hamsquare.cli import main, run
from hamsquare.construct import construct_ham_cycle, construct_ham_path
from hamsquare.decomposition import decompose
from hamsquare.graph import Graph, parse_edge_list
from hamsquare.hamconn import decide_hamiltonian_connectedness
from hamsquare.labelling import decide_hamiltonicity
from caterpillar_reference import from_adjacency, is_caterpillar
from corpus import corpus
from test_labelling import _random_block_tree

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "verdict.schema.json")
    .read_text())

BOWTIE_TXT = "0 1\n1 2\n0 2\n0 3\n3 4\n0 4\n"
SPIDER_TXT = "0 1\n1 2\n0 3\n3 4\n0 5\n5 6\n"
P4_TXT = "0 1\n1 2\n2 3\n"
RISKY_TXT = "\n".join(f"{u} {v}" for u, v in
                      [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)]) + "\n"
K25P_TXT = "\n".join(
    [f"0 {v}" for v in range(2, 7)] + [f"1 {v}" for v in range(2, 7)]
    + [f"{v} {v + 10}" for v in range(2, 7)]) + "\n"


@pytest.fixture
def gfile(tmp_path):
    def write(text, name="g.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def _json_out(capsys):
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, SCHEMA)
    return data


def test_square_ok(gfile, capsys):
    assert main(["square", gfile(BOWTIE_TXT), "--json"]) == 0
    data = _json_out(capsys)
    assert data["result"]["outcome"] == "OK"
    assert [0, 1] in data["result"]["edges"]
    assert [1, 4] in data["result"]["edges"]  # a distance-2 pair
    assert data["input"]["vertices"] == 5


def test_decompose_report(gfile, capsys):
    assert main(["decompose", gfile(BOWTIE_TXT)]) == 0
    out = capsys.readouterr().out
    assert "cutvertices: 0" in out
    assert "2-block" in out


def test_decompose_json_carries_canonical_form(gfile, capsys):
    assert main(["decompose", gfile(P4_TXT), "--json"]) == 0
    data = _json_out(capsys)
    assert data["result"]["bc_canonical"]
    assert data["result"]["nontrivial_bridges"] == [[1, 2]]


def test_check_ham_positive(gfile, capsys):
    assert main(["check-ham", gfile(BOWTIE_TXT), "--json"]) == 0
    data = _json_out(capsys)
    assert data["result"]["outcome"] == "HAMILTONIAN"
    assert sorted(data["result"]["labelling"]) == data["result"]["labelling"]
    assert all(v == 2 for _, _, v in data["result"]["labelling"])


def test_check_ham_negative(gfile, capsys):
    assert main(["check-ham", gfile(SPIDER_TXT), "--json"]) == 1
    data = _json_out(capsys)
    assert data["result"]["outcome"] == "NOT_HAMILTONIAN"
    assert data["result"]["reason"]


def test_check_ham_risky(gfile, capsys):
    assert main(["check-ham", gfile(K25P_TXT), "--json"]) == 2
    data = _json_out(capsys)
    assert data["result"]["outcome"] == "STRUCTURALLY_RISKY"
    assert data["result"]["violated_condition"] == 5


def test_check_hc_codes(gfile, capsys):
    assert main(["check-hc", gfile(BOWTIE_TXT)]) == 0
    capsys.readouterr()
    assert main(["check-hc", gfile(P4_TXT), "--json"]) == 1
    data = _json_out(capsys)
    assert data["result"]["bridge"] == [1, 2]
    assert main(["check-hc", gfile(RISKY_TXT), "--json"]) == 2
    data = _json_out(capsys)
    assert data["result"]["risky_cvn"] == 3


def test_construct_cycle(gfile, capsys, tmp_path):
    dot = tmp_path / "out.dot"
    assert main(["construct-cycle", gfile(BOWTIE_TXT), "--dot", str(dot)]) == 0
    assert "cycle: 0 1 2 3 4" in capsys.readouterr().out
    text = dot.read_text()
    assert "penwidth" in text and "--" in text


# a C5 with a triangle hung at each of its vertices is risky
C5_TRIANGLES_TXT = "".join(f"{i} {(i + 1) % 5}\n{i} {2 * i + 5}\n"
                           f"{i} {2 * i + 6}\n{2 * i + 5} {2 * i + 6}\n"
                           for i in range(5))


def test_construct_cycle_refuses_negative(gfile, capsys):
    assert main(["construct-cycle", gfile(SPIDER_TXT), "--json"]) == 1
    data = _json_out(capsys)
    assert data["result"]["outcome"] == "NOT_HAMILTONIAN"
    assert "witness" not in data["result"]
    assert main(["construct-cycle", gfile(C5_TRIANGLES_TXT), "--json"]) == 2
    data = _json_out(capsys)
    assert data["result"]["violated_condition"] == 5
    assert "witness" not in data["result"]


def test_construct_cycle_peels_once(gfile, monkeypatch, capsys):
    peels = []
    peel = labelling._peel
    monkeypatch.setattr(labelling, "_peel",
                        lambda g, d: peels.append(g) or peel(g, d))
    chain = "".join(f"{2 * t} {2 * t + 1}\n{2 * t + 1} {2 * t + 2}\n"
                    f"{2 * t} {2 * t + 2}\n" for t in range(4))
    for text, code in ((chain, 0), (C5_TRIANGLES_TXT, 2)):
        assert main(["construct-cycle", gfile(text)]) == code
        assert len(peels) == 1  # the constructor's decision is the CLI's
        peels.clear()
    assert capsys.readouterr().out.startswith("cycle: ")


def test_construct_path(gfile, capsys):
    assert main(["construct-path", gfile(BOWTIE_TXT), "--pair", "1", "4",
                 "--json"]) == 0
    data = _json_out(capsys)
    assert data["result"]["witness"] == [1, 2, 0, 3, 4]
    assert data["result"]["pair"] == [1, 4]
    assert main(["construct-path", gfile("0 1\n"), "--pair", "0", "1"]) == 0
    assert capsys.readouterr().out == "path 0 to 1: 0 1\n"


def test_construct_path_pair_errors(gfile, capsys):
    assert main(["construct-path", gfile(BOWTIE_TXT)]) == 64  # --pair missing
    capsys.readouterr()
    assert main(["construct-path", gfile(BOWTIE_TXT), "--pair", "2", "2"]) == 65
    assert main(["construct-path", gfile(BOWTIE_TXT), "--pair", "0", "9"]) == 65
    assert main(["construct-path", gfile(P4_TXT), "--pair", "0", "3"]) == 1


def test_construct_path_decides_once(gfile, monkeypatch, capsys):
    calls, real = [], decide_hamiltonian_connectedness
    for name, mod in list(sys.modules.items()):  # each module that binds it
        if name.startswith("hamsquare") and vars(mod).get(
                "decide_hamiltonian_connectedness") is real:
            monkeypatch.setattr(mod, "decide_hamiltonian_connectedness",
                                lambda g: calls.append(g) or real(g))
    for text, pair, code in ((BOWTIE_TXT, ["1", "4"], 0),
                             (P4_TXT, ["0", "3"], 1),
                             (RISKY_TXT, ["3", "4"], 2)):
        calls.clear()
        assert main(["construct-path", gfile(text), "--pair", *pair]) == code
        assert len(calls) == 1  # the constructor's decision is the CLI's
    assert "verdict: STRUCTURALLY_RISKY" in capsys.readouterr().out


def test_no_dot_file_without_a_witness(gfile, tmp_path, capsys):
    dot = tmp_path / "out.dot"
    for cmd, text, code in (
            (["construct-cycle"], SPIDER_TXT, 1),
            (["construct-cycle"], C5_TRIANGLES_TXT, 2),
            (["construct-path", "--pair", "0", "3"], P4_TXT, 1),
            (["construct-path", "--pair", "3", "4"], RISKY_TXT, 2),
            (["oracle"], SPIDER_TXT, 1),
            (["oracle", "--node-budget", "1"], BOWTIE_TXT, 75),
            (["oracle", "--pair", "0", "3", "--node-budget", "1"], P4_TXT,
             75)):
        assert main([cmd[0], gfile(text), *cmd[1:], "--dot", str(dot)]) == code
        assert not dot.exists(), cmd


_DOT = [(["square"], None), (["decompose"], None), (["check-hc"], None),
        (["construct-path", "--pair", "1", "4"], "path"),
        (["counterexample", "--condition", "4"], None),
        (["oracle"], "cycle"), (["oracle", "--pair", "1", "4"], "path")]


@pytest.mark.parametrize("cmd, kind", _DOT, ids=[
    "square", "decompose", "check-hc", "construct-path", "counterexample",
    "oracle", "oracle-pair"])
def test_dot_file_marks_exactly_the_witness(gfile, tmp_path, cmd, kind):
    # a condition-4 counterexample needs a heavy hub
    text = SPIDER_TXT if cmd[0] == "counterexample" else BOWTIE_TXT
    dot = tmp_path / "out.dot"
    report = run(cmd + [gfile(text), "--dot", str(dot)])
    assert report.exit_code == 0
    lines = dot.read_text().splitlines()
    red = {tuple(sorted(map(int, line.split("[")[0].split("--"))))
           for line in lines if "color=red" in line}
    w = report.result.get("witness", [])
    steps = zip(w, w[1:] + w[:1] if kind == "cycle" else w[1:])
    assert lines[0] == "graph G {" and red == {tuple(sorted(e)) for e in steps}


def test_counterexample_command(gfile, capsys):
    assert main(["counterexample", gfile(RISKY_TXT), "--condition", "hc",
                 "--json"]) == 0
    data = _json_out(capsys)
    assert data["result"]["bc_isomorphic"] is True
    assert data["result"]["edges"]


def test_counterexample_inapplicable(gfile, capsys):
    assert main(["counterexample", gfile(BOWTIE_TXT), "--condition", "5"]) == 65
    assert "error:" in capsys.readouterr().err


def test_oracle_found_and_not_found(gfile, capsys):
    assert main(["oracle", gfile(BOWTIE_TXT), "--json"]) == 0
    data = _json_out(capsys)
    assert data["result"]["outcome"] == "FOUND"
    capsys.readouterr()
    assert main(["oracle", gfile(SPIDER_TXT)]) == 1
    assert main(["oracle", gfile(P4_TXT), "--pair", "1", "2"]) == 1


def test_oracle_budget(gfile, capsys):
    cyc8 = "\n".join(f"{i} {(i + 1) % 8}" for i in range(8)) + "\n"
    assert main(["oracle", gfile(cyc8), "--node-budget", "2", "--json"]) == 75
    data = _json_out(capsys)
    assert data["result"]["outcome"] == "BUDGET_EXCEEDED"
    # a path on the one-edge graph lays two nodes, like any other search
    k2 = gfile("0 1\n")
    assert main(["oracle", k2, "--pair", "0", "1", "--node-budget", "1"]) == 75
    assert main(["oracle", k2, "--pair", "0", "1", "--node-budget", "2"]) == 0


def test_oracle_checks_the_pair_before_squaring(gfile, monkeypatch, capsys):
    squares = []
    square = Graph.square
    monkeypatch.setattr(Graph, "square",
                        lambda g: squares.append(g) or square(g))
    path = gfile(BOWTIE_TXT)
    for pair in (["0", "0"], ["0", "9"]):
        assert main(["oracle", path, "--pair", *pair]) == 65
        assert capsys.readouterr().err.startswith("error: pair")
    assert squares == []
    assert main(["oracle", path, "--pair", "1", "4"]) == 0
    assert len(squares) == 1


def test_non_positive_node_budget_is_a_usage_error(gfile, capsys):
    c4 = gfile("0 1\n1 2\n2 3\n3 0\n")
    for budget in ("0", "-3", "x"):
        assert main(["oracle", c4, "--node-budget", budget]) == 64
        assert "positive integer" in capsys.readouterr().err
    assert main(["oracle", c4, "--node-budget", "1"]) == 75
    assert main(["oracle", c4, "--node-budget", "5"]) == 0


def test_usage_errors():
    assert main([]) == 64
    assert main(["frobnicate", "x"]) == 64
    assert main(["--help"]) == 0


def test_input_errors(gfile, capsys):
    assert main(["square", "/no/such/file"]) == 65
    assert main(["square", gfile("0 1\n1 two\n")]) == 65  # non-numeric token
    assert main(["square", gfile("0 1\n2 3\n")]) == 65  # disconnected
    assert main(["square", gfile("")]) == 65  # empty
    # canonical in form, but past int()'s digit limit
    assert main(["check-ham", gfile("0 1\n1 " + "9" * 5000 + "\n")]) == 65
    err = capsys.readouterr().err
    assert err.count("error:") == 5
    ham = "error: hamiltonicity of the square needs at least 3 vertices\n"
    hc = "error: hamiltonian connectedness needs at least 2 vertices\n"
    for cmd, src, err in (("check-ham", "0 1\n", ham), ("check-hc", "0\n", hc),
                          ("construct-cycle", "0 1\n", ham)):
        assert main([cmd, gfile(src)]) == 65
        assert capsys.readouterr().err == err


def test_undecodable_input_is_invalid_input(tmp_path, monkeypatch, capsys):
    raw = b"\xff\xfe0 1\n"
    bad = tmp_path / "bad.txt"
    bad.write_bytes(raw)
    monkeypatch.setattr(sys, "stdin",
                        io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    for path in (str(bad), "-"):
        assert main(["check-ham", path]) == 65
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read {path}:")


def test_internal_error_exits_70(gfile, tmp_path, monkeypatch, capsys):
    dot = str(tmp_path / "no-such-dir" / "out.dot")
    assert main(["check-ham", gfile(BOWTIE_TXT), "--dot", dot]) == 70
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("internal error:")

    # construct-cycle reads a ValueError as bad input only below 3 vertices
    def broken(g):
        raise ValueError("broken constructor")
    monkeypatch.setattr(cli, "construct_ham_cycle", broken)
    assert main(["construct-cycle", gfile(BOWTIE_TXT)]) == 70
    err = capsys.readouterr().err.splitlines()
    assert err == ["internal error: ValueError: broken constructor"]


def test_decompose_deep_path(gfile, capsys):
    path = "".join(f"{i} {i + 1}\n" for i in range(4999))
    assert main(["decompose", gfile(path)]) == 0
    assert "cutvertices: 1 2 3" in capsys.readouterr().out


def test_stdin_dash_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hamsquare.cli", "check-ham", "-", "--json"],
        input=BOWTIE_TXT, capture_output=True, text=True)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    jsonschema.validate(data, SCHEMA)
    assert data["result"]["outcome"] == "HAMILTONIAN"


_WITHOUT_NETWORKX = """
import importlib, pkgutil, sys
sys.modules["networkx"] = None  # any import of networkx now fails
import hamsquare
for mod in pkgutil.iter_modules(hamsquare.__path__):
    importlib.import_module("hamsquare." + mod.name)
from hamsquare.cli import main
bowtie, risky = sys.argv[1:]
print([main(["check-ham", bowtie]),
       main(["construct-path", bowtie, "--pair", "1", "4"]),
       main(["counterexample", risky, "--condition", "hc"])])
"""


def test_runtime_needs_no_networkx(gfile):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NETWORKX, gfile(BOWTIE_TXT),
         gfile(RISKY_TXT, "risky.txt")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0]"


def test_runtime_imports_no_networkx_and_no_test_helper():
    # parsed, not imported, so that an import inside a function counts too
    tests = Path(__file__).resolve().parent
    helpers = {p.stem for p in tests.glob("*.py")}
    assert {"corpus", "oracle_reference", "families", "properties"} <= helpers
    modules = sorted((tests.parent / "src" / "hamsquare").glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top != "networkx" and top not in helpers, \
                    (path.name, name)


def test_runtime_package_neither_recurses_nor_sets_the_recursion_limit():
    # a function that calls itself, by name or as self.name, is recursion;
    # _match_incidences.try_slot is bounded by the demand slots, at most
    # two per demanded vertex
    src = Path(__file__).resolve().parent.parent / "src" / "hamsquare"
    found = []

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join(scope + [child.name])
                for call in ast.walk(child):
                    f = call.func if isinstance(call, ast.Call) else None
                    if in_class:  # super().name is another function
                        hit = (isinstance(f, ast.Attribute)
                               and f.attr == child.name
                               and isinstance(f.value, ast.Name)
                               and f.value.id in ("self", "cls"))
                    else:
                        hit = isinstance(f, ast.Name) and f.id == child.name
                    if hit:
                        found.append((path.name, name))
                visit(child, scope + [child.name], False)
            else:
                visit(child, scope, in_class)

    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # a Name, an attribute or an imported alias
        named = {getattr(n, "id", None) or getattr(n, "attr", None)
                 or getattr(n, "name", None) for n in ast.walk(tree)}
        assert "setrecursionlimit" not in named, path.name
        visit(tree, [], False)
    assert found == [("oracle.py", "_match_incidences.try_slot")]


def test_only_graph_reads_the_adjacency_store_or_the_edge_set():
    # adj is a Graph's one stored form of its edges, and edges a frozenset
    # built on each read: the package reads edges, and the private name
    # _adj, in graph.py alone
    src = Path(__file__).resolve().parent.parent / "src" / "hamsquare"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name != "graph.py":
            found += [(path.name, node.lineno, node.attr)
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Attribute)
                      and node.attr in ("_adj", "edges")]
    assert found == []


def test_run_returns_report(gfile):
    report = run(["check-ham", gfile(BOWTIE_TXT)])
    assert report.exit_code == 0
    assert report.elapsed_s >= 0
    assert report.command == "check-ham"
    assert any("HAMILTONIAN" in line for line in report.lines)


def test_each_command_decomposes_once(gfile, decompose_calls):
    path = gfile(BOWTIE_TXT)
    for cmd in (["decompose"], ["check-ham"], ["check-hc"],
                ["construct-cycle"], ["construct-path", "--pair", "1", "4"]):
        decompose_calls.clear()
        assert run(cmd + [path]).exit_code == 0
        assert decompose_calls == [5], cmd


def test_each_request_traverses_the_graph_once(gfile, monkeypatch, capsys,
                                               decompose_calls):
    # a caterpillar on 3000 vertices: a spine of 1000, two leaves at each
    text = "".join(f"{i} {i + 1}\n" for i in range(999)) + "".join(
        f"{i} {1000 + 2 * i}\n{i} {1001 + 2 * i}\n" for i in range(1000))
    path = gfile(text)
    # decompose's one traversal, the tree walk or the lowpoint DFS, proves
    # connectivity
    for cmd, code in (("check-ham", 0), ("check-hc", 1),
                      ("construct-cycle", 0)):
        decompose_calls.clear()
        assert run([cmd, path]).exit_code == code, cmd
        assert decompose_calls == [3000], cmd

    assert main(["check-ham", gfile("0 1\n2 3\n", "split.txt")]) == 65
    assert capsys.readouterr().err == "error: input graph must be connected\n"
    # two paths, and a triangle beside a lone vertex: m = n - 1 but no tree
    for text in ("0 1\n1 2\n3 4\n4 5\n", "0 1\n1 2\n0 2\n3\n"):
        split = parse_edge_list(text)
        last = max(split.vertices)
        for call in (decide_hamiltonicity, decide_hamiltonian_connectedness,
                     construct_ham_cycle,
                     lambda g: construct_ham_path(g, 0, last)):
            with pytest.raises(ValueError,
                               match="^input graph must be connected$"):
                call(split)
        assert main(["check-ham", gfile(text, "split.txt")]) == 65
        assert capsys.readouterr().err == \
            "error: input graph must be connected\n"

    # the parser is built once; one request leaves no argument to the next
    pairs = []
    oracle = cli._HANDLERS["oracle"]

    def spy(g, d, args):
        pairs.append(args.pair)
        return oracle(g, d, args)

    monkeypatch.setitem(cli._HANDLERS, "oracle", spy)
    small = gfile(BOWTIE_TXT, "bowtie.txt")
    assert run(["construct-path", small, "--pair", "0", "2"]).exit_code == 0
    assert run(["oracle", small]).exit_code == 0
    assert pairs == [None]


@pytest.mark.parametrize("text, cond, calls", [
    (RISKY_TXT, "hc", [6, 6]), (K25P_TXT, "hc", [12, 10]),
    (K25P_TXT, "5", [12, 12]), (SPIDER_TXT, "4", [7, 7])])
def test_counterexample_decomposes_input_once(gfile, decompose_calls,
                                              text, cond, calls):
    # the input once for the request, and every output once: a substitution's
    # own bc-tree check leaves the output's decomposition for the report
    assert run(["counterexample", gfile(text), "--condition", cond]
               ).exit_code == 0
    assert decompose_calls == calls


ALL_JSON_COMMANDS = [
    ["square"], ["decompose"], ["check-ham"], ["check-hc"],
    ["construct-cycle"], ["construct-path", "--pair", "1", "4"],
    ["counterexample", "--condition", "4"], ["oracle"],
]


@pytest.mark.parametrize("cmd", ALL_JSON_COMMANDS,
                         ids=[c[0] for c in ALL_JSON_COMMANDS])
def test_every_command_emits_schema_valid_json(cmd, gfile, capsys):
    # the bowtie works for everything except a condition-4 counterexample,
    # which needs a heavy hub
    text = SPIDER_TXT if cmd[0] == "counterexample" else BOWTIE_TXT
    pair = cmd + [gfile(text), "--json"]
    code = main(pair)
    assert code in (0, 1, 2)
    _json_out(capsys)


CLI_OUTPUTS_SHA256 = (
    "5f2116073ad7dcc396bf9a939bcf47e041ce653bb93cf6f398b944e9491ce336")

_ELAPSED = re.compile(r'"elapsed_s": [^,\n]*')


def test_cli_outputs_are_pinned(monkeypatch):
    # decompose, check-ham, check-hc and construct-cycle, with and without
    # --json, on the corpus and on 200 random block trees: the trees reach
    # bridge forests the corpus barely has (a non-caterpillar component
    # beside a 2-block, counted by the reference recognizer, K2 components,
    # caterpillar components whose cycle carries end and pair reservations)
    rng = random.Random(7)
    graphs = list(corpus()) + [_random_block_tree(rng) for _ in range(200)]
    digest = hashlib.sha256()
    non_caterpillar = 0
    for g in graphs:
        text = g.edge_list_text()
        if g.m >= g.n and not all(is_caterpillar(from_adjacency(nbrs))
                                  for nbrs in decompose(g).bridge_forest):
            non_caterpillar += 1
        for cmd in ("decompose", "check-ham", "check-hc", "construct-cycle"):
            for flags in ([], ["--json"]):
                out, err = io.StringIO(), io.StringIO()
                monkeypatch.setattr(sys, "stdin", io.StringIO(text))
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = main([cmd, "-", *flags])
                stdout = _ELAPSED.sub('"elapsed_s": 0', out.getvalue())
                digest.update(f"{cmd} {flags} {code}\n{stdout}\0"
                              f"{err.getvalue()}\0".encode())
    assert non_caterpillar >= 5, non_caterpillar
    assert digest.hexdigest() == CLI_OUTPUTS_SHA256


OTHER_CLI_OUTPUTS_SHA256 = (
    "fea69c2cd4f86697ba45bd5fffc643ac2cc1bec9100b83001c4eb02902fdf518")


def test_other_cli_outputs_are_pinned(tmp_path):
    # square, construct-path, counterexample and oracle, with and without
    # --json, each asked for a --dot file: the stdout, stderr and exit code,
    # and the text of the --dot file when one is written. The corpus holds
    # NOT_HAM_CONNECTED and risky graphs, so construct-path refuses some
    # pairs; every condition is asked for, so counterexample also refuses;
    # on graphs of at most 8 vertices a budget of 50 nodes stops some oracle
    # searches (exit 75).
    rng = random.Random(11)
    graphs = list(corpus()) + [_random_block_tree(rng) for _ in range(40)]
    src, dot = tmp_path / "g.txt", tmp_path / "g.dot"
    digest = hashlib.sha256()
    codes = set()
    for g in graphs:
        src.write_text(g.edge_list_text())
        vs = g.sorted_vertices()
        pairs = [(vs[0], vs[-1]), (vs[-1], vs[len(vs) // 2])]
        cmds = [["square"]]
        cmds += [["construct-path", "--pair", str(x), str(y)] for x, y in pairs]
        cmds += [["counterexample", "--condition", c]
                 for c in ("4", "5", "6", "hc")]
        if g.n <= 8:
            cmds += [["oracle", "--node-budget", "50"],
                     ["oracle", "--node-budget", "50", "--pair",
                      str(vs[0]), str(vs[-1])]]
        for cmd in cmds:
            for flags in ([], ["--json"]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = main([cmd[0], str(src), *cmd[1:], *flags,
                                 "--dot", str(dot)])
                codes.add(code)
                stdout = _ELAPSED.sub('"elapsed_s": 0', out.getvalue())
                drawn = dot.read_text() if dot.exists() else None
                dot.unlink(missing_ok=True)
                digest.update(f"{cmd} {flags} {code}\n{stdout}\0"
                              f"{err.getvalue()}\0{drawn}\0".encode())
    assert codes == {0, 1, 2, 65, 75}, codes
    assert digest.hexdigest() == OTHER_CLI_OUTPUTS_SHA256
