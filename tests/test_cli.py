"""Command-line interface: exit codes, reports, JSON schema conformance."""

import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from hamsquare.cli import main, run

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


def test_construct_cycle_refuses_negative(gfile, capsys):
    assert main(["construct-cycle", gfile(SPIDER_TXT), "--json"]) == 1
    data = _json_out(capsys)
    assert data["result"]["outcome"] == "NOT_HAMILTONIAN"
    assert "witness" not in data["result"]


def test_construct_path(gfile, capsys):
    assert main(["construct-path", gfile(BOWTIE_TXT), "--pair", "1", "4",
                 "--json"]) == 0
    data = _json_out(capsys)
    assert data["result"]["witness"] == [1, 2, 0, 3, 4]
    assert data["result"]["pair"] == [1, 4]


def test_construct_path_pair_errors(gfile, capsys):
    assert main(["construct-path", gfile(BOWTIE_TXT)]) == 64  # --pair missing
    capsys.readouterr()
    assert main(["construct-path", gfile(BOWTIE_TXT), "--pair", "2", "2"]) == 65
    assert main(["construct-path", gfile(BOWTIE_TXT), "--pair", "0", "9"]) == 65
    assert main(["construct-path", gfile(P4_TXT), "--pair", "0", "3"]) == 1


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


def test_usage_errors():
    assert main([]) == 64
    assert main(["frobnicate", "x"]) == 64
    assert main(["--help"]) == 0


def test_input_errors(gfile, capsys):
    assert main(["square", "/no/such/file"]) == 65
    assert main(["square", gfile("0 1\n1 two\n")]) == 65  # non-numeric token
    assert main(["square", gfile("0 1\n2 3\n")]) == 65  # disconnected
    assert main(["square", gfile("")]) == 65  # empty
    err = capsys.readouterr().err
    assert err.count("error:") == 4


def test_internal_error_exits_70(gfile, tmp_path, capsys):
    dot = str(tmp_path / "no-such-dir" / "out.dot")
    assert main(["check-ham", gfile(BOWTIE_TXT), "--dot", dot]) == 70
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("internal error:")


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


def test_run_returns_report(gfile):
    report = run(["check-ham", gfile(BOWTIE_TXT)])
    assert report.exit_code == 0
    assert report.elapsed_s >= 0
    assert report.command == "check-ham"
    assert any("HAMILTONIAN" in line for line in report.lines)


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
