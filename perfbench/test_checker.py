"""Tests of the benchmark's independent checker.

    python3 -m pytest perfbench/test_checker.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
from checker import Structure, check_cycle, check_path  # noqa: E402

P6 = "".join(f"{i} {i + 1}\n" for i in range(5))
BOWTIE = "0 1\n1 2\n0 2\n0 3\n3 4\n0 4\n"
SPIDER = "0 1\n1 2\n0 3\n3 4\n0 5\n5 6\n"
STAR = "0 1\n0 2\n0 3\n0 4\n"
# a triangle whose three corners each carry a pendant edge: one block with
# three cutvertices
RISKY = "0 1\n1 2\n0 2\n0 3\n1 4\n2 5\n"

GOOD_CYCLE = [0, 2, 4, 5, 3, 1]     # a hamiltonian cycle of the square of P6
GOOD_PATH = [0, 2, 1, 3, 4, 5]      # a 0..5 hamiltonian path of it


def test_accepts_known_good_witnesses():
    s = Structure(P6)
    assert check_cycle(s, GOOD_CYCLE) is None
    assert check_path(s, GOOD_PATH, 0, 5) is None
    assert check_path(s, GOOD_PATH[::-1], 0, 5) is None
    assert check_cycle(Structure(BOWTIE), [0, 1, 2, 3, 4]) is None


def test_rejects_two_vertices_swapped_into_a_non_edge():
    s = Structure(P6)
    swapped = [0, 5, 4, 2, 3, 1]    # 0-5 are five apart in P6
    assert "not an edge of the square" in check_cycle(s, swapped)
    swapped_path = [0, 2, 1, 5, 4, 3]   # 1-5 are four apart
    assert "not an edge of the square" in check_path(s, swapped_path, 0, 3)


def test_rejects_a_dropped_vertex():
    s = Structure(P6)
    assert check_cycle(s, GOOD_CYCLE[:-1]) is not None
    assert check_path(s, GOOD_PATH[:-1], 0, 4) is not None
    assert check_cycle(s, GOOD_CYCLE[:-1] + [GOOD_CYCLE[0]]) is not None


def test_rejects_a_path_with_wrong_ends():
    s = Structure(P6)
    assert "asked for" in check_path(s, GOOD_PATH, 0, 4)
    assert "asked for" in check_path(s, GOOD_PATH, 2, 5)


def test_structure_facts():
    spider, path, star, risky = map(Structure, (SPIDER, P6, STAR, RISKY))
    assert spider.heavy and not path.heavy and not star.heavy
    assert spider.hc_outcome() == checker.NOT_HC
    assert path.hc_outcome() == checker.NOT_HC
    assert star.hc_outcome() == checker.HC
    assert risky.hc_outcome() == checker.RISKY
    assert Structure(BOWTIE).hc_outcome() == checker.HC


def test_verdict_checks():
    spider, path = Structure(SPIDER), Structure(P6)
    assert checker.check_ham_outcome(spider, checker.NOT_HAM,
                                     checker.NOT_HAM) is None
    assert checker.check_ham_outcome(path, checker.NOT_HAM,
                                     checker.NOT_HAM) is not None
    assert checker.check_ham_outcome(path, checker.RISKY,
                                     checker.HAM) is not None
    assert checker.check_hc_outcome(path, checker.HC, checker.HC) is not None


def _payload(command, structure, result):
    return json.dumps({
        "command": command, "elapsed_s": 0.001, "result": result,
        "input": {"vertices": structure.n, "edges": structure.m,
                  "blocks": structure.blocks,
                  "cutvertices": structure.cutvertices}})


def test_payload_checks():
    payloads = checker.PayloadChecker(HERE.parent / "docs" /
                                      "verdict.schema.json")
    spider, path = Structure(SPIDER), Structure(P6)
    negative = _payload("check-ham", spider,
                        {"outcome": "NOT_HAMILTONIAN", "reason": "x"})
    assert payloads.check(spider, "check-ham", negative, 1,
                          checker.NOT_HAM) is None
    assert "exit code" in payloads.check(spider, "check-ham", negative, 0,
                                         checker.NOT_HAM)
    extra = _payload("check-ham", spider,
                     {"outcome": "NOT_HAMILTONIAN", "colour": "red"})
    assert "schema" in payloads.check(spider, "check-ham", extra, 1,
                                      checker.NOT_HAM)
    cycle = _payload("construct-cycle", path,
                     {"outcome": "HAMILTONIAN", "witness": GOOD_CYCLE})
    assert payloads.check(path, "construct-cycle", cycle, 0,
                          checker.HAM) is None
    bad = _payload("construct-cycle", path,
                   {"outcome": "HAMILTONIAN", "witness": [0, 5, 4, 2, 3, 1]})
    assert payloads.check(path, "construct-cycle", bad, 0,
                          checker.HAM) is not None
    wrong_summary = _payload("check-ham", path, {"outcome": "HAMILTONIAN"})
    assert "input summary" in payloads.check(spider, "check-ham",
                                             wrong_summary, 0, checker.HAM)
