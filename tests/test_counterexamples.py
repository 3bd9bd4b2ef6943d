"""Counterexample generators and block substitution."""

import hashlib
import random

import networkx as nx
import pytest

from hamsquare.graph import Graph
from hamsquare.decomposition import bc_canonical, decompose
from hamsquare.labelling import decide_hamiltonicity
from hamsquare.hamconn import decide_hamiltonian_connectedness
from hamsquare.oracle import cycle_with
from hamsquare.counterexamples import _exchange, counterexample_for
from corpus import corpus, to_nx
from families import (path_graph, complete_bipartite, gen_bn3,
                      gen_hc_counterexample, minimal_families)
from properties import is_ham_connected
from test_labelling import _random_block_tree

BOWTIE = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])


def _square_not_hamiltonian(g):
    return cycle_with(g.square(), g) is None


def test_substitute_keeps_bc_tree():
    d = decompose(BOWTIE)
    t0, t1 = d.two_idx
    # only the cutvertex 0 stays: a cycle pads it with two fresh vertices,
    # K_{2,k} adds two hubs and pads its side the same way
    out = _exchange(BOWTIE, d, {t0: False, t1: True})
    assert out.sorted_edges() == [(0, 5), (0, 6), (0, 7), (0, 8), (5, 6),
                                  (7, 9), (7, 10), (8, 9), (8, 10)]
    assert bc_canonical(decompose(out)) == bc_canonical(d)


def test_substitute_validation():
    # only what the procedures flag is exchanged: a tree has no 2-block,
    # a bridge is never a risky block, and an unflagged condition is refused
    for g in (path_graph(3), Graph.from_edges([(0, 1), (1, 2), (1, 3)])):
        for cond in (5, 6, "hc"):
            with pytest.raises(ValueError, match="does not flag"):
                counterexample_for(g, cond)
    # flagged with condition 5, see test_counterexample_for_condition_5
    heavy_end = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4),
                                  (0, 5), (5, 6), (1, 7), (2, 8)])
    with pytest.raises(ValueError, match="does not flag condition 6"):
        counterexample_for(heavy_end, 6)
    with pytest.raises(ValueError, match="does not flag"):
        counterexample_for(BOWTIE, 5)


def test_bipartite_replacement_marks_every_cutvertex():
    es = list(complete_bipartite(2, 5).edges) + [(v, v + 10) for v in range(2, 7)]
    g = Graph.from_edges(es)
    verdict = decide_hamiltonicity(g)
    assert (verdict.violated_condition, verdict.risky_case) == (5, "a")
    out = counterexample_for(g, 5)
    # the two fresh hubs 17 and 18 each meet all five cutvertices
    assert {v for v in out.vertices if out.degree(v) == 5} == {17, 18}
    assert all(out.has_edge(h, c) for h in (17, 18) for c in range(2, 7))
    assert bc_canonical(decompose(out)) == bc_canonical(decompose(g))
    assert _square_not_hamiltonian(out)


def test_gen_bn3_default_is_negative():
    g = gen_bn3()
    assert g.edge_list_text().split("\n")[:-1] == [
        "0 1", "0 2", "0 4", "0 6", "2 3", "4 5", "6 7"]
    assert decompose(g).bn[0] == 3
    assert decide_hamiltonicity(g).outcome == "NOT_HAMILTONIAN"
    assert _square_not_hamiltonian(g)


def test_gen_hc_counterexample():
    g = gen_hc_counterexample(3)
    assert decide_hamiltonian_connectedness(g).outcome == "STRUCTURALLY_RISKY"
    assert not is_ham_connected(g.square())
    assert g.sorted_edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5)]
    with pytest.raises(ValueError):
        gen_hc_counterexample(2)


def test_counterexample_for_condition_4():
    spider = Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    out = counterexample_for(spider, 4)
    assert bc_canonical(decompose(out)) == bc_canonical(decompose(spider))
    assert _square_not_hamiltonian(out)
    with pytest.raises(ValueError):
        counterexample_for(BOWTIE, 4)


def test_counterexample_for_condition_5():
    es = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 5), (5, 6), (1, 7), (2, 8)]
    g = Graph.from_edges(es)
    out = counterexample_for(g, 5)
    assert bc_canonical(decompose(out)) == bc_canonical(decompose(g))
    assert _square_not_hamiltonian(out)
    with pytest.raises(ValueError, match="does not flag"):
        counterexample_for(BOWTIE, 5)


def test_counterexample_for_condition_6():
    es = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4),
          (1, 5), (2, 6), (3, 7), (4, 8), (0, 9), (9, 10)]
    g = Graph.from_edges(es)
    out = counterexample_for(g, 6)
    assert bc_canonical(decompose(out)) == bc_canonical(decompose(g))
    assert _square_not_hamiltonian(out)


def test_counterexample_for_hc():
    g = gen_hc_counterexample(4)
    out = counterexample_for(g, "hc")
    assert bc_canonical(decompose(out)) == bc_canonical(decompose(g))
    assert not is_ham_connected(out.square())
    with pytest.raises(ValueError):
        counterexample_for(BOWTIE, "hc")
    with pytest.raises(ValueError, match="must be 4, 5, 6"):
        counterexample_for(BOWTIE, 7)


def test_minimal_families_shape():
    fams = minimal_families()
    assert len(fams) == 7
    assert len({f.name for f in fams}) == 7
    kinds = [f.kind for f in fams]
    assert kinds.count("connectedness") == 1
    for f in fams:
        assert nx.is_connected(to_nx(f.skeleton))
        assert nx.is_connected(to_nx(f.instance))
        assert (bc_canonical(decompose(f.skeleton))
                == bc_canonical(decompose(f.instance)))


def test_minimal_families_instances_fail():
    for f in minimal_families():
        if f.kind == "cycle":
            assert _square_not_hamiltonian(f.instance), f.name
        else:
            assert not is_ham_connected(f.instance.square()), f.name


# sha256 over counterexample_for(g, cond) for cond in 4, 5, 6 and "hc" on
# the corpus and 400 random block trees; a ValueError's message counts as
# the outcome. 136 requests apply: 50, 31, 10 and 45 in that order.
COUNTEREXAMPLES_SHA256 = (
    "07acd81f0b7effb5995f0498266505b22e1116fd4499cecc4cb3b66c4169340a")


def test_counterexamples_are_pinned():
    rng = random.Random(7)
    graphs = list(corpus()) + [_random_block_tree(rng) for _ in range(400)]
    digest = hashlib.sha256()
    applied = {4: 0, 5: 0, 6: 0, "hc": 0}
    for g in graphs:
        for cond in applied:
            try:
                out = counterexample_for(g, cond).edge_list_text()
                applied[cond] += 1
            except ValueError as e:
                out = f"ValueError: {e}\n"
            digest.update(f"{g.sorted_edges()} {cond}\n{out}".encode())
    assert applied == {4: 50, 5: 31, 6: 10, "hc": 45}
    assert digest.hexdigest() == COUNTEREXAMPLES_SHA256
