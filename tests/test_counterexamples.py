"""Counterexample generators and block substitution."""

import pytest

from hamsquare.graph import Graph, edge, path_graph, cycle_graph, complete_bipartite
from hamsquare.decomposition import decompose, bc_tree, bc_isomorphic
from hamsquare.labelling import decide_hamiltonicity
from hamsquare.hamconn import decide_hamiltonian_connectedness
from hamsquare.oracle import cycle_with, is_ham_connected
from hamsquare.counterexamples import (
    SubstitutionRecipe,
    substitute,
    substitute_many,
    recipes_from_verdict,
    gen_bn3,
    gen_hc_counterexample,
    counterexample_for,
    minimal_families,
)

BOWTIE = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])


def _square_not_hamiltonian(g):
    return cycle_with(g.square(), g) is None


def test_substitute_keeps_bc_tree():
    d = decompose(BOWTIE)
    t0 = min(b.index for b in d.two_blocks())
    out = substitute(BOWTIE, SubstitutionRecipe(t0, "cycle", size=4))
    assert out.n == BOWTIE.n + 1
    assert bc_isomorphic(bc_tree(decompose(out)), bc_tree(d))


def test_substitute_validation():
    d = decompose(BOWTIE)
    t0 = min(b.index for b in d.two_blocks())
    with pytest.raises(ValueError, match="no block"):
        substitute(BOWTIE, SubstitutionRecipe(99, "cycle", size=3))
    with pytest.raises(ValueError, match="unknown replacement kind"):
        substitute(BOWTIE, SubstitutionRecipe(t0, "moebius", size=3))
    with pytest.raises(ValueError):
        substitute(BOWTIE, SubstitutionRecipe(t0, "cycle", size=2))
    bridge_idx = next(b.index for b in decompose(path_graph(3)).blocks)
    with pytest.raises(ValueError, match="bridge"):
        substitute(path_graph(3), SubstitutionRecipe(bridge_idx, "cycle", size=3))
    with pytest.raises(ValueError, match="one block named by two"):
        substitute_many(BOWTIE, [SubstitutionRecipe(t0, "cycle", size=3),
                                 SubstitutionRecipe(t0, "cycle", size=4)])


def test_bipartite_replacement_marks_every_cutvertex():
    es = list(complete_bipartite(2, 5).edges) + [(v, v + 10) for v in range(2, 7)]
    g = Graph.from_edges(es)
    verdict = decide_hamiltonicity(g)
    recipes = recipes_from_verdict(verdict)
    assert len(recipes) == 1 and recipes[0].kind == "complete_bipartite_2k"
    out = substitute_many(g, recipes)
    assert bc_isomorphic(bc_tree(decompose(out)), bc_tree(decompose(g)))
    assert _square_not_hamiltonian(out)


def test_recipes_require_a_hint():
    with pytest.raises(ValueError, match="no substitution hint"):
        recipes_from_verdict(decide_hamiltonicity(BOWTIE))


def test_gen_bn3_default_is_negative():
    g = gen_bn3()
    assert decide_hamiltonicity(g).outcome == "NOT_HAMILTONIAN"
    assert _square_not_hamiltonian(g)


def test_gen_bn3_with_triangle_plugs():
    tri = cycle_graph(3)
    g = gen_bn3(tri, tri, tri, tri)
    d = decompose(g)
    assert d.bn[0] == 3
    assert decide_hamiltonicity(g).outcome == "NOT_HAMILTONIAN"


def test_gen_bn3_rejects_edgeless_plugs():
    with pytest.raises(ValueError):
        gen_bn3(None, Graph(frozenset({0}), frozenset()), None, None)
    with pytest.raises(ValueError, match="attach point"):
        gen_bn3(attach=(99, None, None, None))


def test_gen_hc_counterexample():
    g = gen_hc_counterexample(3)
    assert decide_hamiltonian_connectedness(g).outcome == "STRUCTURALLY_RISKY"
    assert not is_ham_connected(g.square())
    with pytest.raises(ValueError):
        gen_hc_counterexample(2)
    with pytest.raises(ValueError):
        gen_hc_counterexample(3, plugs=[None, None])


def test_counterexample_for_condition_4():
    spider = Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    out = counterexample_for(spider, 4)
    assert bc_isomorphic(bc_tree(decompose(out)), bc_tree(decompose(spider)))
    assert _square_not_hamiltonian(out)
    with pytest.raises(ValueError):
        counterexample_for(BOWTIE, 4)


def test_counterexample_for_condition_5():
    es = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 5), (5, 6), (1, 7), (2, 8)]
    g = Graph.from_edges(es)
    out = counterexample_for(g, 5)
    assert bc_isomorphic(bc_tree(decompose(out)), bc_tree(decompose(g)))
    assert _square_not_hamiltonian(out)
    with pytest.raises(ValueError, match="does not flag"):
        counterexample_for(BOWTIE, 5)


def test_counterexample_for_condition_6():
    es = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4),
          (1, 5), (2, 6), (3, 7), (4, 8), (0, 9), (9, 10)]
    g = Graph.from_edges(es)
    out = counterexample_for(g, 6)
    assert bc_isomorphic(bc_tree(decompose(out)), bc_tree(decompose(g)))
    assert _square_not_hamiltonian(out)


def test_counterexample_for_hc():
    g = gen_hc_counterexample(4)
    out = counterexample_for(g, "hc")
    assert bc_isomorphic(bc_tree(decompose(out)), bc_tree(decompose(g)))
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
        assert f.skeleton.is_connected() and f.instance.is_connected()
        assert bc_isomorphic(bc_tree(decompose(f.skeleton)),
                             bc_tree(decompose(f.instance)))


def test_minimal_families_instances_fail():
    for f in minimal_families():
        if f.kind == "cycle":
            assert _square_not_hamiltonian(f.instance), f.name
        else:
            assert not is_ham_connected(f.instance.square()), f.name
