"""Deciding hamiltonian connectedness of the square."""

import pytest

from hamsquare.graph import Graph
from hamsquare.oracle import path_with
from families import path_graph, cycle_graph, complete_graph
from properties import is_ham_connected
from hamsquare.hamconn import (
    HAM_CONNECTED,
    NOT_HAM_CONNECTED,
    STRUCTURALLY_RISKY,
    decide_hamiltonian_connectedness as decide,
)

BOWTIE = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])


def test_single_edge_is_ham_connected():
    v = decide(path_graph(2))
    assert v.outcome == HAM_CONNECTED


def test_p4_blocked_by_its_inner_bridge():
    v = decide(path_graph(4))
    assert v.outcome == NOT_HAM_CONNECTED
    assert v.bridge == (1, 2)
    assert not is_ham_connected(path_graph(4).square())
    # the named bridge is precisely the pair without a path
    g = path_graph(4)
    assert path_with(g.square(), g, 1, 2) is None
    assert path_with(g.square(), g, 0, 3) is not None


def test_bowtie_is_ham_connected():
    v = decide(BOWTIE)
    assert v.outcome == HAM_CONNECTED
    assert is_ham_connected(BOWTIE.square())


def test_triangle_of_cutvertices_is_risky():
    # a triangle whose three vertices are all cutvertices: this is itself the
    # extremal shape, and its square indeed fails
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    v = decide(g)
    assert v.outcome == STRUCTURALLY_RISKY
    assert v.risky_cvn == 3
    assert "cycle" in v.reason
    assert not is_ham_connected(g.square())


def test_risky_verdict_can_be_a_false_alarm():
    # same block-cutvertex tree, but the block is K4: the square is fine,
    # which is exactly why the verdict is only "risky"
    g = Graph.from_edges(list(complete_graph(4).edges) + [(0, 4), (1, 5), (2, 6)])
    v = decide(g)
    assert v.outcome == STRUCTURALLY_RISKY
    assert v.risky_cvn == 3
    assert is_ham_connected(g.square())


def test_bridge_takes_precedence_over_risky_block():
    # triangle with three cutvertices and a heavy bridge hanging off one
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4),
                          (1, 5), (2, 6)])
    v = decide(g)
    assert v.outcome == NOT_HAM_CONNECTED
    assert v.bridge == (0, 3)


def test_smallest_bridge_is_reported():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    v = decide(g)
    assert v.outcome == NOT_HAM_CONNECTED
    assert v.bridge == (1, 2)


def test_trivial_bridges_do_not_block():
    star = Graph.from_edges([(0, 1), (0, 2), (0, 3), (0, 4)])
    v = decide(star)
    assert v.outcome == HAM_CONNECTED
    assert is_ham_connected(star.square())


def test_complete_graph_is_ham_connected():
    assert decide(complete_graph(5)).outcome == HAM_CONNECTED


def test_cycles_are_ham_connected():
    for n in (3, 4, 5, 6):
        assert decide(cycle_graph(n)).outcome == HAM_CONNECTED
        assert is_ham_connected(cycle_graph(n).square())


def test_input_validation():
    with pytest.raises(ValueError):
        decide(Graph(frozenset({0}), frozenset()))
    with pytest.raises(ValueError):
        decide(Graph.from_edges([(0, 1), (2, 3)]))
