"""Fixtures shared by the test modules."""

import pytest

from hamsquare import decomposition


@pytest.fixture
def decompose_calls(monkeypatch):
    """The vertex count of every graph traversed by decompose while the test
    runs: its tree walk (_tree) or its lowpoint DFS (_blocks). A call that
    decompose answers from its memo traverses nothing and is not counted.
    """
    calls = []
    for name in ("_tree", "_blocks"):
        traverse = getattr(decomposition, name)

        def counted(g, traverse=traverse):
            calls.append(g.n)
            return traverse(g)

        monkeypatch.setattr(decomposition, name, counted)
    return calls
