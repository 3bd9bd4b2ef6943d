"""Fixtures shared by the test modules."""

import sys

import pytest

from hamsquare.decomposition import decompose


@pytest.fixture
def decompose_calls(monkeypatch):
    """The vertex count of every graph decomposed while the test runs.

    Modules import decompose by name, so it is counted in every hamsquare
    module that holds it.
    """
    calls = []

    def counted(g):
        calls.append(g.n)
        return decompose(g)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "hamsquare" and \
                getattr(mod, "decompose", None) is decompose:
            monkeypatch.setattr(mod, "decompose", counted)
    return calls
