"""Hamiltonicity of graph squares via block-cutvertex structure.

The square of a graph G joins every pair of vertices at distance at most two.
This package decides whether the square of a connected graph is hamiltonian,
or hamiltonian connected, by analysing the block-cutvertex decomposition of G,
and produces explicit witness cycles and paths when the answer is yes.
"""

from .graph import (
    Graph,
    GraphParseError,
    edge,
    parse_edge_list,
)
from .decomposition import decompose, Decomposition
from .labelling import decide_hamiltonicity, HamiltonicityVerdict
from .hamconn import decide_hamiltonian_connectedness, HamConnVerdict
from .construct import (construct_ham_cycle, construct_ham_path,
                        ConstructionError, NoLabellingError)
from .oracle import (
    cycle_with,
    path_with,
    BudgetExceeded,
)
from .counterexamples import counterexample_for

__all__ = [
    "Graph",
    "GraphParseError",
    "edge",
    "parse_edge_list",
    "decompose",
    "Decomposition",
    "decide_hamiltonicity",
    "HamiltonicityVerdict",
    "decide_hamiltonian_connectedness",
    "HamConnVerdict",
    "construct_ham_cycle",
    "construct_ham_path",
    "ConstructionError",
    "NoLabellingError",
    "cycle_with",
    "path_with",
    "BudgetExceeded",
    "counterexample_for",
]

__version__ = "0.1.0"
