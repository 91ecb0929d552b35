"""exlab: executable laboratory for extremal-combinatorics constructions.

Each submodule pairs a construction (usually a Las Vegas realization of a
probabilistic existence argument) with independent verifiers and, at desk
scale, brute-force oracles.
"""

from .core import (
    BipartiteGraph,
    EdgeColoring,
    Failure,
    Graph,
    GuardError,
    KUniformHypergraph,
    ParseError,
    RngStream,
    read_graph,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph",
    "EdgeColoring",
    "Failure",
    "Graph",
    "GuardError",
    "KUniformHypergraph",
    "ParseError",
    "RngStream",
    "read_graph",
    "__version__",
]
