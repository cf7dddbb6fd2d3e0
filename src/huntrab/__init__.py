"""Hunters-and-rabbits pursuit games on graphs.

A group of hunters shoots a set of vertices each round at an invisible
rabbit that must (standard) or may (deaf) move along an edge after every
volley.  This package computes the minimum number of hunters that guarantees
a catch: exactly on small graphs by state-space search, and analytically for
hypercubes and other graphs whose neighborhood minima nest into initial
segments of a vertex order.
"""

from .dynamics import (
    DEAF,
    STANDARD,
    Caught,
    Escaped,
    Strategy,
    Trace,
    concatenate,
    extend_parity,
    moves,
    run,
    step,
    verify,
)
from .graphs import (
    Bipartition,
    Graph,
    bipartition,
    components,
    cycle_graph,
    degeneracy,
    graph_from_edges,
    grid_graph,
    hypercube_graph,
    path_graph,
    star_graph,
)
from .nesting import (
    NestOrder,
    grid_nest_order,
    nest_strategy,
    weightlex_full_order,
    weightlex_nest_order,
)
from .solver import (
    ClearResult,
    SolveResult,
    can_clear,
    hunter_number,
    lower_bound,
    lower_bound_union,
    min_neighborhood_union,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
