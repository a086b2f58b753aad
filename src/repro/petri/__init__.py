"""Petri nets with read arcs.

This package is the verification substrate of the library.  DFS models are
translated into 1-safe Petri nets with read arcs (see
:mod:`repro.dfs.translation`), which are then analysed by explicit-state
reachability.  In the paper this role is played by the MPSAT unfolding tool;
here the state spaces involved are small enough for an explicit traversal.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".marking": ["Marking"],
    ".net": ["Arc", "ArcKind", "PetriNet", "Place", "Transition"],
    ".reachability": ["ReachabilityGraph", "build_reachability_graph", "explore"],
    ".compiled": ["CompiledNet"],
    ".simulation": ["PetriSimulator", "random_trace"],
    ".properties": [
        "check_boundedness",
        "check_deadlock",
        "check_persistence",
        "PropertyReport",
    ],
    ".export": ["to_dot", "to_g_format"],
})
