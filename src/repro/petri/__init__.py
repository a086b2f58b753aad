"""Petri nets with read arcs.

This package is the verification substrate of the library.  DFS models are
translated into 1-safe Petri nets with read arcs (see
:mod:`repro.dfs.translation`), which are then analysed by explicit-state
reachability.  In the paper this role is played by the MPSAT unfolding tool;
here the state spaces involved are small enough for an explicit traversal.
"""

from repro.petri.marking import Marking
from repro.petri.net import Arc, ArcKind, PetriNet, Place, Transition
from repro.petri.reachability import (
    ReachabilityGraph,
    build_reachability_graph,
    explore,
)
from repro.petri.compiled import CompiledNet
from repro.petri.simulation import PetriSimulator, random_trace
from repro.petri.properties import (
    check_boundedness,
    check_deadlock,
    check_mutual_exclusion,
    check_persistence,
    PropertyReport,
)
from repro.petri.analysis import incidence_matrix, place_invariants, transition_invariants
from repro.petri.export import to_dot, to_g_format

__all__ = [
    "Arc",
    "ArcKind",
    "CompiledNet",
    "Marking",
    "PetriNet",
    "PetriSimulator",
    "Place",
    "PropertyReport",
    "ReachabilityGraph",
    "Transition",
    "build_reachability_graph",
    "check_boundedness",
    "check_deadlock",
    "check_mutual_exclusion",
    "check_persistence",
    "explore",
    "incidence_matrix",
    "place_invariants",
    "random_trace",
    "to_dot",
    "to_g_format",
    "transition_invariants",
]
