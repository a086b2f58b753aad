"""Petri nets with read arcs.

This package is the verification substrate of the library.  DFS models are
translated into 1-safe Petri nets with read arcs (see
:mod:`repro.dfs.translation`), whose reachability graphs are built by
:func:`~repro.petri.reachability.build_reachability_graph` on the
array-native batch engine of :mod:`repro.petri.batch`.  A net it cannot
compile is refused, and a token overflow during exploration is the net's
1-safeness violation.  In the paper this role is played by the MPSAT
unfolding tool.  The graphs answer the property scans themselves
(``deadlocks``, ``scan``, ``persistence_scan``); verdicts are decided from
those scans by
:class:`~repro.verification.checkers.exhaustive.ExhaustiveChecker`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".marking": ["Marking"],
    ".net": ["Arc", "ArcKind", "PetriNet", "Place", "Transition"],
    ".reachability": ["build_reachability_graph"],
    ".compiled": ["CompiledNet"],
    ".export": ["to_dot", "to_g_format"],
})
