"""Reproduction of "Reconfigurable Asynchronous Pipelines: from Formal Models
to Silicon" (Sokolov, de Gennaro, Mokhov -- DATE 2018).

The package is organised around the paper's tool-chain:

``repro.dfs``
    The Dataflow Structures (DFS) formalism -- the paper's main contribution.
    Node types (logic, register, control, push, pop), enabling equations,
    token-level simulation and translation to Petri nets.

``repro.petri``
    A Petri-net substrate with read arcs, explicit-state reachability and
    standard property checks (deadlock, persistence, boundedness).

``repro.reach``
    A small Reach-like predicate language for custom functional properties.

``repro.sdfs``
    The Static Dataflow Structures baseline (logic and plain registers only).

``repro.verification``
    High-level verification of DFS models through their Petri-net semantics,
    with pluggable checkers (exhaustive, inductive, random-walk, portfolio).

``repro.performance``
    Cycle-based performance analysis and bottleneck identification.

``repro.circuits``
    NCL-D dual-rail component library, technology mapping of DFS models to
    asynchronous circuit netlists, event-driven simulation, Verilog export.

``repro.silicon``
    Voltage-dependent delay/energy models and chip measurement harness.

``repro.pipelines``
    The reconfigurable-pipeline design methodology (generic N-stage pipeline,
    static and reconfigurable stages, control loops).

``repro.ope``
    The ordinal pattern encoding case study (behavioural model and pipeline).

``repro.chip``
    The evaluation chip (LFSR, accumulator, static + reconfigurable OPE).

``repro.workcraft``
    A programmatic tool layer (projects, plugins, exporters, CLI) standing in
    for the Workcraft GUI used in the paper.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "._version": ["__version__"],
    ".dfs": ["DataflowStructure", "DfsBuilder", "NodeType"],
    ".petri": ["Marking", "PetriNet"],
    ".verification": ["Verifier"],
})
