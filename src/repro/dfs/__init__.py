"""Dataflow Structures (DFS) -- the paper's main formalism.

A DFS is a graph of *logic* nodes and *register* nodes.  The paper extends
the static SDFS model with three dynamic register types -- *control*, *push*
and *pop* -- which make pipelines dynamically reconfigurable:

* a **control** register carries a True or False token and "guards" the push
  and pop registers in its R-postset;
* a **push** register behaves as a plain register when true-controlled and
  consumes-and-destroys incoming tokens when false-controlled;
* a **pop** register behaves as a plain register when true-controlled and
  spontaneously produces an "empty" token when false-controlled.

The enabling rules (equations (1)-(5) of the paper) are implemented once, in
:mod:`repro.dfs.semantics`, and shared by the token-game simulator and the
Petri-net translation so the two views cannot drift apart.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".nodes": ["LogicNode", "NodeType", "RegisterNode"],
    ".model": ["DataflowStructure"],
    ".builder": ["DfsBuilder"],
    ".semantics": ["Event", "EventAction", "Literal", "events_for_node", "model_events"],
    ".state": ["DfsState"],
    ".simulation": ["DfsSimulator"],
    ".translation": ["place_name", "to_petri_net", "transition_name"],
    ".serialization": ["dfs_from_document", "dfs_from_json", "dfs_to_document", "dfs_to_json"],
    ".validation": ["Issue", "Severity", "validate_structure"],
})
