"""Static Dataflow Structures (SDFS) -- the baseline formalism.

SDFS (Sokolov, Poliakov, Yakovlev, *Fundamenta Informaticae* 2008) supports
only logic and plain register nodes; it cannot express dynamic pipeline
reconfiguration, which is the gap the paper's DFS model fills.  The package
provides a restricted model class and helpers to convert between the two
formalisms, so that the motivating example (Fig. 1) can be reproduced with
both and compared by the performance analyser.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".model": ["StaticDataflowStructure", "is_static", "strip_dynamic"],
    ".analysis": ["dataflow_depth", "register_chains", "static_summary"],
})
