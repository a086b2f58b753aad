"""Verification of DFS models through their Petri-net semantics.

The paper's flow translates a DFS model into a Petri net and checks it with
MPSAT for standard properties (deadlock) and custom Reach properties (such
as control-token mismatch and hazards).  The :class:`Verifier` here does the
same with the in-package explicit-state engine and reports counterexamples
both as Petri-net traces and as DFS-level state summaries.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".checkers": [
        "CHECKERS",
        "Checker",
        "CheckerContext",
        "CheckerOutcome",
        "create_checker",
        "register_checker",
    ],
    ".results": ["VerificationResult", "VerificationSummary"],
    ".verifier": [
        "CUSTOM_PROPERTIES",
        "Verifier",
        "register_custom_property",
        "unregister_custom_property",
    ],
    ".properties": [
        "control_mismatch_expression",
        "value_exclusion_expression",
        "variable_consistency_pairs",
    ],
})
