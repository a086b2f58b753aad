"""Verification of DFS models through their Petri-net semantics.

The paper's flow translates a DFS model into a Petri net and checks it with
MPSAT for standard properties (deadlock) and custom Reach properties (such
as control-token mismatch and hazards).  The :class:`Verifier` here does the
same with one in-package checker per verifier (exhaustive exploration by
default) and reports counterexamples both as Petri-net traces and as
DFS-level state summaries.
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
    ".verifier": ["Verifier"],
    ".properties": [
        "control_mismatch_expression",
        "value_exclusion_expression",
        "variable_consistency_pairs",
    ],
})
