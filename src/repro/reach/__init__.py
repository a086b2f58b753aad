"""A small Reach-like predicate language for custom functional properties.

The paper verifies "custom functional properties (such as hazards) expressed
in Reach language" on the Petri-net translation of a DFS model.  This package
provides a compact re-implementation of the useful core of that idea: Boolean
predicates over place markings, parsed from text, evaluated either on a
single marking or over a whole reachability graph (returning witness states).

Syntax summary
--------------

::

    expr    := implies
    implies := or ( "->" or )*
    or      := and ( "|" and )*
    and     := not ( "&" not )*
    not     := "!" not | atom
    atom    := "(" expr ")" | "true" | "false"
             | '$"' NAME '"'            # place NAME is marked
             | NAME                     # shorthand for the same
             | "tokens" "(" NAME ")" CMP INT

    CMP     := "==" | "!=" | "<" | "<=" | ">" | ">="

A property written in this language describes the *bad* states (as in MPSAT's
Reach): verification succeeds when no reachable state satisfies it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".ast": [
        "And",
        "Compare",
        "Constant",
        "Implies",
        "Marked",
        "Not",
        "Or",
        "ReachExpression",
    ],
    ".cubes": ["Cube", "to_cubes"],
    ".parser": ["parse"],
    ".evaluator": ["evaluate", "marking_predicate"],
})
