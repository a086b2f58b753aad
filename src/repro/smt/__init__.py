"""SMT-backed unbounded proving: encode nets, pipe to z3, prove or refute.

This package is the solver side of the verification stack.  It turns a
certified 1-safe Petri net into SMT-LIB 2 text (:mod:`repro.smt.encoder`),
drives an external ``z3`` process over a line-oriented pipe
(:mod:`repro.smt.solver`), and runs one proof engine on top:
:mod:`repro.smt.ic3`, IC3/PDR frame strengthening, which proves "holds"
with **no state bound at all** and an explicit inductive-invariant
certificate, or refutes with a replayable counterexample trace.

Only a process that runs the ``ic3`` checker of
:mod:`repro.verification.checkers.smt`, or needs the solver fingerprint of
a campaign job or the service status, imports this package.  The solver is
strictly optional: when ``z3`` is not on ``PATH`` (or ``REPRO_NO_Z3`` is
set), :func:`solver_available` is false, the IC3 checker answers
inconclusive, and the structural siphon/trap fallback of
:mod:`repro.petri.invariants` still proves deadlock-freedom without any
solver.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".encoder": ["SmtEncoder"],
    ".solver": [
        "PipeSolver",
        "require_solver",
        "solver_available",
        "solver_binary",
        "solver_fingerprint",
    ],
})
