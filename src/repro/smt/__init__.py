"""SMT-backed unbounded proving: encode nets, pipe to z3, prove or refute.

This package is the solver side of the verification stack.  It turns a
Petri net into SMT-LIB 2 text (:mod:`repro.smt.encoder`), drives an external
``z3`` process over a line-oriented pipe (:mod:`repro.smt.solver`), and
implements three proof engines on top:

* :mod:`repro.smt.bmc` -- bounded model checking by incremental unrolling;
  a complete falsifier with replayable counterexample traces.
* :mod:`repro.smt.kinduction` -- k-induction strengthened with the net's
  place invariants; proves "holds" with **no state bound at all**.
* :mod:`repro.smt.ic3` -- IC3/PDR frame strengthening; produces an explicit
  inductive-invariant certificate alongside the verdict.

The solver is strictly optional: when ``z3`` is not on ``PATH`` (or
``REPRO_NO_Z3`` is set), :func:`solver_available` is false, the
solver-backed checkers of :mod:`repro.verification.checkers.smt` skip
cleanly, and the structural
siphon/trap fallback of :mod:`repro.petri.invariants` still proves
deadlock-freedom without any solver.
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
