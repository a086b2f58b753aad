"""Pluggable verification checkers.

The :class:`~repro.verification.verifier.Verifier` used to be hard-wired to
exhaustive state-space exploration; this package turns the verdict engine
into a strategy.  See :mod:`repro.verification.checkers.base` for the
abstraction and the individual modules for the engines:

========== ===================================================== ==========
name       strategy                                              concludes
========== ===================================================== ==========
exhaustive bitmask state-space exploration up to ``max_states`` both ways
inductive  place invariants + backward induction on the compiled holds (and
           transition relation, no state bound                   some bugs)
walk       LFSR-seeded guided random walks                       violations
ic3        SMT IC3/PDR with invariant certificates (needs z3)    both ways
portfolio  race of the above, first conclusive verdict wins      both ways
========== ===================================================== ==========

The ``ic3`` row is optional: without a z3 binary on ``PATH`` (or with
``REPRO_NO_Z3`` set) it answers inconclusive with a message naming the
binary, and the rest of the portfolio carries on.  Importing this package
does not load the solver tier of :mod:`repro.smt`; only running IC3 does.
"""

from repro.verification.checkers.base import (
    CHECKERS,
    Checker,
    CheckerContext,
    CheckerOutcome,
    DeadlockQuery,
    PersistenceQuery,
    Query,
    ReachQuery,
    SafenessQuery,
    check_checker_options,
    create_checker,
    register_checker,
)
from repro.verification.checkers.exhaustive import ExhaustiveChecker
from repro.verification.checkers.inductive import InductiveChecker
from repro.verification.checkers.portfolio import DEFAULT_ORDER, PortfolioChecker
from repro.verification.checkers.smt import Ic3Checker
from repro.verification.checkers.walk import RandomWalkChecker

__all__ = [
    "CHECKERS",
    "Checker",
    "CheckerContext",
    "CheckerOutcome",
    "DEFAULT_ORDER",
    "DeadlockQuery",
    "ExhaustiveChecker",
    "Ic3Checker",
    "InductiveChecker",
    "PersistenceQuery",
    "PortfolioChecker",
    "Query",
    "RandomWalkChecker",
    "ReachQuery",
    "SafenessQuery",
    "check_checker_options",
    "create_checker",
    "register_checker",
]
