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
portfolio  the above in turn, first conclusive verdict wins      both ways
========== ===================================================== ==========
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
from repro.verification.checkers.walk import RandomWalkChecker

__all__ = [
    "CHECKERS",
    "Checker",
    "CheckerContext",
    "CheckerOutcome",
    "DEFAULT_ORDER",
    "DeadlockQuery",
    "ExhaustiveChecker",
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
