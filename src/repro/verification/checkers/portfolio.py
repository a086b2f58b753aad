"""The portfolio checker: run the specialists in turn, keep the first verdict.

Model-checking portfolios (SMPT, the Model Checking Contest tools) combine
an inductive prover, a bounded/explicit engine and a random walker because
the three are conclusive in complementary regimes: provers answer "holds"
on unbounded state spaces, walkers answer "violated" far beyond any
truncation horizon, and exhaustive search answers both ways but only within
its state budget.

Members run one after the other in deterministic order -- cheap structural
reasoning first, then the falsifier, then the exhaustive engine -- and the
first conclusive verdict wins.  All members share the context's artefacts
(graph, compiled net, invariants), so nothing is computed twice.  Every
member declines fast where it cannot conclude: the siphon search of the
inductive checker stops at its first siphon without a token reserve, so a
deadlock hunt reaches the walker in milliseconds.

The winning member's name is reported as the verdict's ``method``, so
campaign records and cache entries say *which* engine concluded.  When
nobody concludes, the outcome summarises every member's reason.

Member budgets are configurable per checker::

    PortfolioChecker(context,
                     walk={"walks": 32, "steps": 1024},
                     inductive={"max_cubes": 10000})

Queries a member does not support simply yield an inconclusive answer and
the rotation moves on, so persistence -- which only the exhaustive engine
can decide -- still works through a portfolio without special cases.
"""

from repro.exceptions import ConfigurationError
from repro.verification.checkers.base import (
    CHECKERS,
    Checker,
    CheckerOutcome,
    register_checker,
)

#: Default order: prove structurally, falsify cheaply, then explore
#: exhaustively.
DEFAULT_ORDER = ("inductive", "walk", "exhaustive")


@register_checker
class PortfolioChecker(Checker):
    """First conclusive verdict from a rotation of complementary checkers."""

    name = "portfolio"
    summary = ("rotation over the other checkers; first conclusive verdict "
               "wins")

    def __init__(self, context, order=DEFAULT_ORDER, **member_options):
        super().__init__(context)
        self.order = tuple(order)
        if self.name in self.order:
            raise ConfigurationError(
                "a portfolio cannot contain itself (order={!r})".format(
                    self.order))
        unknown = [name for name in self.order if name not in CHECKERS]
        if unknown:
            raise ConfigurationError(
                "unknown portfolio member(s): {} (known: {})".format(
                    ", ".join(unknown), ", ".join(sorted(CHECKERS))))
        stray = [name for name in member_options if name not in self.order]
        if stray:
            raise ConfigurationError(
                "options given for checker(s) outside the portfolio order: "
                "{}".format(", ".join(stray)))
        self.members = [
            CHECKERS[name](context, **(member_options.get(name) or {}))
            for name in self.order
        ]

    def check(self, query, max_witnesses=5):
        attempts = []
        for member in self.members:
            outcome = member.check(query, max_witnesses=max_witnesses)
            if outcome.conclusive:
                return outcome
            attempts.append((member.name, outcome.details))
        details = "; ".join(
            "{}: {}".format(name, reason) for name, reason in attempts)
        return CheckerOutcome(None, method=self.name,
                              details="no member concluded -- " + details)
