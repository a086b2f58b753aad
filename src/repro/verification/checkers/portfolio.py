"""The portfolio checker: race the specialists, keep the first verdict.

Model-checking portfolios (SMPT, the Model Checking Contest tools) run an
inductive prover, a bounded/explicit engine and a random walker side by side
because the three are conclusive in complementary regimes: provers answer
"holds" on unbounded state spaces, walkers answer "violated" far beyond any
truncation horizon, and exhaustive search answers both ways but only within
its state budget.

The portfolio has two execution modes:

* **Budgeted rotation** (default): members run one after the other in
  deterministic order -- cheap structural reasoning first, then the
  falsifier, then the exhaustive engine -- and the first conclusive verdict
  wins.  All members share the context's artefacts (graph, compiled net,
  invariants), so nothing is computed twice.
* **True racing** (``race=True``): every member runs in its **own worker
  process** through the supervised pool of
  :mod:`repro.parallel.supervisor`; the first conclusive verdict wins and
  the losing workers are **terminated immediately** instead of running out
  their budgets.  This is the mode for beyond-horizon workloads on real
  cores: a deadlock hunt no longer waits for the inductive prover to
  decline, and an inductive proof no longer waits behind a hopeless
  exhaustive exploration.
  Conclusive verdicts never contradict each other (checker soundness), so
  which member wins a close race can vary between runs, but never what the
  verdict says.  Inside a daemonic worker (e.g. a campaign job), where new
  processes cannot be spawned, the portfolio falls back to rotation
  transparently.

The winning member's name is reported as the verdict's ``method``, so
campaign records and cache entries say *which* engine concluded.  When
nobody concludes, the outcome summarises every member's reason.

Member budgets are configurable per checker::

    PortfolioChecker(context, race=True,
                     walk={"walks": 32, "steps": 1024},
                     inductive={"max_cubes": 10000})

Queries a member does not support simply yield an inconclusive answer and
the race moves on, so persistence -- which only the exhaustive engine can
decide -- still works through a portfolio without special cases.
"""

from repro.exceptions import ConfigurationError
from repro.parallel.context import in_daemon_worker
from repro.verification.checkers.base import (
    CHECKERS,
    Checker,
    CheckerContext,
    CheckerOutcome,
    register_checker,
)

#: Default order: prove structurally, falsify cheaply, then bring in IC3
#: (a no-op without a solver), then explore exhaustively.
DEFAULT_ORDER = ("inductive", "walk", "ic3", "exhaustive")


def _race_member(net, max_states, resume, name, options, query,
                 max_witnesses):
    """Worker entry point of a portfolio race: run one member.

    Rebuilds the member's context from plain data (the context artefacts --
    graph, invariants -- are process-local by design: each racer pays only
    for the artefacts its own strategy needs).  The checkpoint directory
    rides along, so a racing exhaustive member explores crash-safely too.
    Returns the outcome and the member context's
    :meth:`~CheckerContext.exploration_summary` (``None`` when the member
    built no graph), so the race can report the states it explored.
    """
    context = CheckerContext(net, max_states=max_states, resume=resume)
    checker = CHECKERS[name](context, **(options or {}))
    return (checker.check(query, max_witnesses=max_witnesses),
            context.exploration_summary())


@register_checker
class PortfolioChecker(Checker):
    """First conclusive verdict from a race of complementary checkers."""

    name = "portfolio"
    summary = ("rotation or race over the other checkers; first conclusive "
               "verdict wins")
    #: The default order contains the solver-backed IC3 member, so
    #: portfolio verdicts can depend on the solver (campaign digests must
    #: notice).
    uses_solver = True

    def __init__(self, context, order=DEFAULT_ORDER, race=False,
                 **member_options):
        super().__init__(context)
        self.order = tuple(order)
        self.race = bool(race)
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
        self.member_options = {name: dict(member_options.get(name) or {})
                               for name in self.order}
        self.members = [
            CHECKERS[name](context, **self.member_options[name])
            for name in self.order
        ]

    def check(self, query, max_witnesses=5):
        if self.race and len(self.members) > 1 and not in_daemon_worker():
            return self._check_racing(query, max_witnesses)
        return self._check_rotation(query, max_witnesses)

    # -- budgeted rotation (shared artefacts, deterministic) ------------------

    def _check_rotation(self, query, max_witnesses):
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

    # -- true racing (separate processes, losers cancelled) -------------------

    def _check_racing(self, query, max_witnesses):
        # Imported here: only a race needs the process pool's machinery.
        from repro.parallel.supervisor import run_supervised

        context = self.context
        tasks = [
            (name, _race_member,
             (context.net, context.max_states, context.resume, name,
              self.member_options[name], query, max_witnesses))
            for name in self.order
        ]
        outcomes = run_supervised(
            tasks, parallelism=len(tasks),
            stop_when=lambda outcome: (outcome.ok
                                       and outcome.payload[0].conclusive))
        by_name = {outcome.task_id: outcome for outcome in outcomes}
        # name -> (checker outcome, exploration summary), task order.
        finished = {outcome.task_id: outcome.payload
                    for outcome in outcomes if outcome.ok}
        # Every member explores the same net under the same bound, so any
        # graph one of them built is the graph this context would build.
        for _, summary in finished.values():
            if summary is not None:
                context.explored = summary
                break
        for name, (result, _) in finished.items():
            if result.conclusive:
                losers = ", ".join(
                    "{} {}".format(other, by_name[other].status)
                    for other in self.order if other != name)
                result.details = "{} [won the race; {}]".format(
                    result.details, losers or "no other members")
                return result
        attempts = []
        for name in self.order:
            outcome = by_name[name]
            if outcome.ok:
                attempts.append((name, finished[name][0].details))
            else:
                attempts.append((name, "worker {}: {}".format(
                    outcome.status, outcome.error or "no detail")))
        details = "; ".join(
            "{}: {}".format(name, reason) for name, reason in attempts)
        return CheckerOutcome(None, method=self.name,
                              details="no member concluded -- " + details)
