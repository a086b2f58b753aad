"""The IC3 checker: the one solver-backed engine behind the registry.

:class:`Ic3Checker` translates reach and deadlock queries into the IC3/PDR
engine of :mod:`repro.smt.ic3` and folds the answers back into the repo's
three-valued :class:`~repro.verification.checkers.base.CheckerOutcome`
convention.  It is strictly optional: when the z3 binary is missing (or
``REPRO_NO_Z3`` is set) every query comes back inconclusive with a message
naming the binary, so portfolios degrade gracefully and nothing crashes.
The solver tier is imported inside the methods that run it, so a process
that never runs IC3 never loads :mod:`repro.smt`; registering the checker
needs none of it.

Soundness containment, in both directions:

* a ``violated`` engine outcome is only trusted after its trace **replays**
  through :meth:`repro.petri.net.PetriNet.fire` from the initial marking
  and the final marking actually satisfies the query's bad-state predicate
  -- a solver (or encoding) bug degrades to inconclusive, never to a wrong
  "violated";
* a ``proved`` outcome carries an inductive invariant that the engine
  re-validated with fresh solver queries; solver crashes, timeouts and
  protocol errors all surface as :class:`~repro.exceptions.SolverError`
  and are mapped to inconclusive outcomes here.
"""

from repro.exceptions import (
    ModelError,
    SolverError,
    SolverTimeoutError,
    SolverUnavailableError,
)
from repro.petri.invariants import proves_bound
from repro.verification.checkers.base import Checker, register_checker


@register_checker
class Ic3Checker(Checker):
    """Prove reach and deadlock queries by IC3/PDR frame strengthening.

    The strongest prover of the portfolio on certified 1-safe nets: it
    needs no unrolling depth, and a "holds" verdict carries a re-validated
    inductive-invariant certificate.  Requires the place invariants to
    certify 1-safety (every DFS translation qualifies by construction);
    uncertified nets come back inconclusive.  Safeness queries are not
    supported: the encoding asserts the very bound they ask about.
    """

    name = "ic3"
    summary = ("SMT IC3/PDR (z3): unbounded proofs with inductive-invariant "
               "certificates on certified 1-safe nets")
    uses_solver = True
    requires_solver = True

    #: The last certificate produced by a "holds" verdict (inspection aid).
    certificate = None

    def __init__(self, context, max_frames=64, max_queries=100000,
                 timeout=30.0, wall_timeout=300.0):
        super().__init__(context)
        self.max_frames = int(max_frames)
        self.max_queries = int(max_queries)
        #: Per-query solver budget in seconds (soft limit plus a hard
        #: wall-clock kill); ``None`` disables both.
        self.timeout = float(timeout) if timeout else None
        #: Whole-run wall-clock budget in seconds (``None`` = unlimited).
        self.wall_timeout = float(wall_timeout) if wall_timeout else None

    def check_reach(self, query, max_witnesses=5):
        self.context.check_places(query.expression)
        return self._decide(query)

    def check_deadlock(self, query, max_witnesses=5):
        return self._decide(query)

    # -- counterexample validation --------------------------------------------

    def _bad_marking(self, query, marking):
        """Does *marking* actually satisfy the query's bad-state predicate?"""
        if query.kind == "reach":
            return query.expression.evaluate(marking)
        return not self.context.net.enabled_transitions(marking)

    def _replayed(self, query, trace):
        """Replay an engine trace; return a witness dict or ``None``.

        The trace is fired step by step from the initial marking.  Any
        disabled transition (or capacity overflow) aborts the replay: the
        engine's model was wrong and its verdict must not be trusted.
        """
        net = self.context.net
        marking = net.initial_marking()
        try:
            for transition in trace:
                marking = net.fire(transition, marking)
        except ModelError:
            return None
        if not self._bad_marking(query, marking):
            return None
        return {"marking": marking, "trace": list(trace)}

    # -- outcome mapping ------------------------------------------------------

    def _decide(self, query):
        from repro.smt.solver import require_solver, solver_respawns
        try:
            require_solver()
        except SolverUnavailableError as exc:
            return self.outcome(None, details=str(exc))
        respawns_before = solver_respawns()

        def note(details):
            """Append the query's solver-respawn count to *details*."""
            respawned = solver_respawns() - respawns_before
            if not respawned:
                return details
            suffix = "solver respawned {} time(s) mid-session".format(
                respawned)
            return "{}; {}".format(details, suffix) if details else suffix

        try:
            result = self._prove(query)
        except SolverTimeoutError as exc:
            return self.outcome(None, details=note(
                "solver timeout: {}".format(exc)))
        except SolverUnavailableError as exc:
            return self.outcome(None, details=note(str(exc)))
        except SolverError as exc:
            return self.outcome(None, details=note(
                "solver failure: {}".format(exc)))
        if result.proved:
            return self.outcome(True, details=note(result.details))
        if result.violated:
            witness = self._replayed(query, result.trace)
            if witness is None:
                return self.outcome(None, details=note(
                    "the solver reported a violation but its trace did not "
                    "replay; not trusting the verdict"))
            return self.outcome(False, witnesses=[witness],
                                details=note(result.details))
        return self.outcome(None, details=note(result.details))

    def _prove(self, query):
        """Run IC3 on *query*; return a :class:`repro.smt.proof.ProofOutcome`."""
        from repro.smt import proof
        from repro.smt.encoder import SmtEncoder
        from repro.smt.ic3 import run_ic3

        context = self.context
        semiflows = context.semiflows
        if not (semiflows and proves_bound(semiflows, context.net.places,
                                           bound=1)):
            return proof.unknown(
                "IC3 needs place invariants certifying 1-safety, and the "
                "semiflows of this net do not")
        encoder = SmtEncoder(context.net)
        if query.kind == "reach":
            bad = encoder.predicate(query.expression, 0)
        else:
            bad = encoder.deadlock(0)
        initial = context.net.initial_marking()
        result = run_ic3(
            encoder, bad, initial_bad=self._bad_marking(query, initial),
            semiflows=semiflows, max_frames=self.max_frames,
            max_queries=self.max_queries, wall_timeout=self.wall_timeout,
            timeout=self.timeout)
        self.certificate = result.certificate if result.proved else None
        return result
