"""Solver-backed checkers: BMC, k-induction and IC3 behind the registry.

These checkers translate queries into the SMT proof engines of
:mod:`repro.smt` and fold the answers back into the repo's three-valued
:class:`~repro.verification.checkers.base.CheckerOutcome` convention.
They are strictly optional: when the z3 binary is missing (or
``REPRO_NO_Z3`` is set) every query comes back inconclusive with a message
naming the binary, so portfolios degrade gracefully and nothing crashes.

Soundness containment, in both directions:

* a ``violated`` engine outcome is only trusted after its trace **replays**
  through :meth:`repro.petri.net.PetriNet.fire` from the initial marking
  and the final marking actually satisfies the query's bad-state predicate
  -- a solver (or encoding) bug degrades to inconclusive, never to a wrong
  "violated";
* a ``proved`` outcome comes from engines that re-validate their own
  certificates (IC3) or from an induction whose base cases were checked at
  every depth (k-induction); solver crashes, timeouts and protocol errors
  all surface as :class:`~repro.exceptions.SolverError` and are mapped to
  inconclusive outcomes here.
"""

from repro.exceptions import (
    ModelError,
    SolverError,
    SolverTimeoutError,
    SolverUnavailableError,
)
from repro.petri.invariants import proves_bound
from repro.smt.bmc import run_bmc
from repro.smt.encoder import SmtEncoder
from repro.smt.ic3 import run_ic3
from repro.smt.kinduction import run_kinduction
from repro.verification.checkers.base import Checker, register_checker


class SolverBackedChecker(Checker):
    """Shared plumbing of the SMT checkers: encoding, replay, containment."""

    uses_solver = True
    requires_solver = True

    def __init__(self, context, timeout=30.0):
        super().__init__(context)
        #: Per-query solver budget in seconds (soft limit plus a hard
        #: wall-clock kill); ``None`` disables both.
        self.timeout = float(timeout) if timeout else None

    # -- availability ---------------------------------------------------------

    def _solver_missing(self):
        """An inconclusive outcome naming the missing binary, or ``None``."""
        from repro.smt.solver import require_solver
        try:
            require_solver()
        except SolverUnavailableError as exc:
            return self.outcome(None, details=str(exc))
        return None

    # -- encoding -------------------------------------------------------------

    def _certified_safe(self):
        """True when the semiflows certify every place 1-bounded."""
        semiflows = self.context.semiflows
        return bool(semiflows) and proves_bound(
            semiflows, self.context.net.places, bound=1)

    def _encoder(self, safe):
        return SmtEncoder(self.context.net, safe=safe)

    @staticmethod
    def _bad_builder(encoder, query):
        """Map *query* to a per-step bad-marking formula builder."""
        if query.kind == "reach":
            return lambda step: encoder.predicate(query.expression, step)
        if query.kind == "deadlock":
            return encoder.deadlock
        if query.kind == "safeness":
            return lambda step: encoder.excess_tokens(query.bound, step)
        return None

    # -- counterexample validation --------------------------------------------

    def _bad_marking(self, query, marking):
        """Does *marking* actually satisfy the query's bad-state predicate?"""
        if query.kind == "reach":
            return query.expression.evaluate(marking)
        if query.kind == "deadlock":
            return not self.context.net.enabled_transitions(marking)
        if query.kind == "safeness":
            return any(tokens > query.bound for tokens in marking.values())
        return False

    def _replayed(self, query, result):
        """Replay an engine trace; return a witness dict or ``None``.

        The trace is fired step by step from the initial marking.  Any
        disabled transition (or capacity overflow) aborts the replay: the
        engine's model was wrong and its verdict must not be trusted.
        """
        net = self.context.net
        marking = net.initial_marking()
        try:
            for transition in result.trace:
                marking = net.fire(transition, marking)
        except ModelError:
            return None
        if not self._bad_marking(query, marking):
            return None
        witness = {"marking": marking, "trace": list(result.trace)}
        if query.kind == "safeness":
            witness["places"] = {
                place: tokens for place, tokens in marking.items()
                if tokens > query.bound}
        return witness

    # -- outcome mapping ------------------------------------------------------

    def _decide(self, query, max_witnesses):
        missing = self._solver_missing()
        if missing is not None:
            return missing
        from repro.smt.solver import solver_respawns
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
        if result is None:
            return self.unsupported(query)
        if result.proved:
            return self.outcome(True, details=note(result.details))
        if result.violated:
            witness = self._replayed(query, result)
            if witness is None:
                return self.outcome(None, details=note(
                    "the solver reported a violation but its trace did not "
                    "replay; not trusting the verdict"))
            return self.outcome(False, witnesses=[witness],
                                details=note(result.details))
        return self.outcome(None, details=note(result.details))

    def _prove(self, query):
        """Run the engine; return a ProofOutcome or ``None`` (unsupported)."""
        raise NotImplementedError

    def check_reach(self, query, max_witnesses=5):
        self.context.check_places(query.expression)
        return self._decide(query, max_witnesses)

    def check_deadlock(self, query, max_witnesses=5):
        return self._decide(query, max_witnesses)

    def check_safeness(self, query, max_witnesses=5):
        return self._decide(query, max_witnesses)


@register_checker
class BmcChecker(SolverBackedChecker):
    """Falsify queries by SMT bounded model checking.

    A complete falsifier up to ``max_depth`` firing steps -- shallow bugs
    come back as replayable traces without building any state space -- but
    it can never prove: an exhausted unrolling is an inconclusive outcome.
    """

    name = "bmc"
    summary = ("SMT bounded model checking (z3): counterexample traces by "
               "incremental unrolling, never proves")

    def __init__(self, context, max_depth=64, timeout=30.0):
        super().__init__(context, timeout=timeout)
        self.max_depth = int(max_depth)

    def _prove(self, query):
        # Safeness asks whether a place can exceed its bound, so the
        # encoding must not clamp places to 1 even on certified nets.
        safe = query.kind != "safeness" and self._certified_safe()
        encoder = self._encoder(safe)
        bad = self._bad_builder(encoder, query)
        if bad is None:
            return None
        return run_bmc(encoder, bad, max_depth=self.max_depth,
                       semiflows=self.context.semiflows,
                       timeout=self.timeout)


@register_checker
class KInductionChecker(SolverBackedChecker):
    """Prove or refute queries by k-induction with simple-path strengthening.

    Each iteration is one BMC base case (so every violation is found at its
    exact depth, with a trace) plus one induction step; when the step case
    closes the property **holds with no state bound at all**.
    """

    name = "kinduction"
    summary = ("SMT k-induction (z3): unbounded proofs via strengthened "
               "induction, refutes with a trace")

    def __init__(self, context, max_depth=32, simple_path=True, timeout=30.0):
        super().__init__(context, timeout=timeout)
        self.max_depth = int(max_depth)
        self.simple_path = bool(simple_path)

    def _prove(self, query):
        safe = query.kind != "safeness" and self._certified_safe()
        encoder = self._encoder(safe)
        bad = self._bad_builder(encoder, query)
        if bad is None:
            return None
        return run_kinduction(encoder, bad, max_depth=self.max_depth,
                              semiflows=self.context.semiflows,
                              simple_path=self.simple_path,
                              timeout=self.timeout)


@register_checker
class Ic3Checker(SolverBackedChecker):
    """Prove reach and deadlock queries by IC3/PDR frame strengthening.

    The strongest prover of the portfolio on certified 1-safe nets: it
    needs no unrolling depth, and a "holds" verdict carries a re-validated
    inductive-invariant certificate.  Requires the place invariants to
    certify 1-safety (every DFS translation qualifies by construction);
    uncertified nets come back inconclusive.
    """

    name = "ic3"
    summary = ("SMT IC3/PDR (z3): unbounded proofs with inductive-invariant "
               "certificates on certified 1-safe nets")

    def __init__(self, context, max_frames=64, max_queries=100000,
                 timeout=30.0, wall_timeout=300.0):
        super().__init__(context, timeout=timeout)
        self.max_frames = int(max_frames)
        self.max_queries = int(max_queries)
        #: Whole-run wall-clock budget in seconds (``None`` = unlimited).
        self.wall_timeout = float(wall_timeout) if wall_timeout else None

    #: The last certificate produced by a "holds" verdict (inspection aid).
    certificate = None

    def check_safeness(self, query, max_witnesses=5):
        # IC3 runs on the 1-safe encoding, which asserts the very bound a
        # safeness query is about -- the answer would be circular.
        return self.unsupported(query)

    def _prove(self, query):
        if not self._certified_safe():
            from repro.smt import proof
            return proof.unknown(
                "IC3 needs place invariants certifying 1-safety, and the "
                "semiflows of this net do not")
        encoder = self._encoder(True)
        bad = self._bad_builder(encoder, query)
        if bad is None:
            return None
        initial = self.context.net.initial_marking()
        result = run_ic3(
            encoder, bad(0), initial_bad=self._bad_marking(query, initial),
            semiflows=self.context.semiflows, max_frames=self.max_frames,
            max_queries=self.max_queries, wall_timeout=self.wall_timeout,
            timeout=self.timeout)
        self.certificate = result.certificate if result.proved else None
        return result
