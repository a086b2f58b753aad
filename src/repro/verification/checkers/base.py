"""The pluggable checker abstraction of the verification stack.

A **checker** is a strategy for answering property *queries* about the
Petri-net translation of a DFS model.  Queries describe what to decide
(``reach``: is some bad state reachable?  ``deadlock``: is some reachable
state stuck?  ``safeness``: does any place ever hold a second token?
``persistence``: can one event disable another?); checkers decide them with
different trade-offs:

* :class:`~repro.verification.checkers.exhaustive.ExhaustiveChecker` --
  state-space exploration on the batch engine
  (:func:`~repro.petri.reachability.build_reachability_graph`); conclusive
  both ways up to ``max_states``, inconclusive beyond it;
* :class:`~repro.verification.checkers.inductive.InductiveChecker` --
  place-invariant and backward-induction reasoning over the compiled
  transition relation; proves "holds" (and finds some violations) with no
  state bound at all;
* :class:`~repro.verification.checkers.walk.RandomWalkChecker` --
  counter-seeded guided walks; a fast falsifier far beyond any truncation
  horizon, never concludes "holds";
* :class:`~repro.verification.checkers.portfolio.PortfolioChecker` -- races
  the above and returns the first conclusive verdict.

All checkers attached to one :class:`CheckerContext` share the translation,
its compiled bitmask form, the (lazily built) reachability graph and the
computed place invariants, so a portfolio pays for each artefact at most
once.

Every answer is a :class:`CheckerOutcome` whose ``holds`` follows the
three-valued convention used across the repo: ``True`` (property holds),
``False`` (violated, with witnesses), ``None`` (this checker cannot
decide).  A conclusive outcome from *any* checker is a definitive verdict;
checkers must never return a conclusive answer they cannot justify.
"""

from repro.exceptions import (
    ConfigurationError,
    ReachEvaluationError,
    SafenessOverflowError,
    VerificationError,
)
from repro.petri.compiled import CompiledNet
from repro.petri.invariants import InvariantBudgetExceeded, compute_semiflows
from repro.petri.reachability import build_reachability_graph
from repro.reach.ast import ReachExpression
from repro.reach.evaluator import check_places as evaluator_check_places
from repro.reach.parser import parse

_UNSET = object()

#: Registry of checker implementations: name -> class.
CHECKERS = {}


def register_checker(cls):
    """Class decorator: register a :class:`Checker` subclass by its name."""
    CHECKERS[cls.name] = cls
    return cls


def create_checker(name, context, options=None):
    """Instantiate the checker registered under *name* on *context*."""
    try:
        cls = CHECKERS[name]
    except KeyError:
        raise VerificationError(
            "unknown checker {!r} (known: {})".format(
                name, ", ".join(sorted(CHECKERS))))
    return cls(context, **(options or {}))


def check_checker_options(checker_options):
    """Reject checker options that no checker constructor accepts.

    *checker_options* maps checker names to keyword options, the shape of
    ``Verifier(checker_options=...)``.  Every name must be registered and
    every option a keyword of that checker's constructor; a checker that
    takes member options (the portfolio's ``{"portfolio": {"walk": {...}}}``)
    has each member's options checked against the member in turn.  Raises
    :class:`~repro.exceptions.ConfigurationError`, so a bad option fails
    where a verifier or job is built -- not later, as a ``TypeError`` inside
    a pool worker.
    """
    import inspect

    for name, options in checker_options.items():
        cls = CHECKERS.get(name)
        if cls is None:
            raise ConfigurationError(
                "checker options given for unknown checker {!r} (known: {})"
                .format(name, ", ".join(sorted(CHECKERS))))
        if options is None:
            continue
        if not isinstance(options, dict):
            raise ConfigurationError(
                "options of the {} checker must be a mapping, not {!r}".format(
                    name, options))
        parameters = list(inspect.signature(cls).parameters.values())[1:]
        keywords = sorted(parameter.name for parameter in parameters
                          if parameter.kind in (parameter.POSITIONAL_OR_KEYWORD,
                                                parameter.KEYWORD_ONLY))
        takes_members = any(parameter.kind is parameter.VAR_KEYWORD
                            for parameter in parameters)
        # A member-taking checker also accepts every checker's name.
        known = keywords + sorted(CHECKERS) if takes_members else keywords
        for option, value in options.items():
            if option in keywords:
                continue
            if takes_members and option in CHECKERS:
                check_checker_options({option: value})
                continue
            raise ConfigurationError(
                "unknown option {!r} for the {} checker (known: {})".format(
                    option, name, ", ".join(known)))


# -- queries -----------------------------------------------------------------


class Query:
    """Base class of property queries; ``kind`` selects the handler."""

    kind = "abstract"


class ReachQuery(Query):
    """Is some reachable marking a *bad* state of the Reach expression?"""

    kind = "reach"

    def __init__(self, expression, description="reach property"):
        if isinstance(expression, str):
            expression = parse(expression)
        if not isinstance(expression, ReachExpression):
            raise ReachEvaluationError(
                "expected a Reach expression or string, found {!r}".format(
                    type(expression)))
        self.expression = expression
        self.description = description


class DeadlockQuery(Query):
    """Is some reachable marking completely stuck?"""

    kind = "deadlock"


class SafenessQuery(Query):
    """Does some reachable marking hold two tokens in a place (1-safeness)?"""

    kind = "safeness"


class PersistenceQuery(Query):
    """Can firing one transition disable another (a hazard)?"""

    kind = "persistence"

    def __init__(self, allow_conflicts=True):
        self.allow_conflicts = allow_conflicts


# -- outcomes ----------------------------------------------------------------


class CheckerOutcome:
    """The answer of one checker to one query.

    ``holds`` is three-valued (``True`` / ``False`` / ``None``); witnesses
    follow the repo-wide shape (dicts with ``marking`` and usually
    ``trace``); ``method`` names the checker that produced the verdict,
    which flows into results, campaign records and reports.
    """

    def __init__(self, holds, witnesses=None, details="", method=None):
        self.holds = holds
        self.witnesses = witnesses or []
        self.details = details
        self.method = method

    @property
    def conclusive(self):
        return self.holds is not None

    def __repr__(self):
        status = {True: "holds", False: "violated", None: "inconclusive"}[self.holds]
        return "CheckerOutcome({}, method={!r}, witnesses={})".format(
            status, self.method, len(self.witnesses))


# -- shared context ----------------------------------------------------------


class CheckerContext:
    """Artefacts shared by every checker working on one net.

    The reachability graph, the compiled bitmask net and the place
    invariants are each built on first use and cached, so e.g. a portfolio
    run never explores the state space twice, and a purely inductive run
    never explores it at all.  A net that does not compile raises
    :class:`~repro.exceptions.CompilationError` from :attr:`graph` and
    :attr:`compiled`.
    """

    def __init__(self, net, max_states=200000, resume=None):
        self.net = net
        self.max_states = max_states
        #: Optional checkpoint directory making the exploration crash-safe
        #: (per-level manifests; a leftover checkpoint is resumed, with a
        #: graph bit-identical to an uninterrupted run -- see
        #: :func:`~repro.petri.reachability.build_reachability_graph`).
        self.resume = resume
        #: ``(state_count, truncated, exploration)`` of a graph built for
        #: this net in another process -- a racing portfolio member's
        #: worker -- reported while this context has no graph of its own.
        self.explored = None
        #: The :class:`~repro.exceptions.SafenessOverflowError` that stopped
        #: the exploration of a net that is not 1-safe, else ``None``.
        self.overflow = None
        self._graph = None
        self._compiled = None
        self._semiflows = _UNSET

    @property
    def graph(self):
        """The reachability graph (built on first access).

        ``None`` when a firing overflowed a place: the net is not 1-safe,
        and :attr:`overflow` holds the error with its trace.
        """
        if self._graph is None and self.overflow is None:
            try:
                self._graph = build_reachability_graph(
                    self.net, max_states=self.max_states, resume=self.resume)
            except SafenessOverflowError as error:
                self.overflow = error
        return self._graph

    @property
    def compiled(self):
        """The compiled bitmask net (built on first access)."""
        if self._compiled is None:
            self._compiled = CompiledNet.compile(self.net)
        return self._compiled

    @property
    def semiflows(self):
        """Place invariants of the net (empty when the budget was exceeded)."""
        if self._semiflows is _UNSET:
            try:
                self._semiflows = compute_semiflows(self.net)
            except InvariantBudgetExceeded:
                self._semiflows = []
        return self._semiflows

    def check_places(self, expression):
        """Validate that every place of *expression* exists in the net."""
        evaluator_check_places(expression, self.net)

    def exploration_summary(self):
        """``(state_count, truncated, exploration)``, or ``None`` (no graph).

        An exploration stopped by an :attr:`overflow` reports the states it
        had admitted, with no stats.  Falls back to :attr:`explored` when
        the graph was built elsewhere.
        """
        graph = self._graph
        if graph is not None:
            return len(graph), bool(graph.truncated), graph.exploration_stats
        if self.overflow is not None:
            return self.overflow.states or 0, False, None
        return self.explored

    @property
    def state_count(self):
        """States explored so far (``0`` when nothing was explored)."""
        summary = self.exploration_summary()
        return summary[0] if summary else 0

    @property
    def truncated(self):
        summary = self.exploration_summary()
        return bool(summary and summary[1])

    @property
    def exploration(self):
        """Structured exploration stats, or ``None`` (no graph).

        The batch engine attaches per-phase timings and level counts
        to the graph (``graph.exploration_stats``); this surfaces them to
        summaries, campaign payloads and the service ``/stats``.
        """
        summary = self.exploration_summary()
        return summary[2] if summary else None


# -- checker base ------------------------------------------------------------


class Checker:
    """Base class of all verification checkers.

    Subclasses set :attr:`name`, accept their tuning knobs as keyword
    arguments, and implement ``check_<kind>(query, max_witnesses)`` handlers
    for the query kinds they support; unknown kinds fall back to an
    inconclusive "unsupported" outcome, which is what lets a portfolio mix
    specialists without special cases.
    """

    name = "abstract"
    #: One-line description, surfaced by the CLI ``--checker`` help (which
    #: is generated from the registry, never hand-maintained).
    summary = ""
    #: True when verdicts depend on an external SMT solver.  Campaign
    #: cache keys fold the solver fingerprint in for such checkers, so a
    #: solver upgrade invalidates cached verdicts.
    uses_solver = False
    #: True when the checker is useless without the solver binary -- the
    #: CLI refuses to select it (a clear error, not a silent inconclusive).
    requires_solver = False

    def __init__(self, context):
        self.context = context

    def check(self, query, max_witnesses=5):
        """Answer *query*; unsupported kinds are inconclusive, not errors."""
        handler = getattr(self, "check_" + query.kind, None)
        if handler is None:
            return self.unsupported(query)
        return handler(query, max_witnesses=max_witnesses)

    def unsupported(self, query):
        return CheckerOutcome(
            None, method=self.name,
            details="the {} checker does not support {} queries".format(
                self.name, query.kind))

    def outcome(self, holds, witnesses=None, details=""):
        return CheckerOutcome(holds, witnesses=witnesses, details=details,
                              method=self.name)

    def __repr__(self):
        return "{}()".format(type(self).__name__)
