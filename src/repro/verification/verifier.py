"""The high-level verification driver for DFS models."""

from repro.dfs.translation import marking_to_dfs_state, to_petri_net
from repro.exceptions import ConfigurationError, VerificationError
from repro.verification.checkers import (
    CHECKERS,
    CheckerContext,
    DeadlockQuery,
    PersistenceQuery,
    ReachQuery,
    SafenessQuery,
    check_checker_options,
    create_checker,
)
from repro.verification.checkers import DEFAULT_ORDER as DEFAULT_PORTFOLIO_ORDER
from repro.verification.properties import (
    control_mismatch_expression,
    value_exclusion_expression,
)
from repro.verification.results import VerificationResult, VerificationSummary


def check_max_witnesses(max_witnesses):
    """Refuse a negative witness budget (zero asks for verdicts only)."""
    if max_witnesses < 0:
        raise ConfigurationError(
            "max_witnesses must be zero or more, not {}".format(max_witnesses))


def check_properties(properties, custom=None):
    """Refuse property names that no check answers.

    A name is either a built-in check (:data:`Verifier.PROPERTY_CHECKS`) or
    an entry of the *custom* mapping (name to Reach expression); a custom
    name that shadows a built-in one is refused too, since the built-in
    check would run and the expression would be ignored.  Raises
    :class:`~repro.exceptions.ConfigurationError`, so a bad name fails where
    a verifier call or job is built -- the daemon answers 400 at submit.
    """
    custom = custom or {}
    shadowing = sorted(name for name in custom if name in Verifier.PROPERTY_CHECKS)
    if shadowing:
        raise ConfigurationError(
            "custom property name(s) {} shadow built-in checks".format(
                ", ".join(shadowing)))
    for name in properties:
        if name not in Verifier.PROPERTY_CHECKS and name not in custom:
            known = sorted(Verifier.PROPERTY_CHECKS) + sorted(custom)
            raise ConfigurationError(
                "unknown property {!r} (known: {})".format(
                    name, ", ".join(known)))


class Verifier:
    """Verifies a DFS model through its Petri-net translation.

    The translation and the verification artefacts (reachability graph,
    compiled bitmask net, place invariants) are built lazily and shared, so
    several properties can be checked against the same state space.

    Verdicts are produced by a pluggable **checker**
    (:mod:`repro.verification.checkers`):

    * ``"exhaustive"`` (default) -- explore the state space up to
      ``max_states`` and scan it; conclusive both ways within the bound.
    * ``"inductive"`` -- place-invariant, siphon/trap and
      backward-induction proofs over the compiled transition relation;
      concludes "holds" (and finds some violations) with no state bound at
      all, and no solver.
    * ``"walk"`` -- counter-seeded guided random walks, run as vectorised
      swarms; a pure falsifier.
    * ``"ic3"`` -- the SMT-backed IC3/PDR engine of :mod:`repro.smt`:
      proves **unbounded** ("holds" with no state bound) and refutes with
      a replayed trace.  It needs the optional z3 binary: without one
      every query is inconclusive, with a message naming it.
    * ``"portfolio"`` -- races the above, first conclusive verdict wins.

    The exhaustive path explores on the array-native batch engine of
    :mod:`repro.petri.batch` (see
    :func:`~repro.petri.reachability.build_reachability_graph`).  A net
    that does not compile to its bitmask form raises
    :class:`~repro.exceptions.CompilationError`; a net whose exploration
    overflows a place gets a violated 1-safeness verdict with a replayed
    trace, and inconclusive answers for every other property.
    The place invariants the inductive checker needs are derived afresh
    for each verifier: the elimination of
    :func:`~repro.petri.invariants.compute_semiflows` works one incidence
    component at a time, well under a second on an 18-stage OPE pipeline.

    A verifier holds exactly one checker, named by *checker* and built on
    first use.  *checker_options* maps checker names to keyword options for
    their construction (e.g. ``{"walk": {"walks": 32, "steps": 1024}}``);
    an option no constructor takes raises
    :class:`~repro.exceptions.ConfigurationError` right here.

    The standard checks are registered by name in :data:`PROPERTY_CHECKS`;
    :meth:`verify_properties` runs any named subset -- including custom
    Reach properties given as a ``custom`` mapping of name to expression --
    which is how campaign jobs (:mod:`repro.campaign`) drive a verifier
    from a declarative, picklable description instead of a live object.
    """

    #: Ordered registry of the standard checks: name -> bound-method name.
    PROPERTY_CHECKS = {
        "safeness": "verify_safeness",
        "deadlock": "verify_deadlock_freedom",
        "mismatch": "verify_control_mismatch",
        "exclusion": "verify_value_mutual_exclusion",
        "persistence": "verify_persistence",
    }

    def __init__(self, dfs, max_states=200000, net=None,
                 checker="exhaustive", checker_options=None,
                 resume=None):
        self.dfs = dfs
        self.max_states = max_states
        #: Optional exploration checkpoint directory (crash-safe runs; a
        #: leftover checkpoint is resumed bit-identically).
        self.resume = resume
        if checker not in CHECKERS:
            raise VerificationError(
                "unknown checker {!r} (known: {})".format(
                    checker, ", ".join(sorted(CHECKERS))))
        self.checker = checker
        self.checker_options = dict(checker_options or {})
        unknown_options = [name for name in self.checker_options
                           if name not in CHECKERS]
        if unknown_options:
            raise VerificationError(
                "checker_options given for unknown checker(s): {} "
                "(known: {})".format(", ".join(sorted(unknown_options)),
                                     ", ".join(sorted(CHECKERS))))
        check_checker_options(self.checker_options)
        self._net = net
        self._context = None
        self._checker = None

    # -- lazy construction ------------------------------------------------------

    @property
    def net(self):
        """The Petri-net translation of the model."""
        if self._net is None:
            self._net = to_petri_net(self.dfs)
        return self._net

    @property
    def context(self):
        """The shared checker context (graph, compiled net, invariants)."""
        if self._context is None:
            self._context = CheckerContext(
                self.net, max_states=self.max_states, resume=self.resume)
        return self._context

    @property
    def graph(self):
        """The reachability graph of the translation (built on demand)."""
        return self.context.graph

    @property
    def state_count(self):
        """States of the reachability graph (those admitted before the
        overflow when a place overflowed)."""
        self.graph  # builds the graph, or records the overflow
        return self.context.state_count

    def _options_for(self, name):
        """Construction options for checker *name*.

        Options keyed by a member checker's name also reach that member
        inside a portfolio, so ``checker_options={"walk": {...}}`` tunes the
        walks whether the walk checker runs standalone or as a portfolio
        member; explicit nested portfolio options
        (``{"portfolio": {"walk": {...}}}``) win on conflicts.
        """
        options = dict(self.checker_options.get(name) or {})
        if name == "portfolio":
            for member in options.get("order", DEFAULT_PORTFOLIO_ORDER):
                top_level = self.checker_options.get(member)
                if not top_level:
                    continue
                merged = dict(top_level)
                merged.update(options.get(member) or {})
                options[member] = merged
        return options

    def _active_checker(self):
        """The verifier's one checker, built on first use."""
        if self._checker is None:
            self._checker = create_checker(
                self.checker, self.context, self._options_for(self.checker))
        return self._checker

    def _decorate(self, witnesses):
        """Attach a DFS-level state summary to Petri-net witnesses."""
        decorated = []
        for witness in witnesses:
            entry = dict(witness)
            entry["dfs_state"] = marking_to_dfs_state(self.dfs, witness["marking"])
            decorated.append(entry)
        return decorated

    def _run(self, property_name, query, max_witnesses):
        check_max_witnesses(max_witnesses)
        outcome = self._active_checker().check(
            query, max_witnesses=max_witnesses)
        return VerificationResult(
            property_name, outcome.holds,
            witnesses=self._decorate(outcome.witnesses),
            details=outcome.details, method=outcome.method,
        )

    # -- individual properties ----------------------------------------------------

    def verify_deadlock_freedom(self, max_witnesses=5):
        """No reachable state of the model is completely stuck."""
        return self._run("deadlock freedom", DeadlockQuery(), max_witnesses)

    def verify_control_mismatch(self, max_witnesses=5):
        """No node ever observes both True and False control tokens."""
        expression = control_mismatch_expression(self.dfs)
        if expression is None:
            return VerificationResult(
                "control-token mismatch", True,
                details="no node is guarded by two or more control registers",
            )
        query = ReachQuery(expression, description="control-token mismatch")
        return self._run("control-token mismatch", query, max_witnesses)

    def verify_persistence(self, max_witnesses=5):
        """No event is disabled by another one (hazard-freedom), choices excepted."""
        return self._run("persistence", PersistenceQuery(), max_witnesses)

    def verify_safeness(self, max_witnesses=5):
        """The translated net is 1-safe (a sanity check on the translation)."""
        return self._run("1-safeness", SafenessQuery(), max_witnesses)

    def verify_value_mutual_exclusion(self, max_witnesses=5):
        """A dynamic register never holds a True and a False token at once."""
        expression = value_exclusion_expression(self.dfs)
        if expression is None:
            return VerificationResult(
                "token-value exclusion", True,
                details="the model has no dynamic registers",
            )
        query = ReachQuery(expression, description="token-value exclusion")
        return self._run("token-value exclusion", query, max_witnesses)

    def verify_custom(self, expression, property_name="custom property",
                      max_witnesses=5):
        """Check a custom Reach expression describing *bad* states."""
        query = ReachQuery(expression, description=property_name)
        return self._run(property_name, query, max_witnesses)

    # -- batched verification ---------------------------------------------------------

    def verify_properties(self, properties, max_witnesses=5, custom=None,
                          progress=None):
        """Run the named checks and return a summary.

        *properties* is an iterable of :data:`PROPERTY_CHECKS` keys and/or
        names of the *custom* mapping (name to Reach expression, which must
        not shadow a built-in name); every name is checked
        (:func:`check_properties`) before any check runs, and the checks run
        in the given order against the same shared artefacts.

        *progress*, if given, is called as ``progress(event, name, result)``
        around each property: once with ``("property-started", name, None)``
        before a check runs and once with ``("property-finished", name,
        result)`` after -- the hook the serving stack turns into streamed
        per-job events.
        """
        properties = list(properties)
        custom = custom or {}
        check_properties(properties, custom)
        results = []
        for name in properties:
            if progress is not None:
                progress("property-started", name, None)
            if name in custom:
                result = self.verify_custom(custom[name], property_name=name,
                                            max_witnesses=max_witnesses)
            else:
                result = getattr(self, self.PROPERTY_CHECKS[name])(
                    max_witnesses=max_witnesses)
            results.append(result)
            if progress is not None:
                progress("property-finished", name, result)
        summary = VerificationSummary(
            self.dfs.name,
            state_count=self.context.state_count,
            truncated=self.context.truncated,
            exploration=self.context.exploration,
        )
        for result in results:
            summary.add(result)
        return summary

    def verify_all(self, include_persistence=True):
        """Run the standard battery of checks and return a summary."""
        properties = [name for name in self.PROPERTY_CHECKS
                      if include_persistence or name != "persistence"]
        return self.verify_properties(properties)
