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

#: Registry of named custom Reach properties (see
#: :func:`register_custom_property`).  Name -> ``(expression, description)``.
CUSTOM_PROPERTIES = {}


def register_custom_property(name, expression, description=None):
    """Register a custom Reach *expression* (text or AST) under *name*.

    Registered names become first-class property keys: campaign jobs, the
    CLI ``--properties`` list and :meth:`Verifier.verify_properties` accept
    them alongside the built-in checks, dispatching to
    :meth:`Verifier.verify_custom`.  The expression describes the *bad*
    states, as everywhere in the Reach language.  Returns *name* so the call
    can be used as an expression.
    """
    if name in Verifier.PROPERTY_CHECKS:
        raise VerificationError(
            "cannot register custom property {!r}: the name is taken by a "
            "built-in check".format(name))
    CUSTOM_PROPERTIES[name] = (expression, description or name)
    return name


def unregister_custom_property(name):
    """Remove a registered custom property (missing names are ignored)."""
    CUSTOM_PROPERTIES.pop(name, None)


def check_max_witnesses(max_witnesses):
    """Refuse a negative witness budget (zero asks for verdicts only)."""
    if max_witnesses < 0:
        raise ConfigurationError(
            "max_witnesses must be zero or more, not {}".format(max_witnesses))


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
    * ``"bmc"`` / ``"kinduction"`` / ``"ic3"`` -- SMT-backed engines of
      :mod:`repro.smt` (bounded model checking, k-induction, IC3/PDR).
      BMC falsifies at any depth; k-induction and IC3 prove **unbounded**
      ("holds" with no state bound).  They need the optional z3 binary:
      without one every query is inconclusive, with a message naming it.
    * ``"portfolio"`` -- races the above, first conclusive verdict wins.

    The exhaustive path's state-space engine is picked from the net, never
    by the caller: nets that compile and stay 1-safe run on the
    array-native batch explorer of :mod:`repro.petri.batch`, all others
    on the explicit explorer (see
    :func:`~repro.petri.reachability.build_reachability_graph`).
    *semiflow_cache* memoises the place-invariant derivation on
    disk (:class:`~repro.petri.invariants.SemiflowCache`), which makes
    inductive sweeps over structurally stable families near-free on warm
    runs.

    *checker_options* maps checker names to keyword options for their
    construction (e.g. ``{"walk": {"walks": 32, "steps": 1024}}``); an
    option no constructor takes raises
    :class:`~repro.exceptions.ConfigurationError` right here;
    *checker_overrides* maps property keys to checker names, overriding the
    default checker per property.  Every ``verify_*`` method also accepts an
    explicit ``checker=`` argument, which wins over both.

    The standard checks are registered by name in :data:`PROPERTY_CHECKS`;
    :meth:`verify_properties` runs any named subset -- including custom
    Reach properties registered with :func:`register_custom_property` --
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
                 checker_overrides=None, semiflow_cache=None,
                 spill_dir=None, spill_bytes=None, resume=None):
        self.dfs = dfs
        self.max_states = max_states
        #: Out-of-core knobs (see :mod:`repro.petri.storage`): past
        #: *spill_bytes* of RAM the graph's arrays move onto memmap files
        #: under *spill_dir*.  Never affects verdicts.
        self.spill_dir = spill_dir
        self.spill_bytes = spill_bytes
        #: Optional exploration checkpoint directory (crash-safe runs; a
        #: leftover checkpoint is resumed bit-identically).
        self.resume = resume
        #: Optional on-disk memo of the place-invariant derivation (a
        #: :class:`~repro.petri.invariants.SemiflowCache` or directory).
        self.semiflow_cache = semiflow_cache
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
        self.checker_overrides = dict(checker_overrides or {})
        unknown_overrides = [name for name in self.checker_overrides.values()
                             if name not in CHECKERS]
        if unknown_overrides:
            raise VerificationError(
                "checker_overrides name unknown checker(s): {} "
                "(known: {})".format(", ".join(sorted(unknown_overrides)),
                                     ", ".join(sorted(CHECKERS))))
        self._net = net
        self._context = None
        self._checkers = {}

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
                self.net, max_states=self.max_states,
                semiflow_cache=self.semiflow_cache,
                spill_dir=self.spill_dir, spill_bytes=self.spill_bytes,
                resume=self.resume)
        return self._context

    @property
    def graph(self):
        """The reachability graph of the translation (built on demand)."""
        return self.context.graph

    @property
    def state_count(self):
        return len(self.graph)

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

    def _checker_for(self, property_key, checker=None):
        name = checker or self.checker_overrides.get(property_key) or self.checker
        instance = self._checkers.get(name)
        if instance is None:
            instance = create_checker(name, self.context, self._options_for(name))
            self._checkers[name] = instance
        return instance

    def _decorate(self, witnesses):
        """Attach a DFS-level state summary to Petri-net witnesses."""
        decorated = []
        for witness in witnesses:
            entry = dict(witness)
            entry["dfs_state"] = marking_to_dfs_state(self.dfs, witness["marking"])
            decorated.append(entry)
        return decorated

    def _run(self, property_key, property_name, query, checker, max_witnesses):
        check_max_witnesses(max_witnesses)
        outcome = self._checker_for(property_key, checker).check(
            query, max_witnesses=max_witnesses)
        return VerificationResult(
            property_name, outcome.holds,
            witnesses=self._decorate(outcome.witnesses),
            details=outcome.details, method=outcome.method,
        )

    # -- individual properties ----------------------------------------------------

    def verify_deadlock_freedom(self, max_witnesses=5, checker=None):
        """No reachable state of the model is completely stuck."""
        return self._run("deadlock", "deadlock freedom", DeadlockQuery(),
                         checker, max_witnesses)

    def verify_control_mismatch(self, max_witnesses=5, checker=None):
        """No node ever observes both True and False control tokens."""
        expression = control_mismatch_expression(self.dfs)
        if expression is None:
            return VerificationResult(
                "control-token mismatch", True,
                details="no node is guarded by two or more control registers",
            )
        query = ReachQuery(expression, description="control-token mismatch")
        return self._run("mismatch", "control-token mismatch", query,
                         checker, max_witnesses)

    def verify_persistence(self, max_witnesses=5, checker=None):
        """No event is disabled by another one (hazard-freedom), choices excepted."""
        return self._run("persistence", "persistence", PersistenceQuery(),
                         checker, max_witnesses)

    def verify_safeness(self, max_witnesses=5, checker=None):
        """The translated net is 1-safe (a sanity check on the translation)."""
        return self._run("safeness", "1-safeness", SafenessQuery(bound=1),
                         checker, max_witnesses)

    def verify_value_mutual_exclusion(self, max_witnesses=5, checker=None):
        """A dynamic register never holds a True and a False token at once."""
        expression = value_exclusion_expression(self.dfs)
        if expression is None:
            return VerificationResult(
                "token-value exclusion", True,
                details="the model has no dynamic registers",
            )
        query = ReachQuery(expression, description="token-value exclusion")
        return self._run("exclusion", "token-value exclusion", query,
                         checker, max_witnesses)

    def verify_custom(self, expression, property_name="custom property",
                      max_witnesses=5, checker=None):
        """Check a custom Reach expression describing *bad* states."""
        query = ReachQuery(expression, description=property_name)
        return self._run(property_name, property_name, query, checker,
                         max_witnesses)

    # -- batched verification ---------------------------------------------------------

    def _resolve_property(self, name, custom):
        """Return a runner closure for a property *name*, or raise."""
        method_name = self.PROPERTY_CHECKS.get(name)
        if method_name is not None:
            return getattr(self, method_name)
        expression = None
        if custom and name in custom:
            expression = custom[name]
        elif name in CUSTOM_PROPERTIES:
            expression = CUSTOM_PROPERTIES[name][0]
        if expression is not None:
            def run(max_witnesses=5, checker=None, _expr=expression, _name=name):
                return self.verify_custom(_expr, property_name=_name,
                                          max_witnesses=max_witnesses,
                                          checker=checker)
            return run
        known = sorted(self.PROPERTY_CHECKS) + sorted(CUSTOM_PROPERTIES)
        raise VerificationError(
            "unknown property {!r} (known: {})".format(name, ", ".join(known)))

    def verify_properties(self, properties, max_witnesses=5, checker=None,
                          custom=None, progress=None):
        """Run the named checks and return a summary.

        *properties* is an iterable of :data:`PROPERTY_CHECKS` keys and/or
        custom-property names -- from the *custom* mapping (name to Reach
        expression) or the :data:`CUSTOM_PROPERTIES` registry; the checks
        run in the given order against the same shared artefacts.  *checker*
        forces one checker for every property of this batch (otherwise the
        per-property overrides and the verifier default apply).

        *progress*, if given, is called as ``progress(event, name, result)``
        around each property: once with ``("property-started", name, None)``
        before a check runs and once with ``("property-finished", name,
        result)`` after -- the hook the serving stack turns into streamed
        per-job events.
        """
        properties = list(properties)
        runners = [self._resolve_property(name, custom) for name in properties]
        results = []
        for name, runner in zip(properties, runners):
            if progress is not None:
                progress("property-started", name, None)
            result = runner(max_witnesses=max_witnesses, checker=checker)
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
