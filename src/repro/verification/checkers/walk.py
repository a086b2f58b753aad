"""The random-walk checker: a counter-seeded falsifier with two engines.

Exhaustive exploration visits states breadth-first, so a bug 30 firings deep
may sit far beyond a feasible ``max_states`` bound.  A random walk goes
*deep* instead of *wide*: it fires one enabled transition at a time, testing
the bad-state predicate at every visited marking, and restarts when it runs
out of steps.  The walker can only ever answer ``False`` (with the fired
sequence as a ready-made counterexample trace) or ``None`` -- absence of a
bug on a few thousand random paths proves nothing -- which is exactly the
right shape for the falsification half of a portfolio.

Randomness is **counter-based** (:mod:`repro.verification.checkers
.walk_core`): every draw is a pure function of ``(seed, walk, step)``, so a
given seed replays the identical walk whether it runs alone or as one row
of a swarm, and campaign scenarios can sweep seeds the way the paper's E5
experiment sweeps stimulus.  Walks are *guided*: a configurable fraction of
the steps picks the successor that minimises the number of enabled
transitions (when hunting deadlocks -- corners of the state space) or
maximises satisfied bad-cube literals (when hunting Reach violations),
which in practice finds injected-hole deadlocks orders of magnitude faster
than uniform wandering.

Walks are additionally **counterexample-guided**: the checker keeps the
top-``restarts`` best-scoring *near-miss* states seen so far (with the
prefix trace that reached them) and restarts every other walk from one of
them instead of from the initial marking.  A walk that got close to a bad
cube -- or into a sparsely-enabled corner, for deadlock hunts -- thereby
becomes the launch pad of the next walk, which deepens falsification
coverage well beyond the per-walk step budget.

Two backends share these semantics (same RNG, same guidance ranks, same
restart pool -- all from :mod:`~repro.verification.checkers.walk_core`):

* ``scalar`` -- the pure-int walker below, one transition per step;
* ``batch`` -- the vectorised swarm of
  :mod:`~repro.verification.checkers.walk_batch`: thousands of walks as
  rows of one uint64 matrix, advanced one step per pass on the batch
  firing primitive.  Swarm witnesses are **replayed on the net** before
  being trusted, like SMT counterexamples.

The default ``backend="auto"`` runs the swarm; ``backend="scalar"`` keeps
the pure-int walker.

Determinism contract: the scalar path reproduces the same verdict *and the
same witness trace* for the same seed.  The swarm is deterministic per
``(seed, walks, swarm)``: each walk's RNG stream is width-independent, but
restart-pool contents fill in retirement order, so the configured swarm
width is part of the identity (campaign digests include the resolved
backend via :func:`resolve_walk_backend`).
"""

from repro.exceptions import (
    CompilationError,
    ConfigurationError,
    SafenessOverflowError,
)
from repro.petri.compiled import iter_bits
from repro.reach.cubes import to_cubes
from repro.reach.evaluator import compile_mask_predicate, marking_predicate
from repro.verification.checkers.base import Checker, register_checker
from repro.verification.checkers.walk_core import (
    NearMissPool,
    cube_mask_table,
    cube_rank,
    fewest_enabled_rank,
    replay_witness,
    walk_draw,
)

#: The accepted ``backend`` options of the walk checker.
WALK_BACKENDS = ("auto", "batch", "scalar")


def resolve_walk_backend(requested="auto"):
    """The walk backend *requested* resolves to.

    ``"scalar"`` resolves to itself; ``"auto"`` and ``"batch"`` resolve to
    ``"batch"``.  Campaign digests fold this resolved value into
    walk/portfolio cache keys -- like the solver fingerprint, it keeps
    verdicts from being reused across an engine swap.
    """
    if requested not in WALK_BACKENDS:
        raise ConfigurationError(
            "unknown walk backend {!r} (known: {})".format(
                requested, ", ".join(WALK_BACKENDS)))
    return "scalar" if requested == "scalar" else "batch"


@register_checker
class RandomWalkChecker(Checker):
    """Falsify queries with guided random walks (scalar or swarm backend)."""

    name = "walk"
    summary = ("counter-seeded guided random walks, vectorised swarms by "
               "default; a fast falsifier, never proves")

    def __init__(self, context, walks=8, steps=256, seed=0xACE1,
                 guidance=0.5, dnf_limit=64, restarts=4, backend="auto",
                 swarm=1024):
        super().__init__(context)
        self.walks = int(walks)
        self.steps = int(steps)
        self.seed = int(seed)
        self.guidance = float(guidance)
        self.dnf_limit = int(dnf_limit)
        #: Size of the near-miss pool for counterexample-guided restarts
        #: (``0`` disables restarting: every walk starts at the initial
        #: marking, the pre-restart behaviour).
        self.restarts = int(restarts)
        #: Engine selection: see :func:`resolve_walk_backend`.
        self.backend = str(backend)
        if self.backend not in WALK_BACKENDS:
            raise ConfigurationError(
                "unknown walk backend {!r} (known: {})".format(
                    backend, ", ".join(WALK_BACKENDS)))
        #: Row width of the vectorised swarm (``min(walks, swarm)`` walks
        #: advance concurrently; retired rows are reseeded in place).
        self.swarm = int(swarm)
        #: Work counters of the most recent hunt (``backend``, ``walks``
        #: launched, ``steps`` committed, ``expanded`` candidate firings);
        #: bench material, never part of a verdict.
        self.last_hunt_stats = None
        self._tables = None

    # -- queries -------------------------------------------------------------

    def check_deadlock(self, query, max_witnesses=5):
        found = self._hunt("deadlock", max_witnesses, score_kind="fewest",
                           stop_in_deadlock=True)
        if found is None:
            return self._budget_outcome("deadlock")
        if isinstance(found, CheckerOutcomeProxy):
            return found.outcome
        return self.outcome(
            False, witnesses=found,
            details="random walk reached {} deadlocked state(s)".format(
                len(found)))

    def check_safeness(self, query, max_witnesses=5):
        """Walks detect a 1-safeness loss as a token-overflow firing."""
        if query.bound != 1:
            return self.outcome(
                None, details="random walks only detect 1-safeness "
                "violations (token overflow)")
        found = self._hunt("overflow", max_witnesses,
                           overflow_conclusive=True)
        if isinstance(found, CheckerOutcomeProxy):
            return found.outcome
        return self._budget_outcome("token overflow")

    def check_reach(self, query, max_witnesses=5):
        self.context.check_places(query.expression)
        compiled = self.context.compiled
        if compiled is None:
            return self._no_compiled_outcome()
        predicate = compile_mask_predicate(query.expression, compiled.mask_of)
        if predicate is None:
            return self.outcome(
                None, details="expression does not compile to a bitmask "
                "predicate; random-walk falsification unavailable")
        cubes = to_cubes(query.expression, max_cubes=self.dnf_limit)
        cube_masks = cube_mask_table(compiled.mask_of, cubes) if cubes else None
        found = self._hunt("reach", max_witnesses, predicate=predicate,
                           expression=query.expression, cube_masks=cube_masks,
                           score_kind="cube" if cube_masks else None)
        if found is None:
            return self._budget_outcome("bad state")
        if isinstance(found, CheckerOutcomeProxy):
            return found.outcome
        return self.outcome(
            False, witnesses=found,
            details="random walk reached {} bad state(s)".format(len(found)))

    # -- outcomes ------------------------------------------------------------

    def _budget_outcome(self, target):
        return self.outcome(
            None, details="no {} found within {} walk(s) of {} step(s); "
            "random walks cannot prove absence".format(
                target, self.walks, self.steps))

    def _no_compiled_outcome(self):
        return self.outcome(
            None, details="net has no bitmask representation; random-walk "
            "falsification unavailable")

    # -- backend dispatch ----------------------------------------------------

    def _hunt(self, kind, max_witnesses, predicate=None, expression=None,
              cube_masks=None, score_kind=None, stop_in_deadlock=False,
              overflow_conclusive=False):
        """Run the walk budget; return witnesses, a proxy, or ``None``.

        Routes to the vectorised swarm or the scalar walker per the
        resolved backend; both hunt with the same RNG, guidance ranks and
        restart-pool semantics (:mod:`~repro.verification.checkers
        .walk_core`), so a backend swap changes throughput, never the
        meaning of a conclusive verdict.
        """
        compiled = self.context.compiled
        if compiled is None:
            return CheckerOutcomeProxy(self._no_compiled_outcome())
        try:
            initial = compiled.encode(self.context.net.initial_marking())
        except CompilationError:
            return CheckerOutcomeProxy(self.outcome(
                None, details="initial marking has no bitmask "
                "representation; random walks unavailable"))
        if resolve_walk_backend(self.backend) == "batch":
            return self._swarm_hunt(
                compiled, initial, kind, max_witnesses,
                expression=expression, cube_masks=cube_masks,
                score_kind=score_kind, stop_in_deadlock=stop_in_deadlock,
                overflow_conclusive=overflow_conclusive)
        return self._scalar_hunt(
            compiled, initial, kind, max_witnesses, predicate=predicate,
            cube_masks=cube_masks, score_kind=score_kind,
            stop_in_deadlock=stop_in_deadlock,
            overflow_conclusive=overflow_conclusive)

    # -- the vectorised swarm backend ----------------------------------------

    def _swarm_hunt(self, compiled, initial, kind, max_witnesses, expression,
                    cube_masks, score_kind, stop_in_deadlock,
                    overflow_conclusive):
        # NumPy is loaded only once a swarm actually walks.
        from repro.petri.batch import WordTables, compile_row_predicate
        from repro.verification.checkers import walk_batch

        if self._tables is None:
            self._tables = WordTables(compiled)
        tables = self._tables
        # check_reach already refused expressions the mask compiler cannot
        # lower, and the row compiler lowers exactly the same node kinds.
        row_predicate = (compile_row_predicate(expression, tables.word_bit_of)
                         if kind == "reach" else None)
        result = walk_batch.swarm_hunt(
            tables, initial, walks=self.walks, steps=self.steps,
            swarm=self.swarm, seed=self.seed or 0xACE1,
            guidance=self.guidance, restarts=self.restarts,
            max_witnesses=max_witnesses, row_predicate=row_predicate,
            cube_masks=cube_masks, score_kind=score_kind,
            stop_in_deadlock=stop_in_deadlock,
            overflow_conclusive=overflow_conclusive)
        self.last_hunt_stats = {"backend": "batch", "walks": result.walks,
                                "steps": result.steps,
                                "expanded": result.expanded}
        names = compiled.transition_names
        if result.overflow is not None:
            return self._swarm_overflow_outcome(compiled, result.overflow)
        # Swarm traces are replayed on the net before being trusted -- the
        # same rule the SMT checkers apply to solver counterexamples.
        bad_marking = (marking_predicate(expression, net=self.context.net)
                       if kind == "reach" else None)
        validated = []
        for found in result.witnesses:
            trace = [names[index] for index in found["trace"]]
            witness = replay_witness(self.context.net, kind, trace,
                                     predicate=bad_marking)
            if witness is not None:
                validated.append(witness)
        return validated or None

    def _swarm_overflow_outcome(self, compiled, overflow):
        transition = compiled.transition_names[overflow["transition"]]
        place = compiled.place_names[overflow["place"]]
        trace = [compiled.transition_names[index]
                 for index in overflow["trace"]]
        witness = replay_witness(self.context.net, "overflow", trace,
                                 transition=transition)
        if witness is None:
            return CheckerOutcomeProxy(self.outcome(
                None, details="the swarm reported an overflow but its "
                "trace did not replay on the net; not trusting the "
                "verdict"))
        witness["place"] = place
        return CheckerOutcomeProxy(self.outcome(
            False, witnesses=[witness],
            details="random walk found a 1-safeness violation: "
            "firing {!r} overflows place {!r}".format(transition, place)))

    # -- the scalar backend --------------------------------------------------

    def _scalar_hunt(self, compiled, initial, kind, max_witnesses, predicate,
                     cube_masks, score_kind, stop_in_deadlock,
                     overflow_conclusive):
        seed = self.seed or 0xACE1
        guided_threshold = int(self.guidance * 256)
        names = compiled.transition_names
        witnesses = []
        # Restarted walks often re-find the same bad state; witnesses (and
        # the reported count) cover *distinct* states only.
        witnessed_states = set()
        steps_fired = 0

        def witness(state, trace):
            if state not in witnessed_states:
                witnessed_states.add(state)
                witnesses.append({"marking": compiled.decode(state),
                                  "trace": list(trace)})

        if score_kind == "fewest":
            score = fewest_enabled_rank
        elif score_kind == "cube":
            def score(compiled_net, state):
                return cube_rank(cube_masks, state)
        else:
            score = None

        # Counterexample-guided restarts: the shared near-miss pool, fed
        # with the best-ranked (rank, state, trace) of each finished walk.
        pool = NearMissPool(self.restarts)
        track_near_misses = self.restarts > 0 and score is not None

        for walk_index in range(self.walks):
            state = initial
            trace = []
            if len(pool) and walk_index % 2:
                # Every other walk launches from a stored near-miss prefix
                # instead of the initial marking (draw 0 of the walk's
                # counter stream, so restart coverage sweeps with the seed
                # like everything else).
                _, near_state, near_trace = pool.pick(
                    walk_draw(seed, walk_index, 0))
                if near_state not in witnessed_states:
                    state = near_state
                    trace = list(near_trace)
            best = None
            for step in range(self.steps):
                if predicate is not None and predicate(state):
                    witness(state, trace)
                    break
                enabled = compiled.enabled_mask(state)
                if not enabled:
                    if stop_in_deadlock:
                        witness(state, trace)
                    break
                if track_near_misses:
                    rank = score(compiled, state)
                    if best is None or rank < best[0]:
                        best = (rank, state, list(trace))
                draw = walk_draw(seed, walk_index, step + 1)
                try:
                    transition, state = self._step(
                        compiled, state, enabled, draw, score,
                        guided=(draw >> 8) & 0xFF < guided_threshold)
                except SafenessOverflowError as overflow:
                    if not overflow_conclusive:
                        break  # wrong property: end this walk, try another
                    overflow_witness = {"marking": compiled.decode(state),
                                        "trace": list(trace),
                                        "transition": overflow.transition,
                                        "place": overflow.place}
                    self.last_hunt_stats = {"backend": "scalar",
                                            "walks": walk_index + 1,
                                            "steps": steps_fired,
                                            "expanded": steps_fired}
                    return CheckerOutcomeProxy(self.outcome(
                        False, witnesses=[overflow_witness],
                        details="random walk found a 1-safeness violation: "
                        "firing {!r} overflows place {!r}".format(
                            overflow.transition, overflow.place)))
                steps_fired += 1
                trace.append(names[transition])
            if best is not None:
                pool.remember(*best)
            if len(witnesses) >= max_witnesses:
                break
        self.last_hunt_stats = {"backend": "scalar", "walks": self.walks,
                                "steps": steps_fired,
                                "expanded": steps_fired}
        return witnesses or None

    def _step(self, compiled, state, enabled, draw, score, guided):
        indices = list(iter_bits(enabled))
        if guided and score is not None and len(indices) > 1:
            best = None
            for index in indices:
                successor = compiled.fire(index, state)
                rank = score(compiled, successor)
                if best is None or rank < best[0]:
                    best = (rank, index, successor)
            return best[1], best[2]
        index = indices[draw % len(indices)]
        return index, compiled.fire(index, state)


class CheckerOutcomeProxy:
    """Wrapper distinguishing a ready outcome from a witness list."""

    __slots__ = ("outcome",)

    def __init__(self, outcome):
        self.outcome = outcome
