"""The random-walk checker: a counter-seeded falsifier on vectorised swarms.

Exhaustive exploration visits states breadth-first, so a bug 30 firings deep
may sit far beyond a feasible ``max_states`` bound.  A random walk goes
*deep* instead of *wide*: it fires one enabled transition at a time, testing
the bad-state predicate at every visited marking, and starts over from the
initial marking when it runs out of steps.  The walker can only ever answer ``False`` (with the fired
sequence as a ready-made counterexample trace) or ``None`` -- absence of a
bug on a few thousand random paths proves nothing -- which is exactly the
right shape for the falsification half of a portfolio.

Randomness is **counter-based** (:mod:`repro.verification.checkers
.walk_core`): every draw is a pure function of ``(seed, walk, step)``, so a
given seed replays the identical walk however many other walks surround it,
and campaign scenarios can sweep seeds the way the paper's E5 experiment
sweeps stimulus.  Walks are *guided*: a configurable fraction of the steps
picks the successor that minimises the number of enabled transitions (when
hunting deadlocks -- corners of the state space) or maximises satisfied
bad-cube literals (when hunting Reach violations), which in practice finds
injected-hole deadlocks orders of magnitude faster than uniform wandering.

The walks run as the vectorised swarm of
:mod:`~repro.verification.checkers.walk_batch`: thousands of walks as rows
of one uint64 matrix, advanced one step per pass on the batch firing
primitive.  Swarm witnesses are **replayed on the net** before being
trusted, like SMT counterexamples.  A pure-int scalar walker with the same
semantics is kept as the swarm's test oracle (``tests/oracles/walk.py``).

Determinism contract: the swarm is deterministic per ``(seed, walks,
swarm)``.  Each walk's moves are width-independent, but retired rows are
reseeded with the next walk in retirement order, so which walk finds a
witness first -- and the order in which witnesses are reported -- follows
the configured swarm width, which is therefore part of the identity (it
rides in ``checker_options`` into campaign digests).
"""

from repro.reach.cubes import to_cubes
from repro.reach.evaluator import marking_predicate
from repro.verification.checkers.base import Checker, register_checker
from repro.verification.checkers.walk_core import (
    cube_mask_table,
    overflow_outcome,
    replay_witness,
)

#: Cube budget of a Reach query's guidance: a predicate whose DNF exceeds
#: it is walked unguided.
DNF_LIMIT = 64


@register_checker
class RandomWalkChecker(Checker):
    """Falsify queries with guided random walks, run as vectorised swarms."""

    name = "walk"
    summary = ("counter-seeded guided random walks run as vectorised "
               "swarms; a fast falsifier, never proves")

    def __init__(self, context, walks=8, steps=256, seed=0xACE1,
                 guidance=0.5, swarm=1024):
        super().__init__(context)
        self.walks = int(walks)
        self.steps = int(steps)
        self.seed = int(seed)
        self.guidance = float(guidance)
        #: Row width of the vectorised swarm (``min(walks, swarm)`` walks
        #: advance concurrently; retired rows are reseeded in place).
        self.swarm = int(swarm)
        #: Work counters of the most recent hunt (``walks`` launched,
        #: ``steps`` committed, ``expanded`` candidate firings); bench
        #: material, never part of a verdict.
        self.last_hunt_stats = None
        self._tables = None

    # -- queries -------------------------------------------------------------

    def check_deadlock(self, query, max_witnesses=5):
        return self._hunt("deadlock", max_witnesses, "deadlock",
                          "deadlocked state(s)", score_kind="fewest",
                          stop_in_deadlock=True)

    def check_safeness(self, query, max_witnesses=5):
        """Walks detect a 1-safeness loss as a token-overflow firing."""
        return self._hunt("overflow", max_witnesses, "token overflow", None,
                          overflow_conclusive=True)

    def check_reach(self, query, max_witnesses=5):
        self.context.check_places(query.expression)
        compiled = self.context.compiled
        # NumPy is loaded only once a swarm actually walks.
        from repro.petri.batch import compile_row_predicate

        row_predicate = compile_row_predicate(
            query.expression, self._word_tables(compiled).row_test)
        cubes = to_cubes(query.expression, max_cubes=DNF_LIMIT)
        cube_masks = cube_mask_table(compiled.mask_of, cubes) if cubes else None
        return self._hunt("reach", max_witnesses, "bad state", "bad state(s)",
                          expression=query.expression,
                          row_predicate=row_predicate, cube_masks=cube_masks,
                          score_kind="cube" if cube_masks else None)

    # -- outcomes ------------------------------------------------------------

    def _budget_outcome(self, target):
        return self.outcome(
            None, details="no {} found within {} walk(s) of {} step(s); "
            "random walks cannot prove absence".format(
                target, self.walks, self.steps))

    # -- the hunt ------------------------------------------------------------

    def _hunt(self, kind, max_witnesses, target, found, expression=None,
              row_predicate=None, cube_masks=None, score_kind=None,
              stop_in_deadlock=False, overflow_conclusive=False):
        """Run the walk budget and turn what it found into an outcome.

        *target* names what the hunt looks for in the budget-exhausted
        answer, *found* what its witnesses are in the violated one.
        """
        compiled = self.context.compiled
        initial = compiled.encode(self.context.net.initial_marking())
        result = self._walk(
            compiled, initial, kind, max_witnesses, expression=expression,
            row_predicate=row_predicate, cube_masks=cube_masks,
            score_kind=score_kind, stop_in_deadlock=stop_in_deadlock,
            overflow_conclusive=overflow_conclusive)
        self.last_hunt_stats = {"walks": result.walks, "steps": result.steps,
                                "expanded": result.expanded}
        names = compiled.transition_names
        overflow = result.overflow
        if overflow is not None:
            return overflow_outcome(
                self, [names[index] for index in
                       overflow["trace"] + [overflow["transition"]]],
                compiled.place_names[overflow["place"]], "random walk")
        # Walk traces are replayed on the net before being trusted -- the
        # same rule the SMT checkers apply to solver counterexamples.
        bad_marking = (marking_predicate(expression, net=self.context.net)
                       if kind == "reach" else None)
        validated = []
        for witness in result.witnesses:
            trace = [names[index] for index in witness["trace"]]
            witness = replay_witness(self.context.net, kind, trace,
                                     predicate=bad_marking)
            if witness is not None:
                validated.append(witness)
        if not validated:
            return self._budget_outcome(target)
        return self.outcome(
            False, witnesses=validated,
            details="random walk reached {} {}".format(len(validated), found))

    def _word_tables(self, compiled):
        """The swarm's uint64 transition tables (built on first use)."""
        if self._tables is None:
            from repro.petri.batch import WordTables

            self._tables = WordTables(compiled)
        return self._tables

    def _walk(self, compiled, initial, kind, max_witnesses, expression,
              row_predicate, cube_masks, score_kind, stop_in_deadlock,
              overflow_conclusive):
        """Run the walk budget as a vectorised swarm; a ``SwarmResult``.

        *row_predicate* is the Reach *expression* compiled once by
        :meth:`check_reach`.  The scalar walker of ``tests/oracles/walk.py``
        overrides this one method (compiling *expression* with its own
        int-state compiler), so the oracle shares every other line of the
        checker.
        """
        from repro.verification.checkers import walk_batch

        return walk_batch.swarm_hunt(
            self._word_tables(compiled), initial, walks=self.walks,
            steps=self.steps, swarm=self.swarm, seed=self.seed or 0xACE1,
            guidance=self.guidance, max_witnesses=max_witnesses,
            row_predicate=row_predicate, cube_masks=cube_masks,
            score_kind=score_kind,
            stop_in_deadlock=stop_in_deadlock,
            overflow_conclusive=overflow_conclusive)
