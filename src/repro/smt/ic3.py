"""IC3/PDR: incremental inductive proofs with frame strengthening.

The property-directed reachability loop, specialised to certified 1-safe
Petri nets (every marking variable is 0/1, so states and blocked regions
are the same :class:`~repro.reach.cubes.Cube` objects the inductive checker
reasons with):

* **Frames** ``F_1 .. F_N`` are growing sets of blocked cubes; frame ``i``
  over-approximates the markings reachable in at most ``i`` steps (delta
  encoding: a cube stored at level ``j`` is blocked in every ``F_i`` with
  ``i <= j``).  ``F_0`` is the initial marking itself.
* **Blocking**: while a bad marking satisfies ``F_N``, its cube is pushed
  down a priority queue of proof obligations.  An obligation at level ``i``
  asks "can ``F_{i-1}`` reach this cube in one step?"; an ``unsat`` answer
  blocks a *generalised* cube (literals are dropped greedily while the
  query stays unsat and the initial marking stays outside), an ``sat``
  answer spawns the predecessor obligation one level down.  Reaching level
  0 reconstructs a concrete counterexample trace from the chain of
  predecessor models.
* **Propagation**: when no bad marking satisfies ``F_N``, every clause that
  is inductive relative to its frame moves up one frame; two adjacent
  frames becoming equal means a fixpoint -- the clauses of that frame are
  an **inductive invariant** separating the reachable markings from the bad
  ones.

The invariant is not taken on faith: before reporting ``proved``, the
engine re-checks the three defining properties (initiation, consecution,
safety) with fresh solver queries and returns ``unknown`` if any fails --
so an implementation bug degrades to inconclusive, never to unsound.  The
certificate (blocked cubes plus the semiflow equalities asserted globally)
is attached to the outcome.

One solver session serves the whole run: markings at steps 0 and 1, the
transition relation folded under a Boolean activation literal (so queries
without a step -- "does this cube intersect the bad states?" -- do not
force a successor to exist), and every frame/query particular asserted
under ``push``/``pop``.
"""

import heapq
import time

from repro.reach.cubes import Cube
from repro.smt import proof
from repro.smt.solver import PipeSolver

#: The Boolean literal that switches the step-0 -> step-1 transition
#: relation on inside ``check-sat-assuming`` queries.
TRANSITION_LITERAL = "|T.act|"


class _Obligation:
    """A cube to block at a frame, chained toward the bad states."""

    __slots__ = ("cube", "level", "transition", "successor")

    def __init__(self, cube, level, transition=None, successor=None):
        self.cube = cube
        self.level = level
        #: Transition name firing from this cube's marking into the
        #: successor obligation's marking (``None`` for the bad state).
        self.transition = transition
        self.successor = successor


class Ic3:
    """One IC3 run over an encoded, certified 1-safe net."""

    def __init__(self, encoder, bad_formula, initial_bad=False, semiflows=(),
                 solver=None, max_frames=64, max_queries=100000,
                 wall_timeout=None, timeout=None):
        self.encoder = encoder
        self.bad_formula = bad_formula
        #: Whether the initial marking itself satisfies the bad predicate
        #: (decided exactly by the caller, who holds the Reach AST).  IC3
        #: must know: blocking a cube that contains the initial marking
        #: would be unsound, so a bad initial marking is a depth-0
        #: counterexample, not a proof obligation.
        self.initial_bad = bool(initial_bad)
        self.semiflows = list(semiflows)
        self.max_frames = int(max_frames)
        self.max_queries = int(max_queries)
        self.wall_timeout = wall_timeout
        self.timeout = timeout
        self.queries = 0
        self._deadline = None
        self._own_solver = solver is None
        if self._own_solver:
            solver = PipeSolver(timeout=timeout) if timeout else PipeSolver()
        self.solver = solver
        self.initial_marking = encoder.net.initial_marking()
        self._initial_formula = encoder.initial(0)
        #: Delta-encoded frames: ``frames[j]`` holds the cubes whose clause
        #: is in ``F_i`` exactly for ``i <= j``.  Index 0 is unused (frame 0
        #: is the initial marking, handled symbolically).
        self.frames = [[], []]
        self._setup()

    # -- solver session -------------------------------------------------------

    def _setup(self):
        solver, encoder = self.solver, self.encoder
        solver.write(*encoder.declare_marking(0))
        solver.write(*encoder.declare_marking(1))
        solver.write(*encoder.declare_step(0))
        for step in (0, 1):
            for formula in encoder.marking_bounds(step):
                solver.write("(assert {})".format(formula))
            for formula in encoder.invariants(self.semiflows, step):
                solver.write("(assert {})".format(formula))
        solver.write("(declare-const {} Bool)".format(TRANSITION_LITERAL))
        for formula in encoder.step_formulas(0):
            solver.write("(assert (=> {} {}))".format(
                TRANSITION_LITERAL, formula))

    def _check(self, assuming=()):
        self.queries += 1
        return self.solver.check_sat(timeout=self.timeout, assuming=assuming)

    def _assert_frame(self, level):
        """Assert the clauses of ``F_level`` over the step-0 marking."""
        if level == 0:
            self.solver.write("(assert {})".format(self._initial_formula))
            return
        for stored_level in range(level, len(self.frames)):
            for cube in self.frames[stored_level]:
                self.solver.write("(assert (not {}))".format(
                    self.encoder.cube(cube, 0)))

    def _frame_clauses(self, level):
        """The cubes blocked in ``F_level`` (union of levels >= *level*)."""
        clauses = []
        for stored_level in range(max(level, 1), len(self.frames)):
            clauses.extend(self.frames[stored_level])
        return clauses

    # -- queries --------------------------------------------------------------

    def _bad_state_in(self, level):
        """A marking of ``F_level`` satisfying the bad predicate, or None."""
        solver = self.solver
        solver.push()
        self._assert_frame(level)
        solver.write("(assert {})".format(self.bad_formula))
        status = self._check()
        if status != "sat":
            solver.pop()
            return None if status == "unsat" else "unknown"
        values = solver.get_values(self.encoder.place_variables(0))
        solver.pop()
        return self._cube_from_model(values, 0)

    def _relative_consecution(self, level, cube, want_model=False):
        """Can ``F_level /\\ not cube`` reach *cube* in one step?

        Returns ``("unsat", None, None)`` when the cube is inductive
        relative to the frame, ``("sat", predecessor, transition)`` with the
        predecessor marking cube otherwise.
        """
        solver, encoder = self.solver, self.encoder
        solver.push()
        self._assert_frame(level)
        solver.write("(assert (not {}))".format(encoder.cube(cube, 0)))
        solver.write("(assert {})".format(encoder.cube(cube, 1)))
        status = self._check(assuming=(TRANSITION_LITERAL,))
        if status != "sat":
            solver.pop()
            return status, None, None
        predecessor, transition = None, None
        if want_model:
            names = encoder.place_variables(0) + [encoder.selector(0)]
            values = solver.get_values(names)
            predecessor = self._cube_from_model(values, 0)
            index = values.get("t@0")
            if index is not None and 0 <= index < len(encoder.transition_names):
                transition = encoder.transition_names[index]
        solver.pop()
        return status, predecessor, transition

    def _cube_from_model(self, values, step):
        true_places, false_places = [], []
        for name in self.encoder.place_names:
            tokens = values.get("{}@{}".format(name, step), 0)
            (true_places if tokens else false_places).append(name)
        return Cube(true_places, false_places)

    # -- blocking -------------------------------------------------------------

    def _syntactically_blocked(self, cube, level):
        return any(clause.true_places <= cube.true_places
                   and clause.false_places <= cube.false_places
                   for clause in self._frame_clauses(level))

    def _generalize(self, level, cube):
        """Drop literals while the cube stays inductive relative to *level*."""
        literals = ([(place, True) for place in sorted(cube.true_places)]
                    + [(place, False) for place in sorted(cube.false_places)])
        for place, positive in literals:
            if len(cube.true_places) + len(cube.false_places) <= 1:
                break
            if positive:
                candidate = Cube(cube.true_places - {place}, cube.false_places)
            else:
                candidate = Cube(cube.true_places, cube.false_places - {place})
            # Never block a region containing the initial marking.
            if candidate.evaluate(self.initial_marking):
                continue
            status, _, _ = self._relative_consecution(level, candidate)
            if status == "unsat":
                cube = candidate
        return cube

    def _add_blocked_cube(self, cube, level):
        """Record *cube* as blocked through ``F_level`` (with subsumption)."""
        level = min(level, len(self.frames) - 1)
        for stored_level in range(1, level + 1):
            self.frames[stored_level] = [
                kept for kept in self.frames[stored_level]
                if not (cube.true_places <= kept.true_places
                        and cube.false_places <= kept.false_places)]
        self.frames[level].append(cube)

    def _block(self, bad_cube, level):
        """Block *bad_cube* at *level*; return a counterexample or None.

        The returned value is ``None`` (blocked), a list of transition
        names (a counterexample trace from the initial marking), or the
        string ``"unknown"`` on solver/budget trouble.
        """
        counter = 0
        root = _Obligation(bad_cube, level)
        heap = [(level, 0, root)]
        while heap:
            if self._out_of_budget():
                return "unknown"
            obligation_level, _, obligation = heapq.heappop(heap)
            if obligation_level == 0:
                return self._trace_of(obligation)
            if self._syntactically_blocked(obligation.cube, obligation_level):
                continue
            status, predecessor, transition = self._relative_consecution(
                obligation_level - 1, obligation.cube, want_model=True)
            if status == "unknown":
                return "unknown"
            if status == "unsat":
                generalized = self._generalize(
                    obligation_level - 1, obligation.cube)
                self._add_blocked_cube(generalized, obligation_level)
                if obligation_level < level:
                    counter += 1
                    heapq.heappush(
                        heap, (obligation_level + 1, counter, obligation))
                continue
            predecessor_obligation = _Obligation(
                predecessor, obligation_level - 1, transition=transition,
                successor=obligation)
            counter += 1
            heapq.heappush(
                heap, (obligation_level - 1, counter, predecessor_obligation))
            counter += 1
            heapq.heappush(heap, (obligation_level, counter, obligation))
        return None

    def _trace_of(self, obligation):
        """Fired-transition names from the initial marking to a bad cube."""
        trace = []
        node = obligation
        while node is not None and node.transition is not None:
            trace.append(node.transition)
            node = node.successor
        return trace

    # -- certificate ----------------------------------------------------------

    def _certificate_valid(self, clauses):
        """Re-check initiation, consecution and safety of the invariant."""
        solver, encoder = self.solver, self.encoder
        violation_now = "(or {})".format(" ".join(
            encoder.cube(cube, 0) for cube in clauses)) if clauses else "false"
        violation_next = "(or {})".format(" ".join(
            encoder.cube(cube, 1) for cube in clauses)) if clauses else "false"
        # Initiation: the initial marking satisfies every clause.
        solver.push()
        solver.write("(assert {})".format(self._initial_formula))
        solver.write("(assert {})".format(violation_now))
        initiation = self._check()
        solver.pop()
        # Consecution: no firing leaves the invariant region.
        solver.push()
        for cube in clauses:
            solver.write("(assert (not {}))".format(encoder.cube(cube, 0)))
        solver.write("(assert {})".format(violation_next))
        consecution = self._check(assuming=(TRANSITION_LITERAL,))
        solver.pop()
        # Safety: the invariant region contains no bad marking.
        solver.push()
        for cube in clauses:
            solver.write("(assert (not {}))".format(encoder.cube(cube, 0)))
        solver.write("(assert {})".format(self.bad_formula))
        safety = self._check()
        solver.pop()
        return initiation == "unsat" and consecution == "unsat" \
            and safety == "unsat"

    # -- main loop ------------------------------------------------------------

    def _out_of_budget(self):
        if self.queries > self.max_queries:
            return True
        return (self._deadline is not None
                and time.monotonic() > self._deadline)

    def run(self):
        """Run the IC3 loop to a verdict."""
        self._deadline = (time.monotonic() + self.wall_timeout
                          if self.wall_timeout else None)
        try:
            return self._run()
        finally:
            if self._own_solver:
                self.solver.close()

    def _run(self):
        # Level 0: is the initial marking itself bad?
        if self.initial_bad:
            return proof.violated(
                "the initial marking is a bad marking", [], depth=0)
        while len(self.frames) - 1 < self.max_frames:
            if self._out_of_budget():
                return self._budget_outcome()
            level = len(self.frames) - 1
            found = self._bad_state_in(level)
            if found == "unknown":
                return proof.unknown(
                    "the solver answered unknown while scanning frame "
                    "{}".format(level), depth=level)
            if found is not None:
                result = self._block(found, level)
                if result == "unknown":
                    return self._budget_outcome()
                if result is not None:
                    return proof.violated(
                        "IC3 reconstructed a bad marking {} step(s) from "
                        "the initial marking".format(len(result)), result,
                        depth=level)
                continue
            # Frame clean: open the next one and propagate clauses forward.
            self.frames.append([])
            for propagation_level in range(1, len(self.frames) - 1):
                for cube in list(self.frames[propagation_level]):
                    if cube not in self.frames[propagation_level]:
                        continue  # subsumed away by an earlier propagation
                    if self._out_of_budget():
                        return self._budget_outcome()
                    status, _, _ = self._relative_consecution(
                        propagation_level, cube)
                    if status == "unsat":
                        self.frames[propagation_level].remove(cube)
                        self._add_blocked_cube(cube, propagation_level + 1)
                if not self.frames[propagation_level]:
                    clauses = self._frame_clauses(propagation_level + 1)
                    if not self._certificate_valid(clauses):
                        return proof.unknown(
                            "IC3 reached a fixpoint but its invariant "
                            "failed re-validation", depth=propagation_level)
                    certificate = {
                        "clauses": [
                            {"marked": sorted(cube.true_places),
                             "empty": sorted(cube.false_places)}
                            for cube in clauses],
                        "semiflows": len(self.semiflows),
                        "frames": len(self.frames) - 1,
                    }
                    return proof.proved(
                        "IC3 closed with a {}-clause inductive invariant "
                        "after {} frame(s): no reachable marking is bad "
                        "(holds, unbounded)".format(
                            len(clauses), len(self.frames) - 1),
                        depth=len(self.frames) - 1, certificate=certificate)
        return proof.unknown(
            "IC3 did not converge within {} frame(s)".format(self.max_frames),
            depth=self.max_frames)

    def _budget_outcome(self):
        return proof.unknown(
            "IC3 exceeded its budget ({} solver queries, {} frame(s))".format(
                self.queries, len(self.frames) - 1),
            depth=len(self.frames) - 1)


def run_ic3(encoder, bad_formula, initial_bad=False, semiflows=(),
            solver=None, max_frames=64, max_queries=100000,
            wall_timeout=None, timeout=None):
    """Run IC3; see :class:`Ic3`.  Returns a :class:`repro.smt.proof.ProofOutcome`."""
    engine = Ic3(encoder, bad_formula, initial_bad=initial_bad,
                 semiflows=semiflows, solver=solver, max_frames=max_frames,
                 max_queries=max_queries, wall_timeout=wall_timeout,
                 timeout=timeout)
    return engine.run()
