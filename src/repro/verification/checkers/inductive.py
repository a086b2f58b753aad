"""The inductive checker: proofs with no state bound.

Exhaustive exploration answers "is a bad state reachable?" by enumerating
states until ``max_states`` and shrugging beyond it.  This checker answers
the same question *structurally*, in two stages that never enumerate the
state space at all:

1. **Place-invariant refutation.**  The semiflows of
   :mod:`repro.petri.invariants` give linear facts ``y . M = y . M0`` true
   in every reachable marking.  A bad-state cube that contradicts one of
   them -- e.g. both ``Mt_x_1`` and ``Mf_x_1`` marked against the dynamic
   -register invariant ``Mt_1 + Mf_1 + M_0 = 1`` -- is unreachable, no
   matter how large the state space is.  This is how token-value exclusion
   is proved on pipelines whose state spaces dwarf any exploration bound.

2. **Backward induction over the compiled transition relation.**  Cubes the
   invariants alone cannot refute are regressed: the exact pre-image of a
   cube under a transition of the compiled bitmask net is again a cube, so
   the set of states that can reach a bad state within ``k`` steps is a
   growing union of cubes.  If the union closes (every new pre-image is
   invariant-infeasible or subsumed) without ever containing the initial
   marking, no firing sequence of any length reaches a bad state --
   equivalently, the good-state set was shown inductive after ``k``
   strengthening rounds.  If a cube captures the initial marking, the
   parent chain is replayed forward into a concrete counterexample trace,
   so the checker can also *falsify*.  The regression runs on the 0/1 state
   space of the compiled net, so its "holds" verdicts are only issued once
   the invariants certify 1-safety (always the case for DFS translations,
   where every variable is a complementary place pair).

3. **Siphon/trap analysis for deadlock-freedom.**  Deadlock-as-a-cube
   explodes (one cube per transition-disabling combination), so deadlock
   queries take the structural route of
   :func:`repro.petri.invariants.siphon_trap_certificate` instead: when
   every minimal siphon of an ordinary net holds a permanent token reserve
   (an initially marked trap, or a positive semiflow supported inside the
   siphon), no reachable marking is dead -- an unbounded proof with no
   solver and no exploration.  One-sided: a siphon without a reserve means
   inconclusive, never "deadlocks".

Budgets (the ``max_cubes`` processed cubes, :data:`MAX_WORK` subsumption
comparisons and :data:`MAX_SIPHON_NODES` enumeration nodes) turn a blow-up
into an inconclusive verdict instead of a hang.  Persistence queries stay
out of scope: they need successor structure -- the exhaustive checker
covers those.
"""

from collections import deque

from repro.petri.invariants import (
    place_bounds,
    proves_bound,
    siphon_trap_certificate,
)
from repro.reach.cubes import to_cubes
from repro.verification.checkers.base import Checker, register_checker

#: Cube budget of a Reach query's DNF normalisation.
DNF_LIMIT = 256
#: Cap on subsumption comparisons: the quadratic part of the search.
#: Bounds the wall-clock cost of an eventual "inconclusive (budget)"
#: answer, which matters when a portfolio runs this checker first.
MAX_WORK = 2000000
#: Node budget of the minimal-siphon enumeration.
MAX_SIPHON_NODES = 100000


class _MaskInvariant:
    """A semiflow lowered onto the bitmask representation of one net."""

    __slots__ = ("terms", "value", "upper_total")

    def __init__(self, semiflow, place_bit, bounds):
        self.terms = tuple(
            (place_bit[place], weight, weight * bounds[place])
            for place, weight in sorted(semiflow.weights.items()))
        self.value = semiflow.value
        self.upper_total = sum(upper for _, _, upper in self.terms)

    def feasible(self, ones, zeros):
        """Can any marking of the cube satisfy this invariant?"""
        lower = 0
        blocked = 0
        for bit, weight, upper in self.terms:
            if ones & bit:
                lower += weight
            if zeros & bit:
                blocked += upper
        return lower <= self.value <= self.upper_total - blocked


@register_checker
class InductiveChecker(Checker):
    """Prove (or refute) reach and safeness queries without exploring."""

    name = "inductive"
    summary = ("place invariants, siphon/trap analysis and backward "
               "induction; proves with no state bound")

    def __init__(self, context, max_cubes=4096):
        super().__init__(context)
        self.max_cubes = int(max_cubes)

    # -- deadlock ------------------------------------------------------------

    def check_deadlock(self, query, max_witnesses=5):
        net = self.context.net
        initial = net.initial_marking()
        if not net.enabled_transitions(initial):
            # Not a proof obligation: the initial marking itself is dead.
            return self.outcome(
                False, witnesses=[{"marking": initial, "trace": []}],
                details="the initial marking has no enabled transition")
        certificate = siphon_trap_certificate(
            net, semiflows=self.context.semiflows,
            max_nodes=MAX_SIPHON_NODES)
        if certificate["proved"]:
            return self.outcome(True, details=certificate["reason"])
        return self.outcome(
            None, details="siphon/trap analysis is inconclusive: "
            + certificate["reason"])

    # -- safeness ------------------------------------------------------------

    def check_safeness(self, query, max_witnesses=5):
        semiflows = self.context.semiflows
        places = sorted(self.context.net.places)
        if semiflows and proves_bound(semiflows, places, bound=1):
            return self.outcome(
                True, details="{} place invariant(s) bound every place by "
                "1".format(len(semiflows)))
        return self.outcome(
            None, details="place invariants do not bound every place by 1; "
            "inductive safeness proof unavailable")

    # -- reach ---------------------------------------------------------------

    def check_reach(self, query, max_witnesses=5):
        self.context.check_places(query.expression)
        semiflows = self.context.semiflows
        # All cube reasoning below -- the DNF normalisation's token-count
        # resolution, the regression over 0/1 bitmask states -- assumes the
        # net is 1-safe.  That assumption must be *certified* by the
        # invariants before any conclusive verdict is issued, otherwise a
        # reachable multi-token marking could satisfy the predicate while
        # the cubes say "unreachable" (a conclusive contradiction with the
        # exhaustive engine).  DFS translations always certify.
        if not semiflows or not proves_bound(
                semiflows, sorted(self.context.net.places), bound=1):
            return self.outcome(
                None, details="place invariants do not certify 1-safety; "
                "inductive cube reasoning unavailable")
        cubes = to_cubes(query.expression, max_cubes=DNF_LIMIT)
        if cubes is None:
            return self.outcome(
                None, details="expression does not normalise into literal "
                "cubes; inductive reasoning unavailable")
        if not cubes:
            return self.outcome(
                True, details="bad-state predicate is unsatisfiable on "
                "1-safe markings")
        bounds = place_bounds(semiflows)
        survivors = [cube for cube in cubes
                     if not self._refuted(cube, semiflows, bounds)]
        if not survivors:
            return self.outcome(
                True, details="all {} bad-state cube(s) refuted by {} place "
                "invariant(s)".format(len(cubes), len(semiflows)))
        return self._backward_induction(survivors, len(cubes), semiflows,
                                        bounds, max_witnesses)

    @staticmethod
    def _refuted(cube, semiflows, bounds):
        """Is *cube* infeasible under some place invariant?

        Sound without any safeness assumption: the lower bound only uses
        "marked means at least one token", and the upper bound only uses
        token limits the invariants themselves imply.
        """
        for semiflow in semiflows:
            lower = sum(weight for place, weight in semiflow.weights.items()
                        if place in cube.true_places)
            if lower > semiflow.value:
                return True
            upper = 0
            unbounded = False
            for place, weight in semiflow.weights.items():
                if place in cube.false_places:
                    continue
                bound = bounds.get(place)
                if bound is None:
                    unbounded = True
                    break
                upper += weight * bound
            if not unbounded and upper < semiflow.value:
                return True
        return False

    # -- backward induction ---------------------------------------------------

    def _backward_induction(self, cubes, total_cubes, semiflows, bounds,
                            max_witnesses):
        compiled = self.context.compiled
        initial = compiled.encode(self.context.net.initial_marking())
        # The caller (check_reach) has already certified 1-safety through
        # the invariants, so the 0/1 regression covers the reachable space.
        mask_invariants = [_MaskInvariant(semiflow, compiled.place_bit, bounds)
                           for semiflow in semiflows]

        consume, produce, need = compiled.consume, compiled.produce, compiled.need
        transition_count = len(compiled.transition_names)
        # nodes: (ones, zeros, transition index or None, parent index, depth)
        nodes = []
        exact = set()
        # Subsumption scan bucketed by literal count: a subsuming (more
        # general) cube has a subset of the literals, so only buckets of
        # equal-or-smaller size can discard a candidate.
        seen_by_size = {}
        queue = deque()
        violations = []
        work = [0]  # subsumption comparisons spent (mutable for the closure)

        def admit(ones, zeros, transition, parent, depth):
            """Record a feasible, unsubsumed cube; return a hit node index."""
            if ones & zeros or (ones, zeros) in exact:
                return None
            for invariant in mask_invariants:
                if not invariant.feasible(ones, zeros):
                    return None
            size = (ones | zeros).bit_count()
            for bucket_size in sorted(seen_by_size):
                if bucket_size > size:
                    break
                bucket = seen_by_size[bucket_size]
                work[0] += len(bucket)
                for seen_ones, seen_zeros in bucket:
                    if (seen_ones & ones) == seen_ones and (seen_zeros & zeros) == seen_zeros:
                        return None
            index = len(nodes)
            nodes.append((ones, zeros, transition, parent, depth))
            exact.add((ones, zeros))
            seen_by_size.setdefault(size, []).append((ones, zeros))
            queue.append(index)
            if (initial & ones) == ones and not (initial & zeros):
                return index
            return None

        for cube in cubes:
            ones = sum(compiled.place_bit[p] for p in cube.true_places)
            zeros = sum(compiled.place_bit[p] for p in cube.false_places)
            hit = admit(ones, zeros, None, None, 0)
            if hit is not None:
                violations.append(hit)

        depth_reached = 0
        processed = 0
        while queue and not violations:
            index = queue.popleft()
            ones, zeros, _, _, depth = nodes[index]
            processed += 1
            depth_reached = max(depth_reached, depth)
            if processed > self.max_cubes:
                return self.outcome(
                    None, details="backward induction exceeded its {}-cube "
                    "budget at depth {}".format(self.max_cubes, depth))
            for transition in range(transition_count):
                if work[0] > MAX_WORK:
                    return self.outcome(
                        None, details="backward induction exceeded its "
                        "subsumption-work budget after {} cube(s) at depth "
                        "{}".format(processed, depth))
                p, c = produce[transition], consume[transition]
                if p & zeros:
                    continue  # firing marks a place the cube needs empty
                if ones & c & ~p:
                    continue  # firing empties a place the cube needs marked
                pre_ones = need[transition] | (ones & ~p)
                pre_zeros = (p & ~c) | (zeros & ~c)
                hit = admit(pre_ones, pre_zeros, transition, index, depth + 1)
                if hit is not None:
                    violations.append(hit)
                    break

        if violations:
            witnesses = [self._witness(compiled, initial, nodes, hit)
                         for hit in violations[:max_witnesses]]
            return self.outcome(
                False, witnesses=witnesses,
                details="backward induction reached the initial marking: bad "
                "state reachable in {} step(s)".format(
                    len(witnesses[0]["trace"])))
        return self.outcome(
            True, details="backward induction closed after {} cube(s) at "
            "depth {}: {} of {} bad cube(s) regressed to nothing, the rest "
            "refuted by {} place invariant(s)".format(
                processed, depth_reached, len(cubes), total_cubes,
                len(semiflows)))

    @staticmethod
    def _witness(compiled, initial, nodes, hit):
        """Replay a cube chain forward into a concrete counterexample."""
        state = initial
        trace = []
        index = hit
        while True:
            _, _, transition, parent, _ = nodes[index]
            if transition is None:
                break
            state = compiled.fire(transition, state)
            trace.append(compiled.transition_names[transition])
            index = parent
        return {"marking": compiled.decode(state), "trace": trace}
