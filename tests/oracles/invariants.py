"""Oracles of :mod:`repro.petri.invariants`.

Whole-net Farkas elimination, the oracle of :func:`compute_semiflows`.

:func:`repro.petri.invariants.compute_semiflows` eliminates each transition
inside its own incidence component only.  This module keeps the plain
formulation it must reproduce exactly: every round computes the effect of
*every* row and runs the subset prune over *every* kept row.  Same list,
same order, same :class:`~repro.petri.invariants.InvariantBudgetExceeded`
at the same transition -- ``tests/test_petri_semiflows.py`` compares the
two element for element.

:func:`reference_siphons` is the plain recursive search that
``minimal_siphons`` must reproduce, node count included, and
:func:`siphon_trap_proved` the oracle of ``siphon_trap_certificate``: it
enumerates every minimal siphon first and then looks for a reserve in each,
with the set-based :func:`maximal_trap_within`, where the certificate stops
at the first recorded siphon without one.
"""

from math import gcd

from repro.petri.invariants import (
    InvariantBudgetExceeded,
    Semiflow,
    SiphonBudgetExceeded,
    maximal_trap_within,
)


def _normalise(vector):
    """*vector* divided by the gcd of its entries."""
    divisor = 0
    for value in vector:
        divisor = gcd(divisor, value)
    if divisor > 1:
        return [value // divisor for value in vector]
    return vector


def whole_net_semiflows(net, max_rows=20000):
    """Minimal-support semiflows of *net*, eliminating over every row."""
    places = sorted(net.places)
    index = {place: i for i, place in enumerate(places)}
    rows = []
    for i in range(len(places)):
        row = [0] * len(places)
        row[i] = 1
        rows.append(row)

    def transition_effect(row, transition):
        effect = 0
        for place, weight in net.produced_places(transition).items():
            effect += row[index[place]] * weight
        for place, weight in net.consumed_places(transition).items():
            effect -= row[index[place]] * weight
        return effect

    for transition in sorted(net.transitions):
        positive, negative, kept = [], [], []
        for row in rows:
            effect = transition_effect(row, transition)
            if effect > 0:
                positive.append((row, effect))
            elif effect < 0:
                negative.append((row, -effect))
            else:
                kept.append(row)
        if len(kept) + len(positive) * len(negative) > max_rows:
            raise InvariantBudgetExceeded(
                "semiflow computation of {!r} exceeds the {}-row budget at "
                "transition {!r}".format(net.name, max_rows, transition))
        for row_a, effect_a in positive:
            for row_b, effect_b in negative:
                combined = _normalise([
                    effect_b * a + effect_a * b for a, b in zip(row_a, row_b)
                ])
                kept.append(combined)
        supports = [frozenset(i for i, v in enumerate(row) if v) for row in kept]
        pruned, seen = [], set()
        for i, row in enumerate(kept):
            if any(j != i and supports[j] < supports[i]
                   for j in range(len(kept))):
                continue
            key = tuple(row)
            if key in seen:
                continue
            seen.add(key)
            pruned.append(row)
        rows = pruned

    initial = net.initial_marking()
    semiflows = []
    for row in rows:
        weights = {places[i]: value for i, value in enumerate(row) if value}
        if not weights:
            continue
        value = sum(weight * initial[place] for place, weight in weights.items())
        semiflows.append(Semiflow(weights, value))
    return semiflows


def cube_refuted(cube, semiflows, bounds):
    """Is *cube* infeasible under some semiflow?  The per-name reference of
    the inductive checker's bitmask test (``_MaskInvariant.feasible``).

    A semiflow refutes the cube when the places the cube marks already
    weigh more than its value, or when the places the cube leaves open
    cannot weigh enough even at their structural *bounds*.
    """
    for semiflow in semiflows:
        lower = sum(weight for place, weight in semiflow.weights.items()
                    if place in cube.true_places)
        upper = sum(weight * bounds[place]
                    for place, weight in semiflow.weights.items()
                    if place not in cube.false_places)
        if lower > semiflow.value or upper < semiflow.value:
            return True
    return False


def reference_siphons(net, max_nodes=100000):
    """``(minimal siphons, search nodes)`` by the plain recursive search.

    The branch-and-bound of ``repro.petri.invariants.minimal_siphons`` in
    its first form:
    place sets as masks, a linear scan of every recorded siphon for the
    covered test and of every transition for the violation.  Same seeds,
    same branch order, same node count, and the same
    :class:`SiphonBudgetExceeded` past *max_nodes*.
    """
    places = sorted(net.places)
    bit_of = {place: 1 << index for index, place in enumerate(places)}
    transitions = sorted(net.transitions)

    def needs(transition):
        return set(net.consumed_places(transition)) | set(
            net.read_places(transition))

    def mask(names):
        return sum(bit_of[name] for name in set(names))

    produces = [mask(net.produced_places(t)) for t in transitions]
    needed = [mask(needs(t)) for t in transitions]
    need_bits = [[bit_of[place] for place in sorted(needs(t))]
                 for t in transitions]
    siphons = []
    nodes = 0

    def grow(candidate):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise SiphonBudgetExceeded(
                "minimal-siphon enumeration of {!r} exceeds the {}-node "
                "budget".format(net.name, max_nodes))
        if any(found & candidate == found for found in siphons):
            return
        for index in range(len(transitions)):
            if produces[index] & candidate and not needed[index] & candidate:
                for bit in need_bits[index]:
                    grow(candidate | bit)
                return
        siphons[:] = [found for found in siphons
                      if candidate & found != candidate]
        siphons.append(candidate)

    for place in places:
        grow(bit_of[place])
    named = [frozenset(place for place in places if found & bit_of[place])
             for found in siphons
             if not any(other != found and other & found == other
                        for other in siphons)]
    return sorted(named, key=sorted), nodes


def siphon_trap_proved(net, semiflows=(), max_nodes=100000):
    """Does every minimal siphon of *net* hold a permanent token reserve?

    A reserve is an initially marked trap inside the siphon or a
    positive-value semiflow supported inside it.  ``False`` covers every
    other answer: a siphon without a reserve, an enumeration over its
    *max_nodes* budget, and the nets the certificate rules out up front (no
    transitions, a consume weight above 1).  A transition that needs no
    tokens is always enabled, so such a net is proved.
    """
    transitions = list(net.transitions)
    if not transitions:
        return False
    if any(not net.consumed_places(t) and not net.read_places(t)
           for t in transitions):
        return True
    if any(weight > 1 for t in transitions
           for weight in net.consumed_places(t).values()):
        return False
    try:
        siphons, _ = reference_siphons(net, max_nodes=max_nodes)
    except SiphonBudgetExceeded:
        return False
    initial = net.initial_marking()
    for siphon in siphons:
        trap = maximal_trap_within(net, siphon)
        if any(initial[place] > 0 for place in trap):
            continue
        if any(semiflow.value > 0 and semiflow.support <= siphon
               for semiflow in semiflows):
            continue
        return False
    return True
