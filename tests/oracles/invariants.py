"""Whole-net Farkas elimination: the oracle of :func:`compute_semiflows`.

:func:`repro.petri.invariants.compute_semiflows` eliminates each transition
inside its own incidence component only.  This module keeps the plain
formulation it must reproduce exactly: every round computes the effect of
*every* row and runs the subset prune over *every* kept row.  Same list,
same order, same :class:`~repro.petri.invariants.InvariantBudgetExceeded`
at the same transition -- ``tests/test_petri_semiflows.py`` compares the
two element for element.
"""

from math import gcd

from repro.petri.invariants import InvariantBudgetExceeded, Semiflow


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
