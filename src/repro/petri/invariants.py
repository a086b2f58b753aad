"""Place invariants (semiflows) of Petri nets.

A **semiflow** is a non-negative integer weighting ``y`` of the places such
that every transition firing leaves the weighted token sum unchanged:
``y . M = y . M0`` for every reachable marking ``M``.  Semiflows are the
classic structural source of *inductive* facts about a net -- they hold in
every reachable marking without exploring any of them -- and they are what
lets :class:`repro.verification.checkers.InductiveChecker` prove safety
properties on state spaces far beyond any exploration bound.

The DFS translations of :mod:`repro.dfs.translation` are rich in small
semiflows: every complementary place pair ``x_0 + x_1 = 1`` is one, and each
dynamic register additionally satisfies ``Mt_1 + Mf_1 + M_0 = 1``, which is
exactly the fact needed to prove token-value mutual exclusion inductively.

The generator is the Farkas-style elimination algorithm: start from the
identity weightings and eliminate transitions one by one, combining rows
with opposite effects.  Minimal-support pruning keeps the basis small; the
worst case is still exponential, so the computation carries a row budget and
raises :class:`InvariantBudgetExceeded` instead of hanging on adversarial
nets (callers then fall back to weaker reasoning or report inconclusive).

Each round touches only the rows of the eliminated transition's incidence
component -- places joined by a transition with a non-zero incidence entry
on both.  The DFS translations split into components of a few places each,
so an 18-stage OPE pipeline's 768 semiflows take well under a second, and
there is nothing left worth memoising across runs.
"""

from math import gcd

from repro.exceptions import VerificationError


class InvariantBudgetExceeded(VerificationError):
    """Raised when the semiflow computation exceeds its row budget."""


class Semiflow:
    """One non-negative place invariant: ``sum(weights[p] * M[p]) == value``.

    ``weights`` maps place names to positive integers (places outside the
    mapping have weight zero); ``value`` is the weighted sum at the initial
    marking, which every reachable marking must reproduce.
    """

    __slots__ = ("weights", "value")

    def __init__(self, weights, value):
        self.weights = dict(weights)
        self.value = int(value)

    @property
    def support(self):
        return frozenset(self.weights)

    def upper_bound(self, place):
        """Structural bound on the tokens *place* can hold, or ``None``."""
        weight = self.weights.get(place)
        if not weight:
            return None
        return self.value // weight

    def holds_at(self, marking):
        """Evaluate the invariant on a marking (sanity checks and tests)."""
        return sum(w * marking[p] for p, w in self.weights.items()) == self.value

    def __eq__(self, other):
        return (isinstance(other, Semiflow)
                and self.weights == other.weights
                and self.value == other.value)

    def __hash__(self):
        return hash((frozenset(self.weights.items()), self.value))

    def __repr__(self):
        terms = " + ".join(
            "{}{}".format("" if w == 1 else "{}*".format(w), p)
            for p, w in sorted(self.weights.items()))
        return "Semiflow({} == {})".format(terms, self.value)


def _normalise(row):
    """*row* (place index -> weight) divided by the gcd of its weights."""
    divisor = 0
    for value in row.values():
        divisor = gcd(divisor, value)
    if divisor > 1:
        return {i: value // divisor for i, value in row.items()}
    return row


def _incidence_components(net, places, index):
    """Return ``(columns, component)`` of *net*'s incidence matrix.

    ``columns[t]`` maps place indices to the non-zero incidence entries of
    transition ``t`` (produced minus consumed; read arcs and zero-effect
    self-loops contribute nothing).  ``component[i]`` is the union-find root
    of place ``i``, where places are joined whenever one transition has a
    non-zero entry on both.
    """
    parent = list(range(len(places)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    columns = {}
    for transition in net.transitions:
        column = {}
        for place, weight in net.produced_places(transition).items():
            column[index[place]] = column.get(index[place], 0) + weight
        for place, weight in net.consumed_places(transition).items():
            column[index[place]] = column.get(index[place], 0) - weight
        column = {i: entry for i, entry in column.items() if entry}
        columns[transition] = column
        roots = [find(i) for i in column]
        for root in roots[1:]:
            parent[find(root)] = find(roots[0])
    return columns, [find(i) for i in range(len(places))]


def compute_semiflows(net, max_rows=20000):
    """Return a minimal-support generating set of semiflows of *net*.

    Farkas elimination over the incidence matrix: rows start as the identity
    weightings (one per place) and every transition column is eliminated by
    combining rows of opposite effect, so all surviving rows are
    non-negative by construction.  Rows whose support strictly contains
    another row's support are pruned each round, which keeps the basis at
    the minimal semiflows.

    Every row stays inside one incidence component (see
    :func:`_incidence_components`): it starts as an identity row and is only
    ever combined with rows that have an effect on the same transition.  A
    row of another component has zero effect on the transition being
    eliminated and a support disjoint from every row of its component, so
    neither the combination nor the subset prune can touch it; each round
    therefore works on the rows of the transition's own component only,
    and leaves every other row where it is in the one global list.  The
    result -- order included -- is that of eliminating over every row.

    Rows are sparse (place index -> positive weight), so a round costs
    what the rows' supports hold, not the place count.

    Raises :class:`InvariantBudgetExceeded` when an elimination round would
    hold more than *max_rows* rows (counting the rows of every component).
    """
    places = sorted(net.places)
    index = {place: i for i, place in enumerate(places)}
    columns, component = _incidence_components(net, places, index)
    # (component, row) pairs, in the order of the whole-net elimination.
    rows = [(component[i], {i: 1}) for i in range(len(places))]

    for transition in sorted(net.transitions):
        column = columns[transition]
        tag = component[next(iter(column))] if column else None
        positive, negative, local = [], [], []
        for k, (row_tag, row) in enumerate(rows):
            if row_tag != tag:
                continue
            effect = 0
            for i, entry in column.items():
                effect += row.get(i, 0) * entry
            if effect > 0:
                positive.append((row, effect))
            elif effect < 0:
                negative.append((row, -effect))
            else:
                local.append(k)
        kept = len(rows) - len(positive) - len(negative)
        if kept + len(positive) * len(negative) > max_rows:
            raise InvariantBudgetExceeded(
                "semiflow computation of {!r} exceeds the {}-row budget at "
                "transition {!r}".format(net.name, max_rows, transition))
        if not positive and not negative:
            continue
        candidates = [rows[k][1] for k in local]
        for row_a, effect_a in positive:
            for row_b, effect_b in negative:
                combined = {i: effect_b * a for i, a in row_a.items()}
                for i, b in row_b.items():
                    combined[i] = combined.get(i, 0) + effect_a * b
                candidates.append(_normalise(combined))
        supports = [frozenset(row) for row in candidates]
        survivors, seen = [], set()
        for i, row in enumerate(candidates):
            if any(j != i and supports[j] < supports[i]
                   for j in range(len(candidates))):
                continue
            key = tuple(sorted(row.items()))
            if key in seen:
                continue
            seen.add(key)
            survivors.append(i)
        kept_local = {local[i] for i in survivors if i < len(local)}
        rows = ([entry for k, entry in enumerate(rows)
                 if entry[0] != tag or k in kept_local]
                + [(tag, candidates[i]) for i in survivors
                   if i >= len(local)])

    initial = net.initial_marking()
    semiflows = []
    for _, row in rows:
        weights = {places[i]: row[i] for i in sorted(row)}
        value = sum(weight * initial[place] for place, weight in weights.items())
        semiflows.append(Semiflow(weights, value))
    return semiflows


def place_bounds(semiflows):
    """Map every covered place to its tightest structural token bound."""
    bounds = {}
    for semiflow in semiflows:
        for place in semiflow.weights:
            bound = semiflow.upper_bound(place)
            current = bounds.get(place)
            if current is None or bound < current:
                bounds[place] = bound
    return bounds


def proves_bound(semiflows, places, bound=1):
    """``True`` when the semiflows bound every listed place by *bound*."""
    bounds = place_bounds(semiflows)
    return all(bounds.get(place, bound + 1) <= bound for place in places)


# -- siphons and traps --------------------------------------------------------
#
# The structural no-solver route to unbounded deadlock-freedom proofs,
# generalised to the read arcs of the DFS translations:
#
# * a **siphon** is a place set S such that every transition producing into
#   S also consumes or reads from S -- once S is empty it stays empty
#   forever (any refilling transition is disabled by the empty S);
# * a **trap** is a place set Q such that every transition consuming from Q
#   either produces into Q or reads a place of Q it does not consume --
#   once Q is marked it stays marked forever.
#
# Commoner's argument then goes: at a dead marking of an *ordinary* net
# (all consume weights 1; read arcs always test for a single token), the
# empty places form a siphon, because every transition is disabled and so
# needs a token from some empty place.  An initially marked trap inside a
# siphon can therefore never empty, so if **every minimal siphon** contains
# an initially marked trap (or a semiflow with positive value supported
# inside the siphon -- an equally permanent token reserve), no dead marking
# exists: the net is **deadlock-free, with no state bound at all**.  This
# is one-sided -- a siphon without such a reserve proves nothing.


def _needs(net, transition):
    """Places *transition* needs tokens in to fire (consume + read)."""
    needs = set(net.consumed_places(transition))
    needs.update(net.read_places(transition))
    return needs


def is_siphon(net, places):
    """Is *places* a (generalised) siphon of *net*?"""
    places = set(places)
    for transition in net.transitions:
        if places.intersection(net.produced_places(transition)):
            if not places.intersection(_needs(net, transition)):
                return False
    return True


def is_trap(net, places):
    """Is *places* a (generalised) trap of *net*?"""
    places = set(places)
    for transition in net.transitions:
        consumed = places.intersection(net.consumed_places(transition))
        if not consumed:
            continue
        if places.intersection(net.produced_places(transition)):
            continue
        surviving = (places.intersection(net.read_places(transition))
                     - set(net.consumed_places(transition)))
        if not surviving:
            return False
    return True


def maximal_trap_within(net, places):
    """The unique maximal trap contained in *places* (possibly empty).

    Traps are closed under union, so the maximal one is well-defined; it is
    computed by removing forced places to a fixpoint: a transition that
    consumes from the candidate without producing into it (or reading a
    surviving place of it) can unmark the candidate, so everything it
    consumes must go.
    """
    candidate = set(places)
    changed = True
    while changed and candidate:
        changed = False
        for transition in net.transitions:
            consumed_places = net.consumed_places(transition)
            consumed = candidate.intersection(consumed_places)
            if not consumed:
                continue
            if candidate.intersection(net.produced_places(transition)):
                continue
            surviving = (candidate.intersection(net.read_places(transition))
                         - set(consumed_places))
            if surviving:
                continue
            candidate -= consumed
            changed = True
    return candidate


class SiphonBudgetExceeded(VerificationError):
    """Raised when the minimal-siphon enumeration exceeds its node budget."""


#: In-process memo of :func:`minimal_siphons`, keyed by canonical net
#: fingerprint and node budget.  Budget blow-ups are remembered too: on a
#: hard net the enumeration burns its whole *max_nodes* budget before
#: declining, and the portfolio re-asks the structural checker on every
#: battery -- without the memo each repeat pays the full decline again.
#: The result is pure structure, so the same fingerprint and budget always
#: reproduce it.
_SIPHON_MEMO = {}
_SIPHON_MEMO_LIMIT = 64


def minimal_siphons(net, max_nodes=100000):
    """Enumerate **all** minimal (non-empty) siphons of *net*.

    Branch-and-bound: grow a candidate from each seed place, and whenever
    some transition produces into the candidate without needing from it,
    branch over that transition's needed places (a correct siphon must
    contain one of them).  Every minimal siphon survives this branching
    from each of its seed places, so the enumeration is complete -- which
    is what makes a "deadlock-free" verdict built on it sound.  The search
    tree is cut off after *max_nodes* nodes with
    :class:`SiphonBudgetExceeded` (enumeration is exponential in general).

    Place sets are int bitmasks internally (one bit per place in sorted
    order, the compiled engine's representation), so the dominating
    covered/violated scans are single-word subset tests instead of
    frozenset comparisons -- the traversal, the node count at which a
    budget blow-up fires, and the returned siphons are all identical to
    the set-based formulation, only (much) faster.

    Memoised per process on ``(net fingerprint, max_nodes)``, including
    the :class:`SiphonBudgetExceeded` outcome, so repeated structural
    queries against the same net (portfolio batteries, campaign re-runs)
    pay the enumeration -- or its budget-exhausting decline -- only once.
    """
    # Imported here: hashing pulls in hashlib (and OpenSSL), which the
    # semiflow computation of every exploration does not need.
    from repro.petri.fingerprint import net_fingerprint

    key = (net_fingerprint(net), max_nodes)
    hit = _SIPHON_MEMO.get(key)
    if hit is None:
        try:
            hit = ("ok", tuple(_enumerate_minimal_siphons(net, max_nodes)))
        except SiphonBudgetExceeded as error:
            hit = ("budget", str(error))
        while len(_SIPHON_MEMO) >= _SIPHON_MEMO_LIMIT:
            del _SIPHON_MEMO[next(iter(_SIPHON_MEMO))]
        _SIPHON_MEMO[key] = hit
    status, payload = hit
    if status == "budget":
        raise SiphonBudgetExceeded(payload)
    return list(payload)


def _enumerate_minimal_siphons(net, max_nodes):
    transitions = sorted(net.transitions)
    places = sorted(net.places)
    bit_of = {place: 1 << index for index, place in enumerate(places)}

    def mask(names):
        result = 0
        for name in names:
            result |= bit_of[name]
        return result

    produces = [mask(net.produced_places(t)) for t in transitions]
    needs = [mask(_needs(net, t)) for t in transitions]
    # Branch targets, pre-sorted by place name (== ascending bit index).
    need_bits = [[bit_of[place] for place in sorted(_needs(net, t))]
                 for t in transitions]
    transition_range = range(len(transitions))
    siphons = []
    nodes = 0

    def grow(candidate):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise SiphonBudgetExceeded(
                "minimal-siphon enumeration of {!r} exceeds the {}-node "
                "budget".format(net.name, max_nodes))
        for found in siphons:
            if found & candidate == found:  # covered: a subset was found
                return
        for index in transition_range:
            if produces[index] & candidate and not needs[index] & candidate:
                for bit in need_bits[index]:  # branch on the violation
                    grow(candidate | bit)
                return
        siphons[:] = [found for found in siphons
                      if candidate & found != candidate]
        siphons.append(candidate)

    for seed in places:
        grow(bit_of[seed])
    # The per-branch pruning keeps supersets out, but a smaller siphon
    # found later can still shadow an earlier one -- filter once more.
    named = [
        frozenset(place for place in places if found & bit_of[place])
        for found in siphons
        if not any(other != found and other & found == other
                   for other in siphons)
    ]
    return sorted(named, key=sorted)


def siphon_trap_certificate(net, semiflows=(), max_nodes=100000):
    """Prove deadlock-freedom structurally, or explain why not.

    Returns ``{"proved": bool, "reason": str, ...}``.  A proved
    certificate lists, per minimal siphon, the permanent token reserve
    that keeps it marked: an initially marked trap or a positive-value
    semiflow supported inside the siphon.  One-sided: ``proved=False``
    means *inconclusive*, never "a deadlock exists".
    """
    transitions = sorted(net.transitions)
    if not transitions:
        return {"proved": False,
                "reason": "the net has no transitions, so every marking "
                          "is dead"}
    initial = net.initial_marking()
    for transition in transitions:
        if not _needs(net, transition):
            return {"proved": True, "siphons": 0, "witnesses": [],
                    "reason": "transition {!r} needs no tokens and is "
                              "enabled at every marking".format(transition)}
    for transition in transitions:
        if any(weight > 1
               for weight in net.consumed_places(transition).values()):
            return {"proved": False,
                    "reason": "siphon/trap reasoning needs an ordinary net "
                              "(transition {!r} has a consume weight > "
                              "1)".format(transition)}
    try:
        siphons = minimal_siphons(net, max_nodes=max_nodes)
    except SiphonBudgetExceeded as error:
        return {"proved": False, "reason": str(error)}
    witnesses = []
    for siphon in siphons:
        trap = maximal_trap_within(net, siphon)
        if trap and any(initial[place] > 0 for place in trap):
            witnesses.append({"siphon": sorted(siphon),
                              "trap": sorted(trap)})
            continue
        reserve = next(
            (semiflow for semiflow in semiflows
             if semiflow.value > 0 and semiflow.support <= siphon), None)
        if reserve is not None:
            witnesses.append({"siphon": sorted(siphon),
                              "semiflow": sorted(reserve.weights)})
            continue
        return {"proved": False,
                "reason": "the minimal siphon {} contains no initially "
                          "marked trap and no positive semiflow "
                          "support".format(sorted(siphon))}
    return {"proved": True, "siphons": len(siphons), "witnesses": witnesses,
            "reason": "every minimal siphon ({}) holds a permanent token "
                      "reserve, so no reachable marking is dead (holds, "
                      "unbounded)".format(len(siphons))}
