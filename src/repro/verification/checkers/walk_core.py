"""The pure-int semantics of the random-walk checker.

The walk checker runs on the NumPy swarm of
:mod:`repro.verification.checkers.walk_batch`; its test oracle, the scalar
walker of ``tests/oracles/walk.py``, must hunt with the *same* randomness
and the *same* guidance, or the two drift apart and differential testing
loses its teeth.  This module is the single home of those semantics:

* :func:`walk_draw` -- a **counter-based** RNG: the draw is a pure function
  of ``(seed, walk, step)``, so walk ``w`` sees the identical stream whether
  it runs alone or as one row of an 8k-row swarm.
* :func:`cube_mask_table` -- the bad-cube masks both engines score Reach
  guidance against.
* :func:`replay_witness` -- swarm traces are replayed on the *net* before
  being trusted, exactly like SMT counterexamples;
  :func:`overflow_outcome` turns a replayed token overflow into the
  1-safeness verdict, for the walk and the exhaustive checker alike.

The swarm mirrors these functions with array operations; the differential
tests in ``tests/test_walk_batch.py`` pin the two together.
"""

from repro.exceptions import ModelError

_MASK64 = (1 << 64) - 1

#: splitmix64 finaliser constants (public: the vectorised RNG re-uses them).
MIX_MULTIPLIER_A = 0xBF58476D1CE4E5B9
MIX_MULTIPLIER_B = 0x94D049BB133111EB
#: Odd stream-separation constants of :func:`walk_draw`.
DRAW_SEED_STRIDE = 0x9E3779B97F4A7C15
DRAW_WALK_STRIDE = 0xC2B2AE3D27D4EB4F
DRAW_STEP_STRIDE = 0xD6E8FEB86659FD93


def mix64(value):
    """The splitmix64 finaliser: a 64-bit avalanche of *value*.

    Every operation wraps at 64 bits, so a uint64 array version (see
    ``walk_batch.draw_rows``) produces identical words without masking.
    """
    value &= _MASK64
    value = ((value ^ (value >> 30)) * MIX_MULTIPLIER_A) & _MASK64
    value = ((value ^ (value >> 27)) * MIX_MULTIPLIER_B) & _MASK64
    return value ^ (value >> 31)


def walk_draw(seed, walk, step):
    """Draw number *step* of walk *walk* under *seed*: a 64-bit word.

    Stream convention: steps ``1..N`` are the walk's per-move draws (one
    per fired step); step ``0`` is reserved and never drawn.  Numbering
    the moves from 0 instead would change every seed's walks, and with
    them the committed golden traces and cached campaign verdicts.
    Being a pure function of the three counters, the stream of a walk is
    independent of how many other walks run, in what order, or in which
    engine -- the determinism contract of the swarm.
    """
    return mix64((seed * DRAW_SEED_STRIDE + walk * DRAW_WALK_STRIDE
                  + step * DRAW_STEP_STRIDE) & _MASK64)


# -- guidance ----------------------------------------------------------------


def cube_mask_table(mask_of, cubes):
    """Precompile DNF *cubes* into ``(ones, zeros, size)`` bitmask rows.

    *mask_of* maps a place name to its single-bit mask (``0`` for unknown
    places, which hold no token).  The swarm splits these int masks into
    uint64 words; the scalar test oracle ranks with them directly.
    """
    masks = []
    for cube in cubes:
        ones = 0
        for place in cube.true_places:
            ones |= mask_of(place)
        zeros = 0
        for place in cube.false_places:
            zeros |= mask_of(place)
        masks.append((ones, zeros, len(cube.places())))
    return tuple(masks)


# -- witness replay ----------------------------------------------------------


def replay_trace(net, trace):
    """Fire *trace* from the initial marking; the final marking or ``None``.

    ``None`` means the trace does not replay on the net (a disabled
    transition or a capacity overflow mid-way): whatever engine produced it
    modelled the net wrong, and its witness must not be trusted.
    """
    marking = net.initial_marking()
    try:
        for transition in trace:
            marking = net.fire(transition, marking)
    except ModelError:
        return None
    return marking


def replay_witness(net, kind, trace, predicate=None, transition=None):
    """Validate a walk witness by replay; a witness dict or ``None``.

    *kind* selects the obligation of the replayed final marking:
    ``"deadlock"`` -- no transition is enabled; ``"reach"`` -- *predicate*
    (a marking predicate) holds; ``"overflow"`` -- firing *transition* next
    puts more than one token somewhere (or a declared capacity rejects
    it).  Mirrors the replay-before-trust rule of the SMT checkers: a
    conclusive verdict may only rest on a trace the net itself confirms.
    """
    marking = replay_trace(net, trace)
    if marking is None:
        return None
    if kind == "deadlock":
        if net.enabled_transitions(marking):
            return None
    elif kind == "reach":
        if predicate is None or not predicate(marking):
            return None
    elif kind == "overflow":
        try:
            if not net.is_enabled(transition, marking):
                return None
            successor = net.fire(transition, marking)
        except ModelError:
            pass  # a declared place capacity rejected the extra token
        else:
            if all(count <= 1 for _, count in successor.items()):
                return None
    else:
        return None
    witness = {"marking": marking, "trace": list(trace)}
    if kind == "overflow":
        witness["transition"] = transition
    return witness


def overflow_outcome(checker, trace, place, finder):
    """The 1-safeness verdict of a token overflow, replayed on the net.

    *trace* is the firing sequence from the initial marking that ends with
    the overflowing transition, *place* the place it overflows (reported
    as found) and *finder* names what found it.  The witness is
    :func:`replay_witness`'s ``"overflow"`` witness -- the marking before
    the last firing, the trace up to it and the transition -- with the
    place added.  A trace the net does not confirm gives an inconclusive
    outcome instead.
    """
    *prefix, transition = trace
    witness = replay_witness(checker.context.net, "overflow", prefix,
                             transition=transition)
    if witness is None:
        return checker.outcome(
            None, details="the {} reported an overflow but its trace did "
            "not replay on the net; not trusting the verdict".format(finder))
    witness["place"] = place
    return checker.outcome(
        False, witnesses=[witness],
        details="{} found a 1-safeness violation: firing {!r} overflows "
        "place {!r}".format(finder, transition, place))
