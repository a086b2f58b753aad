"""Canonical fingerprints of Petri nets (and of verdict-relevant options).

The fingerprint is the identity the repo's caches key on: the campaign
verdict cache and the in-process siphon memo of
:mod:`repro.petri.invariants` both answer "have I seen this net before?" by
hashing the net's structure, not its name.  It lives in the ``petri``
package (rather than ``campaign``) because the structural analyses below
the campaign layer must be able to fingerprint a net without importing the
campaign machinery.
"""

from repro.utils.diskcache import digest


def net_fingerprint(net):
    """Return a stable hex fingerprint of a :class:`~repro.petri.net.PetriNet`.

    The fingerprint covers structure and initial marking -- places (name,
    initial tokens, capacity), transition names, and arcs (place, transition,
    kind, weight) -- but not the net's display name or annotations, so two
    structurally identical translations share cached results.
    """
    places = sorted(
        (name, place.tokens, place.capacity) for name, place in net.places.items()
    )
    arcs = sorted(
        (arc.place, arc.transition, arc.kind.value, arc.weight) for arc in net.arcs
    )
    return digest({
        "places": [list(entry) for entry in places],
        "transitions": sorted(net.transitions),
        "arcs": [list(entry) for entry in arcs],
    })


def options_digest(options):
    """Digest a JSON-able mapping of result-relevant options."""
    return digest(options)
