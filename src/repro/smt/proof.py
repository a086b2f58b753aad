"""The result record of the SMT proof engine.

IC3 answers one question -- "is some reachable marking bad?" -- with the
three-valued outcome the checker layer expects: ``proved`` (no reachable
marking is bad, with no state bound), ``violated`` (a concrete firing
sequence reaches a bad marking) or ``unknown`` (budget, timeout, or a
solver that declined).  A ``violated`` outcome always carries a *trace*
of transition names starting at the initial marking; the checker layer
replays it through :meth:`repro.petri.net.PetriNet.fire` before trusting
it, so a solver bug can cause an inconclusive verdict but never an
unsound one.
"""

PROVED = "proved"
VIOLATED = "violated"
UNKNOWN = "unknown"


class ProofOutcome:
    """Outcome of one IC3 run."""

    __slots__ = ("status", "details", "trace", "depth", "certificate")

    def __init__(self, status, details="", trace=None, depth=None,
                 certificate=None):
        self.status = status
        self.details = details
        #: Transition names firing from the initial marking to a bad
        #: marking (``violated`` outcomes only).
        self.trace = trace
        #: Frame count reached.
        self.depth = depth
        #: The inductive invariant as a list of blocked-cube descriptions,
        #: a machine-checkable "why it holds" (``proved`` outcomes only).
        self.certificate = certificate

    @property
    def proved(self):
        return self.status == PROVED

    @property
    def violated(self):
        return self.status == VIOLATED

    def __repr__(self):
        return "ProofOutcome({}, depth={}, trace={})".format(
            self.status, self.depth,
            len(self.trace) if self.trace is not None else None)


def proved(details, depth=None, certificate=None):
    return ProofOutcome(PROVED, details=details, depth=depth,
                        certificate=certificate)


def violated(details, trace, depth=None):
    return ProofOutcome(VIOLATED, details=details, trace=trace, depth=depth)


def unknown(details, depth=None):
    return ProofOutcome(UNKNOWN, details=details, depth=depth)
