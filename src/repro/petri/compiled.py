"""Compiled bitmask tables of 1-safe Petri nets.

The DFS translations of :mod:`repro.dfs.translation` are 1-safe by
construction (every state variable is a complementary place pair), so an
entire marking fits into a single Python ``int`` with one bit per place.
This module compiles a :class:`~repro.petri.net.PetriNet` into
integer-indexed tables: per-transition **consume**, **produce** and
**need** (consume | read) bitmasks -- enabledness is one mask compare,
firing is two bit operations.

The tables feed :mod:`repro.petri.batch`, the engine
``build_reachability_graph`` runs; the inductive and walk checkers fire and
encode through them too.  These ints keep one bit per place; the batch
engine stores its states in a denser row layout derived from the net's
place invariants (:mod:`repro.petri.layout`), and decodes back to them.
Transitions are indexed in sorted name order, matching
``PetriNet.enabled_transitions``, so the batch engine visits states in the
order of a one-firing-at-a-time BFS over the net.  Two such BFSs live on
as the batch engine's test oracles: a pure-int one over these tables
(``tests/oracles/compiled.py``) and an explicit one over ``Marking`` dicts
(``tests/oracles/reachability.py``).

Nets the bitmask representation cannot express -- arc weights above one,
markings with more than one token in a place, 65,535 or more transitions
-- raise :class:`~repro.exceptions.CompilationError`, and the library
refuses them.  A firing that would produce a second token raises
:class:`~repro.exceptions.SafenessOverflowError`: the net is not 1-safe,
which is the exhaustive checker's 1-safeness verdict.
"""

from repro.exceptions import CompilationError, SafenessOverflowError
from repro.petri.marking import Marking


def iter_bits(mask):
    """Yield the indices of the set bits of *mask*, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CompiledNet:
    """A Petri net compiled to integer-indexed tables and bitmasks."""

    __slots__ = (
        "net",
        "place_names",      # index -> place name (sorted)
        "place_bit",        # place name -> single-bit mask
        "transition_names", # index -> transition name (sorted)
        "transition_index", # transition name -> index
        "consume",          # per transition: mask of consumed places
        "produce",          # per transition: mask of produced places
        "read",             # per transition: mask of read places
        "need",             # per transition: consume | read
    )

    def __init__(self, net):
        weighted = [
            (t, p, w)
            for t in net.transitions
            for side in (net.consumed_places(t), net.produced_places(t))
            for p, w in side.items()
            if w != 1
        ]
        if weighted:
            t, p, w = weighted[0]
            raise CompilationError(
                "cannot compile net {!r}: arc between {!r} and {!r} has "
                "weight {}".format(net.name, p, t, w)
            )
        # The batch engine keeps each state's fired transition in a uint16
        # column (uint8 up to 256 transitions); nets beyond it are refused.
        if len(net.transitions) >= 0xFFFF:
            raise CompilationError(
                "cannot compile net {!r}: {} transitions exceed the 16-bit "
                "fired-transition column".format(net.name, len(net.transitions))
            )
        self.net = net
        self.place_names = sorted(net.places)
        self.place_bit = {name: 1 << i for i, name in enumerate(self.place_names)}
        self.transition_names = sorted(net.transitions)
        self.transition_index = {name: i for i, name in enumerate(self.transition_names)}
        self.consume = []
        self.produce = []
        self.read = []
        self.need = []
        for name in self.transition_names:
            consume = self._mask(net.consumed_places(name))
            produce = self._mask(net.produced_places(name))
            read = self._mask(net.read_places(name))
            self.consume.append(consume)
            self.produce.append(produce)
            self.read.append(read)
            self.need.append(consume | read)

    @classmethod
    def compile(cls, net):
        """Compile *net*; raise :class:`CompilationError` when impossible."""
        return cls(net)

    def _mask(self, places):
        mask = 0
        for place in places:
            mask |= self.place_bit[place]
        return mask

    # -- marking conversion -------------------------------------------------

    def encode(self, marking):
        """Pack a :class:`Marking` into an ``int``; raise when it does not fit."""
        state = 0
        for place, count in marking.items():
            if count > 1:
                raise CompilationError(
                    "marking holds {} tokens in place {!r}; the compiled "
                    "engine represents 1-safe markings only".format(count, place)
                )
            bit = self.place_bit.get(place)
            if bit is None:
                raise CompilationError("unknown place in marking: {!r}".format(place))
            state |= bit
        return state

    def decode(self, state):
        """Unpack an ``int`` state back into a :class:`Marking`."""
        return Marking({self.place_names[i]: 1 for i in iter_bits(state)})

    def mask_of(self, place):
        """Single-bit mask of *place* (``0`` for unknown places)."""
        return self.place_bit.get(place, 0)

    # -- semantics ----------------------------------------------------------

    def fire(self, transition_index, state):
        """Fire an enabled transition; detect loss of 1-safeness."""
        remainder = state & ~self.consume[transition_index]
        produced = self.produce[transition_index]
        overflow = remainder & produced
        if overflow:
            place = self.place_names[next(iter_bits(overflow))]
            raise SafenessOverflowError(self.transition_names[transition_index], place)
        return remainder | produced

    def __repr__(self):
        return "CompiledNet({!r}, places={}, transitions={})".format(
            self.net.name, len(self.place_names), len(self.transition_names)
        )
