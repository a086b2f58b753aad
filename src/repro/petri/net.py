"""Petri nets with weighted arcs and read arcs.

The nets built by the DFS translation are 1-safe and use read arcs heavily
(conditions of the DFS enabling equations become read arcs on the places
encoding other nodes' states), so read arcs are first-class citizens here
rather than being expanded into self-loops.  Keeping them explicit matters
for the persistence (hazard) check: two transitions that merely *read* a
common place are not in structural conflict.
"""

from enum import Enum

from repro.exceptions import ModelError
from repro.petri.marking import Marking
from repro.utils.naming import NameRegistry


class ArcKind(Enum):
    """The three kinds of arcs supported by :class:`PetriNet`."""

    CONSUME = "consume"  # place -> transition
    PRODUCE = "produce"  # transition -> place
    READ = "read"        # place -- transition (token tested, not consumed)


class Place:
    """A Petri-net place."""

    __slots__ = ("name", "tokens", "capacity", "annotation")

    def __init__(self, name, tokens=0, capacity=None, annotation=None):
        self.name = name
        self.tokens = int(tokens)
        self.capacity = capacity
        self.annotation = annotation or {}

    def __repr__(self):
        return "Place({!r}, tokens={})".format(self.name, self.tokens)


class Transition:
    """A Petri-net transition."""

    __slots__ = ("name", "annotation")

    def __init__(self, name, annotation=None):
        self.name = name
        self.annotation = annotation or {}

    def __repr__(self):
        return "Transition({!r})".format(self.name)


class Arc:
    """A weighted arc between a place and a transition (or a read arc)."""

    __slots__ = ("place", "transition", "kind", "weight")

    def __init__(self, place, transition, kind, weight=1):
        self.place = place
        self.transition = transition
        self.kind = kind
        self.weight = int(weight)

    def __repr__(self):
        return "Arc({!r}, {!r}, {}, weight={})".format(
            self.place, self.transition, self.kind.value, self.weight
        )


class PetriNet:
    """A Petri net with read arcs and an initial marking.

    Elements are addressed by name.  The net keeps, per transition, the
    multiset of consumed places, produced places and the set of read places,
    which makes enabledness checks and firing O(degree of the transition).
    """

    def __init__(self, name="petri_net", annotation=None):
        self.name = name
        self.annotation = annotation or {}
        self._names = NameRegistry()
        self._places = {}
        self._transitions = {}
        self._arcs = []
        # transition name -> {place name: weight}
        self._consumes = {}
        self._produces = {}
        # transition name -> set of place names
        self._reads = {}

    # -- construction -------------------------------------------------------

    def add_place(self, name, tokens=0, capacity=None, annotation=None):
        """Add a place and return it."""
        self._names.register(name)
        place = Place(name, tokens=tokens, capacity=capacity, annotation=annotation)
        self._places[name] = place
        return place

    def add_transition(self, name, annotation=None):
        """Add a transition and return it."""
        self._names.register(name)
        transition = Transition(name, annotation=annotation)
        self._transitions[name] = transition
        self._consumes[name] = {}
        self._produces[name] = {}
        self._reads[name] = set()
        return transition

    def _check_pair(self, place, transition):
        if place not in self._places:
            raise ModelError("unknown place: {!r}".format(place))
        if transition not in self._transitions:
            raise ModelError("unknown transition: {!r}".format(transition))

    def add_arc(self, source, target, weight=1):
        """Add a consuming (place->transition) or producing (transition->place) arc."""
        if source in self._places and target in self._transitions:
            self._check_pair(source, target)
            self._consumes[target][source] = self._consumes[target].get(source, 0) + weight
            arc = Arc(source, target, ArcKind.CONSUME, weight)
        elif source in self._transitions and target in self._places:
            self._check_pair(target, source)
            self._produces[source][target] = self._produces[source].get(target, 0) + weight
            arc = Arc(target, source, ArcKind.PRODUCE, weight)
        else:
            raise ModelError(
                "an arc must connect a place and a transition: {!r} -> {!r}".format(
                    source, target
                )
            )
        self._arcs.append(arc)
        return arc

    def add_read_arc(self, place, transition):
        """Add a read arc: *transition* requires a token in *place* but does not consume it."""
        self._check_pair(place, transition)
        self._reads[transition].add(place)
        arc = Arc(place, transition, ArcKind.READ, 1)
        self._arcs.append(arc)
        return arc

    # -- element access -----------------------------------------------------

    @property
    def places(self):
        """Mapping of place name to :class:`Place`."""
        return dict(self._places)

    @property
    def transitions(self):
        """Mapping of transition name to :class:`Transition`."""
        return dict(self._transitions)

    @property
    def arcs(self):
        """List of all arcs in insertion order."""
        return list(self._arcs)

    def place(self, name):
        try:
            return self._places[name]
        except KeyError:
            raise ModelError("unknown place: {!r}".format(name))

    def transition(self, name):
        try:
            return self._transitions[name]
        except KeyError:
            raise ModelError("unknown transition: {!r}".format(name))

    def has_place(self, name):
        return name in self._places

    def has_transition(self, name):
        return name in self._transitions

    def consumed_places(self, transition):
        """Return ``{place: weight}`` consumed by *transition*."""
        return dict(self._consumes[transition])

    def produced_places(self, transition):
        """Return ``{place: weight}`` produced by *transition*."""
        return dict(self._produces[transition])

    def read_places(self, transition):
        """Return the set of places read (tested) by *transition*."""
        return set(self._reads[transition])

    def preset(self, transition):
        """Places consumed or read by *transition*."""
        return set(self._consumes[transition]) | self._reads[transition]

    def postset(self, transition):
        """Places produced by *transition*."""
        return set(self._produces[transition])

    def place_preset(self, place):
        """Transitions producing into *place*."""
        return {t for t, produced in self._produces.items() if place in produced}

    def place_postset(self, place):
        """Transitions consuming from *place*."""
        return {t for t, consumed in self._consumes.items() if place in consumed}

    # -- markings -----------------------------------------------------------

    def initial_marking(self):
        """Return the initial marking (from per-place token counts)."""
        return Marking({name: place.tokens for name, place in self._places.items()})

    def set_initial_marking(self, marking):
        """Set the initial marking from a :class:`Marking` or dict."""
        marking = marking if isinstance(marking, Marking) else Marking(marking)
        for name, place in self._places.items():
            place.tokens = marking[name]

    # -- semantics ----------------------------------------------------------

    def is_enabled(self, transition, marking):
        """Return ``True`` when *transition* is enabled at *marking*."""
        if transition not in self._transitions:
            raise ModelError("unknown transition: {!r}".format(transition))
        for place, weight in self._consumes[transition].items():
            if marking[place] < weight:
                return False
        for place in self._reads[transition]:
            if marking[place] < 1:
                return False
        return True

    def enabled_transitions(self, marking):
        """Return the sorted list of transitions enabled at *marking*."""
        return sorted(
            name for name in self._transitions if self.is_enabled(name, marking)
        )

    def fire(self, transition, marking):
        """Fire *transition* at *marking* and return the successor marking."""
        if not self.is_enabled(transition, marking):
            raise ModelError(
                "transition {!r} is not enabled at {!r}".format(transition, marking)
            )
        successor = marking.fire(
            self._consumes[transition], self._produces[transition]
        )
        self._check_capacities(successor, transition)
        return successor

    def _check_capacities(self, marking, transition):
        for place, count in marking.items():
            capacity = self._places[place].capacity
            if capacity is not None and count > capacity:
                raise ModelError(
                    "firing {!r} exceeds capacity {} of place {!r}".format(
                        transition, capacity, place
                    )
                )

    # -- structural checks ----------------------------------------------------

    def validate(self):
        """Run structural sanity checks; raise :class:`ModelError` on problems."""
        for transition in self._transitions:
            if not self._consumes[transition] and not self._produces[transition]:
                raise ModelError(
                    "transition {!r} is disconnected (no consume or produce arcs)".format(
                        transition
                    )
                )
        return True

    def __repr__(self):
        return "PetriNet({!r}, places={}, transitions={}, arcs={})".format(
            self.name, len(self._places), len(self._transitions), len(self._arcs)
        )
