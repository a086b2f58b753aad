"""Enabling rules of DFS nodes (equations (1)-(5) of the paper).

This module is the single source of truth for the behavioural semantics:
it turns a :class:`~repro.dfs.model.DataflowStructure` into a set of
:class:`Event` objects, each with a guard expressed as a conjunction of
literals over the state variables of *other* nodes.  The token-game
simulator evaluates the guards directly; the Petri-net translation maps each
literal to a read arc.  Because both views are generated from the same
events, a DFS-level trace and its Petri-net counterpart use identical names.

State variables (per node ``x``):

* ``C(x)``  -- evaluation state of a logic node;
* ``M(x)``  -- marking of a register node;
* ``Mt(x)`` -- the register is marked *and* carries a True (real) token;
* ``Mf(x)`` -- the register is marked *and* carries a False (empty) token.

Interpretation choices documented here (the paper leaves them implicit):

* A push or pop register with no control register in its R-preset behaves as
  a plain register: only the "true" events are generated for it.
* A control register whose R-preset contains no control register makes a
  non-deterministic True/False choice (both marking events are enabled), as
  in Fig. 4 of the paper.
* The ``Mt`` restriction on pop registers in the R-postset (equation (4))
  applies to data-path registers only; a *control* register acknowledging a
  pop it controls accepts either token value.  Without this refinement the
  False branch of the paper's own motivating example (Fig. 1b) would
  deadlock, because the control register could never observe ``Mt`` of the
  pop it has just steered into bypass mode.
* A false-controlled pop may produce the next empty token only after its
  control registers have been released (their marking consumed), which ties
  empty-token production one-to-one to control tokens.
"""

from enum import Enum

from repro.dfs.nodes import NodeType
from repro.exceptions import TranslationError


class Literal:
    """A single condition ``kind(node) == value`` in an event guard."""

    __slots__ = ("kind", "node", "value")

    #: Valid literal kinds.
    KINDS = ("C", "M", "Mt", "Mf")

    def __init__(self, kind, node, value):
        if kind not in self.KINDS:
            raise ValueError("unknown literal kind: {!r}".format(kind))
        self.kind = kind
        self.node = node
        self.value = bool(value)

    def __eq__(self, other):
        return (
            isinstance(other, Literal)
            and self.kind == other.kind
            and self.node == other.node
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.kind, self.node, self.value))

    def __repr__(self):
        text = "{}({})".format(self.kind, self.node)
        return text if self.value else "!" + text


class EventAction(Enum):
    """What an event does to its node's state."""

    EVALUATE = "evaluate"          # C: 0 -> 1
    RESET = "reset"                # C: 1 -> 0
    MARK = "mark"                  # M: 0 -> 1 (plain register)
    UNMARK = "unmark"              # M: 1 -> 0 (plain register)
    MARK_TRUE = "mark_true"        # M: 0 -> 1 with a True token
    MARK_FALSE = "mark_false"      # M: 0 -> 1 with a False token
    UNMARK_TRUE = "unmark_true"    # M: 1 -> 0 releasing a True token
    UNMARK_FALSE = "unmark_false"  # M: 1 -> 0 releasing a False token


#: Actions that mark a register.
MARKING_ACTIONS = (EventAction.MARK, EventAction.MARK_TRUE, EventAction.MARK_FALSE)


class Event:
    """An atomic state change of one DFS node, with its guard."""

    __slots__ = ("name", "node", "action", "guard")

    def __init__(self, name, node, action, guard):
        self.name = name
        self.node = node
        self.action = action
        self.guard = tuple(guard)

    @property
    def token_value(self):
        """The token value involved, for dynamic register events."""
        if self.action in (EventAction.MARK_TRUE, EventAction.UNMARK_TRUE):
            return True
        if self.action in (EventAction.MARK_FALSE, EventAction.UNMARK_FALSE):
            return False
        return None

    def __repr__(self):
        return "Event({!r}, {}, guard={})".format(self.name, self.action.value, list(self.guard))


def event_name(node, action):
    """The canonical (paper-style) name of an event / Petri-net transition."""
    suffix = "+" if action in MARKING_ACTIONS or action is EventAction.EVALUATE else "-"
    if action in (EventAction.EVALUATE, EventAction.RESET):
        return "C_{}{}".format(node, suffix)
    if action in (EventAction.MARK, EventAction.UNMARK):
        return "M_{}{}".format(node, suffix)
    if action in (EventAction.MARK_TRUE, EventAction.UNMARK_TRUE):
        return "Mt_{}{}".format(node, suffix)
    return "Mf_{}{}".format(node, suffix)


def marking_event_names(node):
    """All event names that mark register *node*, plain or by token value.

    The single source of truth for "a token arrived at this register":
    simulators and analyzers that count token arrivals match fired event
    names against this set instead of re-deriving the naming scheme.

    >>> sorted(marking_event_names("out"))
    ['M_out+', 'Mf_out+', 'Mt_out+']
    """
    return frozenset(event_name(node, action) for action in MARKING_ACTIONS)


def place_name(kind, node, bit):
    """Name of the translation place encoding ``kind(node) == bit``.

    Every Boolean state variable of the Petri-net translation becomes a
    complementary place pair named by this function; verification code that
    needs to address e.g. "register ``x`` holds a True token" must build the
    name here (``place_name("Mt", x, 1)``) rather than formatting it inline.

    >>> place_name("M", "ctrl", 1)
    'M_ctrl_1'
    """
    if bit not in (0, 1):
        raise TranslationError("place bit must be 0 or 1, got {!r}".format(bit))
    if kind not in Literal.KINDS:
        raise TranslationError(
            "unknown state-variable kind {!r} (known: {})".format(
                kind, ", ".join(Literal.KINDS)))
    return "{}_{}_{}".format(kind, node, bit)


def _sorted(literals):
    return sorted(literals, key=lambda lit: (lit.kind, lit.node, lit.value))


# -- guard fragments -----------------------------------------------------------


def _logic_up_guard(dfs, name):
    """Guard of C(l): 0 -> 1 (equation (3), set part)."""
    guard = []
    for k in sorted(dfs.preset(name)):
        node = dfs.node(k)
        if node.node_type is NodeType.LOGIC:
            guard.append(Literal("C", k, True))
        else:
            guard.append(Literal("M", k, True))
            if node.node_type is NodeType.PUSH:
                guard.append(Literal("Mt", k, True))
    return guard


def _logic_down_guard(dfs, name):
    """Guard of C(l): 1 -> 0 (equation (3), reset part)."""
    guard = []
    for k in sorted(dfs.preset(name)):
        node = dfs.node(k)
        if node.node_type is NodeType.LOGIC:
            guard.append(Literal("C", k, False))
        else:
            guard.append(Literal("M", k, False))
    return guard


def _register_up_guard(dfs, name):
    """Static+dynamic guard of M(r): 0 -> 1 (equations (2) and (4), set part)."""
    guard = []
    for k in sorted(dfs.logic_preset(name)):
        guard.append(Literal("C", k, True))
    for q in sorted(dfs.r_preset(name)):
        guard.append(Literal("M", q, True))
        if dfs.kind(q) is NodeType.PUSH:
            guard.append(Literal("Mt", q, True))
    for q in sorted(dfs.r_postset(name)):
        guard.append(Literal("M", q, False))
    return guard


def _register_down_guard(dfs, name):
    """Static+dynamic guard of M(r): 1 -> 0 (equations (2) and (4), reset part)."""
    node = dfs.node(name)
    guard = []
    for k in sorted(dfs.logic_preset(name)):
        guard.append(Literal("C", k, False))
    for q in sorted(dfs.r_preset(name)):
        guard.append(Literal("M", q, False))
    for q in sorted(dfs.r_postset(name)):
        guard.append(Literal("M", q, True))
        # Data-path registers must see a *real* token in a downstream pop
        # before releasing their own token; a control register acknowledging
        # the pop it controls accepts either token value (see module
        # docstring).
        if dfs.kind(q) is NodeType.POP and node.node_type is not NodeType.CONTROL:
            guard.append(Literal("Mt", q, True))
    return guard


# -- per-node events -----------------------------------------------------------


def _logic_events(dfs, name):
    return [
        Event(event_name(name, EventAction.EVALUATE), name, EventAction.EVALUATE,
              _sorted(_logic_up_guard(dfs, name))),
        Event(event_name(name, EventAction.RESET), name, EventAction.RESET,
              _sorted(_logic_down_guard(dfs, name))),
    ]


def _plain_register_events(dfs, name):
    return [
        Event(event_name(name, EventAction.MARK), name, EventAction.MARK,
              _sorted(_register_up_guard(dfs, name))),
        Event(event_name(name, EventAction.UNMARK), name, EventAction.UNMARK,
              _sorted(_register_down_guard(dfs, name))),
    ]


def _control_events(dfs, name):
    controls = sorted(dfs.controls_of(name))
    base_up = _register_up_guard(dfs, name)
    base_down = _register_down_guard(dfs, name)
    true_guard = base_up + [Literal("Mt", c, True) for c in controls]
    false_guard = base_up + [Literal("Mf", c, True) for c in controls]
    return [
        Event(event_name(name, EventAction.MARK_TRUE), name, EventAction.MARK_TRUE,
              _sorted(true_guard)),
        Event(event_name(name, EventAction.MARK_FALSE), name, EventAction.MARK_FALSE,
              _sorted(false_guard)),
        Event(event_name(name, EventAction.UNMARK_TRUE), name, EventAction.UNMARK_TRUE,
              _sorted(base_down)),
        Event(event_name(name, EventAction.UNMARK_FALSE), name, EventAction.UNMARK_FALSE,
              _sorted(base_down)),
    ]


def _push_events(dfs, name):
    controls = sorted(dfs.controls_of(name))
    base_up = _register_up_guard(dfs, name)
    base_down = _register_down_guard(dfs, name)
    events = [
        Event(event_name(name, EventAction.MARK_TRUE), name, EventAction.MARK_TRUE,
              _sorted(base_up + [Literal("Mt", c, True) for c in controls])),
        Event(event_name(name, EventAction.UNMARK_TRUE), name, EventAction.UNMARK_TRUE,
              _sorted(base_down)),
    ]
    if controls:
        # A false-controlled push accepts the incoming token in order to
        # destroy it.  Because the token never propagates downstream, the
        # push does NOT wait for its R-postset to be empty (unlike the static
        # behaviour): in the circuit the bypassed datapath register is simply
        # not written.  Requiring an empty R-postset here would deadlock the
        # reconfigurable stage, where the bypassing pop of the same stage may
        # already hold its "empty" output token.
        false_up = [Literal("C", k, True) for k in sorted(dfs.logic_preset(name))]
        for q in sorted(dfs.r_preset(name)):
            false_up.append(Literal("M", q, True))
            if dfs.kind(q) is NodeType.PUSH:
                false_up.append(Literal("Mt", q, True))
        false_up += [Literal("Mf", c, True) for c in controls]
        # The destroyed token leaves as soon as the handshake with the
        # R-preset has completed, again without waiting for the R-postset.
        false_down = [Literal("C", k, False) for k in sorted(dfs.logic_preset(name))]
        false_down += [Literal("M", q, False) for q in sorted(dfs.r_preset(name))]
        events.append(
            Event(event_name(name, EventAction.MARK_FALSE), name, EventAction.MARK_FALSE,
                  _sorted(false_up))
        )
        events.append(
            Event(event_name(name, EventAction.UNMARK_FALSE), name,
                  EventAction.UNMARK_FALSE, _sorted(false_down))
        )
    return events


def _pop_events(dfs, name):
    controls = sorted(dfs.controls_of(name))
    base_up = _register_up_guard(dfs, name)
    base_down = _register_down_guard(dfs, name)
    events = [
        Event(event_name(name, EventAction.MARK_TRUE), name, EventAction.MARK_TRUE,
              _sorted(base_up + [Literal("Mt", c, True) for c in controls])),
        Event(event_name(name, EventAction.UNMARK_TRUE), name, EventAction.UNMARK_TRUE,
              _sorted(base_down)),
    ]
    if controls:
        # A false-controlled pop produces an "empty" token: it only needs its
        # controls to show False and the R-postset to be free.
        false_up = [Literal("Mf", c, True) for c in controls]
        false_up += [Literal("M", q, False) for q in sorted(dfs.r_postset(name))]
        # The empty token leaves once the R-postset has accepted it and the
        # control token has been released (one empty token per control token).
        false_down = [Literal("M", q, True) for q in sorted(dfs.r_postset(name))]
        false_down += [Literal("M", c, False) for c in controls]
        events.append(
            Event(event_name(name, EventAction.MARK_FALSE), name, EventAction.MARK_FALSE,
                  _sorted(false_up))
        )
        events.append(
            Event(event_name(name, EventAction.UNMARK_FALSE), name,
                  EventAction.UNMARK_FALSE, _sorted(false_down))
        )
    return events


def events_for_node(dfs, name):
    """Return the list of events of a single node."""
    kind = dfs.kind(name)
    if kind is NodeType.LOGIC:
        return _logic_events(dfs, name)
    if kind is NodeType.REGISTER:
        return _plain_register_events(dfs, name)
    if kind is NodeType.CONTROL:
        return _control_events(dfs, name)
    if kind is NodeType.PUSH:
        return _push_events(dfs, name)
    return _pop_events(dfs, name)


def model_events(dfs):
    """Return all events of the model as a ``{event name: Event}`` mapping."""
    events = {}
    for name in sorted(dfs.nodes):
        for event in events_for_node(dfs, name):
            events[event.name] = event
    return events
