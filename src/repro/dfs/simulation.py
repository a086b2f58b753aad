"""Token-game simulation of DFS models.

This is the programmatic counterpart of the interactive simulation offered by
the Workcraft plugin: the user (or a test) can inspect the enabled events,
fire them one at a time, run random walks, or drive control decisions through
a *choice policy* that resolves the non-deterministic True/False outcome of
uncontrolled control registers (e.g. modelling the data-dependent result of
the ``cond`` predicate of the motivating example).
"""

import random

from repro.exceptions import SimulationError
from repro.dfs.semantics import EventAction, marking_event_names, model_events
from repro.dfs.state import DfsState


class DfsSimulator:
    """A stateful token-game simulator for a dataflow structure."""

    def __init__(self, dfs, choice_policy=None):
        """Create a simulator.

        Parameters
        ----------
        dfs:
            The :class:`~repro.dfs.model.DataflowStructure` to simulate.
        choice_policy:
            Optional callable ``policy(control_name, step_index) -> bool``
            used to resolve the True/False choice of control registers that
            have no upstream control register.  When provided, the event of
            the non-chosen value is filtered out of the enabled set.
        """
        self.dfs = dfs
        self.events = model_events(dfs)
        self.choice_policy = choice_policy
        self.state = DfsState(dfs)
        self.trace = []
        self._step_index = 0

    # -- state -------------------------------------------------------------------

    def reset(self):
        """Return to the initial state and clear the trace."""
        self.state = DfsState(self.dfs)
        self.trace = []
        self._step_index = 0

    # -- event selection -----------------------------------------------------------

    def enabled_events(self):
        """Return the sorted list of enabled event names."""
        names = [
            name for name, event in self.events.items() if self.state.is_enabled(event)
        ]
        if self.choice_policy is not None:
            names = [name for name in names if not self._vetoed_by_policy(name)]
        return sorted(names)

    def _vetoed_by_policy(self, event_name):
        event = self.events[event_name]
        if event.action not in (EventAction.MARK_TRUE, EventAction.MARK_FALSE):
            return False
        node = self.dfs.node(event.node)
        if not node.is_dynamic or self.dfs.controls_of(event.node):
            return False
        wanted = bool(self.choice_policy(event.node, self._step_index))
        return (event.action is EventAction.MARK_TRUE) != wanted

    def is_enabled(self, event_name):
        event = self._event(event_name)
        return self.state.is_enabled(event)

    def _event(self, event_name):
        try:
            return self.events[event_name]
        except KeyError:
            raise SimulationError("unknown event: {!r}".format(event_name))

    # -- firing ----------------------------------------------------------------------

    def fire(self, event_name):
        """Fire a single event by name and return the new state."""
        event = self._event(event_name)
        if not self.state.is_enabled(event):
            raise SimulationError("event {!r} is not enabled".format(event_name))
        self.state.apply(event)
        self.trace.append(event_name)
        self._step_index += 1
        return self.state

    def fire_sequence(self, event_names):
        """Fire a list of events in order, failing fast on a disabled one."""
        for event_name in event_names:
            self.fire(event_name)
        return self.state

    def is_deadlocked(self):
        """Return ``True`` when no event is enabled."""
        return not self.enabled_events()

    def step_random(self, rng):
        """Fire one random enabled event; return its name or ``None`` on deadlock."""
        enabled = self.enabled_events()
        if not enabled:
            return None
        choice = rng.choice(enabled)
        self.fire(choice)
        return choice

    def run_random(self, steps, seed=None, stop_on_deadlock=True):
        """Run up to *steps* random firings; return the list of fired events."""
        rng = random.Random(seed)
        fired = []
        for _ in range(steps):
            name = self.step_random(rng)
            if name is None:
                if stop_on_deadlock:
                    break
                raise SimulationError("deadlock reached during random simulation")
            fired.append(name)
        return fired

    # -- derived metrics -----------------------------------------------------------------

    def tokens_produced(self, register_name):
        """How many tokens have passed through *register_name* so far.

        Counted as the number of marking events of the register in the trace
        (both True and False marking for dynamic registers).
        """
        marking_events = marking_event_names(register_name)
        return sum(1 for name in self.trace if name in marking_events)
