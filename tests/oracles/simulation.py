"""Interactive and random token-game simulation of Petri nets.

The simulator mirrors the token-game simulation available in Workcraft: it
keeps the current marking, a full firing history with undo, and can run
random walks.  The library never simulates a net this way; the tests use
it as an independent check that DFS event sequences are firing sequences
of the translated net.
"""

import random

from repro.exceptions import SimulationError
from repro.petri.marking import Marking


class PetriSimulator:
    """A stateful token-game simulator for a :class:`~repro.petri.net.PetriNet`."""

    def __init__(self, net, marking=None):
        self.net = net
        self._initial = (
            marking if isinstance(marking, Marking)
            else Marking(marking) if marking is not None
            else net.initial_marking()
        )
        self._marking = self._initial
        self._history = []

    # -- state ---------------------------------------------------------------

    @property
    def marking(self):
        """The current marking."""
        return self._marking

    @property
    def trace(self):
        """The list of transitions fired so far."""
        return [name for name, _ in self._history]

    def reset(self):
        """Return to the initial marking and clear the history."""
        self._marking = self._initial
        self._history = []

    # -- stepping ------------------------------------------------------------

    def enabled(self):
        """Return the sorted list of currently enabled transitions."""
        return self.net.enabled_transitions(self._marking)

    def can_fire(self, transition):
        return self.net.is_enabled(transition, self._marking)

    def fire(self, transition):
        """Fire one transition and return the new marking."""
        if not self.can_fire(transition):
            raise SimulationError(
                "transition {!r} is not enabled at the current marking".format(transition)
            )
        previous = self._marking
        self._marking = self.net.fire(transition, previous)
        self._history.append((transition, previous))
        return self._marking

    def fire_sequence(self, transitions):
        """Fire a sequence of transitions, failing fast on the first disabled one."""
        for transition in transitions:
            self.fire(transition)
        return self._marking

    def undo(self):
        """Undo the last firing; raise :class:`SimulationError` if there is none."""
        if not self._history:
            raise SimulationError("nothing to undo")
        transition, previous = self._history.pop()
        self._marking = previous
        return transition

    def is_deadlocked(self):
        """Return ``True`` when no transition is enabled."""
        return not self.enabled()

    def run_random(self, steps, seed=None, stop_on_deadlock=True):
        """Perform up to *steps* random firings; return the list of fired transitions."""
        rng = random.Random(seed)
        fired = []
        for _ in range(steps):
            enabled = self.enabled()
            if not enabled:
                if stop_on_deadlock:
                    break
                raise SimulationError("deadlock reached during random simulation")
            choice = rng.choice(enabled)
            self.fire(choice)
            fired.append(choice)
        return fired


def random_trace(net, steps, seed=None, marking=None):
    """Convenience wrapper: run a random walk and return ``(trace, final_marking)``."""
    simulator = PetriSimulator(net, marking=marking)
    trace = simulator.run_random(steps, seed=seed)
    return trace, simulator.marking
