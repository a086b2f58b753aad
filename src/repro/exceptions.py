"""Exception hierarchy shared by all repro subpackages."""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ModelError(ReproError):
    """A structural problem in a model (duplicate names, dangling edges...)."""


class SimulationError(ReproError):
    """An error raised during simulation (no enabled events, bad input...)."""


class VerificationError(ReproError):
    """An error raised by the verification engine."""


class CompilationError(ReproError):
    """A Petri net cannot be compiled to the bitmask reachability engine."""


class SafenessOverflowError(CompilationError):
    """A firing produced a second token into a place of a compiled net.

    The compiled engine represents 1-safe markings only, so an overflow
    is the net's 1-safeness violation.  *trace*, when the explorer knows
    it, is the firing sequence from the initial marking that ends with
    the overflowing *transition*; the checker context turns it into the
    exhaustive 1-safeness verdict.  *states*, when an explorer raised it,
    is the number of states it had admitted by then.
    """

    def __init__(self, transition, place, trace=None, states=None):
        self.transition = transition
        self.place = place
        self.trace = trace
        self.states = states
        super().__init__(
            "firing {!r} produces a second token into place {!r}; "
            "the net is not 1-safe".format(transition, place)
        )


class TranslationError(ReproError):
    """An error raised while translating between formalisms."""


class SerializationError(ReproError):
    """An error raised while reading or writing model files."""


class ReachSyntaxError(ReproError):
    """A syntax error in a Reach property expression."""


class ReachEvaluationError(ReproError):
    """A semantic error while evaluating a Reach property expression."""


class MappingError(ReproError):
    """An error raised by the DFS-to-circuit technology mapping."""


class CircuitError(ReproError):
    """An error raised by the circuit netlist or its simulation."""


class ConfigurationError(ReproError):
    """An invalid pipeline or chip configuration."""


class MeasurementError(ReproError):
    """An error raised by the silicon measurement harness."""
