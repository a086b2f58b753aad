"""Structural validation of DFS models.

These are the quick, purely structural checks performed before the (more
expensive) behavioural verification: combinational cycles, dangling logic,
uncontrolled dynamic registers, too-short control loops, and mixed-value
control sets that would disable a node from the very start.
"""

from enum import Enum

from repro.utils.graphs import enumerate_simple_cycles


class Severity(Enum):
    """Severity of a validation issue."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


class Issue:
    """A single validation finding."""

    def __init__(self, severity, message, nodes=()):
        self.severity = severity
        self.message = message
        self.nodes = tuple(nodes)

    @property
    def is_error(self):
        return self.severity is Severity.ERROR

    def __repr__(self):
        return "Issue({}, {!r}, nodes={})".format(
            self.severity.value, self.message, list(self.nodes)
        )


def _logic_only_cycles(dfs):
    """Cycles made entirely of logic nodes (combinational feedback)."""
    logic = set(dfs.logic_nodes)
    edges = [(s, t) for s, t in dfs.edges if s in logic and t in logic]
    return enumerate_simple_cycles(edges, nodes=dfs.logic_nodes)


def _control_loops(dfs):
    """Cycles made entirely of control registers (token oscillation loops)."""
    controls = set(dfs.control_registers)
    edges = [(s, t) for s, t in dfs.edges if s in controls and t in controls]
    return enumerate_simple_cycles(edges, nodes=dfs.control_registers)


def validate_structure(dfs):
    """Run all structural checks and return a list of :class:`Issue` objects."""
    issues = []

    # Combinational feedback: a cycle of logic nodes has no register to break it.
    for cycle in _logic_only_cycles(dfs):
        issues.append(Issue(
            Severity.ERROR,
            "combinational cycle through logic nodes: {}".format(" -> ".join(cycle)),
            nodes=cycle,
        ))

    # Logic nodes must sit between registers: dangling logic can never settle.
    for name in dfs.logic_nodes:
        if not dfs.preset(name):
            issues.append(Issue(
                Severity.ERROR,
                "logic node {!r} has no preset (it can never evaluate meaningfully)".format(name),
                nodes=[name],
            ))
        if not dfs.postset(name):
            issues.append(Issue(
                Severity.WARNING,
                "logic node {!r} has no postset (its result is unused)".format(name),
                nodes=[name],
            ))

    # Dynamic registers without a controlling register act as plain registers.
    for name in dfs.push_registers + dfs.pop_registers:
        if not dfs.controls_of(name):
            issues.append(Issue(
                Severity.WARNING,
                "{} register {!r} has no control register in its R-preset; "
                "it will behave as a static register".format(dfs.kind(name).value, name),
                nodes=[name],
            ))

    # Control loops shorter than 3 registers cannot oscillate a token.
    for loop in _control_loops(dfs):
        if len(loop) in (1, 2):
            issues.append(Issue(
                Severity.ERROR,
                "control loop {} has fewer than 3 registers; a token cannot "
                "oscillate in it".format(" -> ".join(loop)),
                nodes=loop,
            ))

    # Mixed initial values among the controls of one node disable it permanently.
    for name in dfs.push_registers + dfs.pop_registers + dfs.control_registers:
        values = set()
        for control in dfs.controls_of(name):
            node = dfs.node(control)
            if node.marked and node.initial_value is not None:
                values.add(node.initial_value)
        if len(values) > 1:
            issues.append(Issue(
                Severity.ERROR,
                "node {!r} is guarded by control registers initialised with "
                "both True and False tokens; it is disabled from the start".format(name),
                nodes=[name],
            ))

    # Isolated nodes are almost certainly a modelling mistake.
    for name in sorted(dfs.nodes):
        if not dfs.preset(name) and not dfs.postset(name):
            issues.append(Issue(
                Severity.WARNING,
                "node {!r} is isolated (no incident edges)".format(name),
                nodes=[name],
            ))

    # A model without any register cannot hold tokens at all.
    if not dfs.register_nodes:
        issues.append(Issue(
            Severity.ERROR,
            "the model contains no register nodes",
        ))

    return issues


def has_errors(issues):
    """Return ``True`` when the issue list contains at least one error."""
    return any(issue.is_error for issue in issues)
