"""Result objects returned by the verification engine."""


class VerificationResult:
    """Outcome of a single property check on a DFS model.

    Attributes
    ----------
    property_name:
        Human-readable name of the property ("deadlock freedom", ...).
    holds:
        ``True`` when the property holds, ``False`` when violated, ``None``
        when the check was inconclusive (truncated state space).
    witnesses:
        List of counterexample dictionaries.  Each has a ``marking``
        (Petri-net marking), usually a ``trace`` (firing sequence from the
        initial state) and a ``dfs_state`` (the marking summarised in DFS
        terms: which registers are marked and with what token values).
    details:
        Free-form explanation.
    method:
        Name of the checker that produced the verdict (``"exhaustive"``,
        ``"inductive"``, ``"walk"``, ``"portfolio"``), or ``None`` for
        results that never went through a checker (e.g. trivially-true
        properties).
    """

    def __init__(self, property_name, holds, witnesses=None, details="",
                 method=None):
        self.property_name = property_name
        self.holds = holds
        self.witnesses = witnesses or []
        self.details = details
        self.method = method

    def __bool__(self):
        return bool(self.holds)

    @property
    def violated(self):
        return self.holds is False

    @property
    def inconclusive(self):
        return self.holds is None

    def first_trace(self):
        """Return the trace of the first witness, or ``None``."""
        for witness in self.witnesses:
            if "trace" in witness:
                return witness["trace"]
        return None

    def __repr__(self):
        status = {True: "holds", False: "VIOLATED", None: "inconclusive"}[self.holds]
        return "VerificationResult({!r}, {}, witnesses={})".format(
            self.property_name, status, len(self.witnesses)
        )


class VerificationSummary:
    """Aggregated outcome of a batch of property checks."""

    def __init__(self, model_name, results=None, state_count=0, truncated=False,
                 exploration=None, state_space=True):
        self.model_name = model_name
        self.results = list(results or [])
        self.state_count = state_count
        self.truncated = truncated
        #: ``False`` when no checker built a state space (``state_count``
        #: is then 0 and the report header says so).
        self.state_space = state_space
        #: Structured exploration stats of the state-space build (engine,
        #: levels, per-phase seconds) when a
        #: columnar engine produced the graph; ``None`` otherwise.
        self.exploration = exploration

    def add(self, result):
        self.results.append(result)
        return result

    @property
    def passed(self):
        """True when every checked property holds (no violations, no unknowns)."""
        return all(result.holds is True for result in self.results)

    @property
    def violations(self):
        return [result for result in self.results if result.violated]

    @property
    def inconclusive(self):
        return [result for result in self.results if result.inconclusive]

    def result(self, property_name):
        """Find a result by property name (``None`` when absent)."""
        for result in self.results:
            if result.property_name == property_name:
                return result
        return None

    def report(self):
        """Return a human-readable multi-line report."""
        if self.state_space:
            scope = "{} reachable states{}".format(
                self.state_count, ", truncated" if self.truncated else "")
        else:
            scope = "no state space built"
        lines = ["Verification of {!r} ({})".format(self.model_name, scope)]
        for result in self.results:
            status = {True: "OK  ", False: "FAIL", None: "?   "}[result.holds]
            method = " [{}]".format(result.method) if result.method else ""
            lines.append("  [{}] {}{} -- {}".format(
                status, result.property_name, method, result.details))
            for witness in result.witnesses[:2]:
                dfs_state = witness.get("dfs_state")
                if dfs_state is not None:
                    lines.append("         counterexample: {}".format(dfs_state))
        return "\n".join(lines)

    def __repr__(self):
        return "VerificationSummary({!r}, passed={}, results={})".format(
            self.model_name, self.passed, len(self.results)
        )
