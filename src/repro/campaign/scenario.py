"""Declarative scenario grids: the cartesian product a campaign verifies.

A :class:`ScenarioSpec` names the axes of the paper's E5 evaluation --
pipeline depth, static-prefix split, injected configuration holes, LFSR
stimulus seeds and supply-voltage operating points -- and
:func:`generate_scenarios` expands it into concrete, picklable
:class:`~repro.campaign.jobs.VerificationJob` objects.  Combinations that
cannot exist (a hole with no included stage behind it, a prefix wider than
the pipeline) are skipped and reported, not silently dropped.
"""

from repro.campaign.jobs import DEFAULT_PROPERTIES, VerificationJob


class ScenarioSpec:
    """The axes and job options of a verification campaign."""

    def __init__(self, depths=(2, 3), static_prefixes=(1,), holes=(0,),
                 lfsr_seeds=(None,), voltages=(None,), family="pipeline",
                 properties=DEFAULT_PROPERTIES, max_states=200000,
                 max_witnesses=2, checker="exhaustive", checker_options=None,
                 custom_properties=None, simulate_steps=0, f_delay=1.0,
                 g_delay=1.0):
        self.depths = tuple(sorted(set(int(depth) for depth in depths)))
        self.static_prefixes = tuple(sorted(set(int(p) for p in static_prefixes)))
        self.holes = tuple(sorted(set(int(count) for count in holes)))
        self.lfsr_seeds = tuple(dict.fromkeys(lfsr_seeds))
        self.voltages = tuple(dict.fromkeys(voltages))
        self.family = family
        self.properties = tuple(properties)
        self.max_states = int(max_states)
        self.max_witnesses = int(max_witnesses)
        self.checker = str(checker)
        self.checker_options = dict(checker_options or {})
        self.custom_properties = dict(custom_properties or {})
        self.simulate_steps = int(simulate_steps)
        self.f_delay = float(f_delay)
        self.g_delay = float(g_delay)

    def axes(self):
        """The grid axes as a JSON-able mapping (for reports)."""
        return {
            "family": self.family,
            "depths": list(self.depths),
            "static_prefixes": list(self.static_prefixes),
            "holes": list(self.holes),
            "lfsr_seeds": list(self.lfsr_seeds),
            "voltages": list(self.voltages),
            "checker": self.checker,
        }

    def grid_size(self):
        """Number of raw grid points (before validity filtering)."""
        return (len(self.depths) * len(self.static_prefixes) * len(self.holes)
                * len(self.lfsr_seeds) * len(self.voltages))

    def __repr__(self):
        return "ScenarioSpec(family={!r}, grid={})".format(self.family, self.grid_size())


def _axis_token(prefix, value):
    if value is None:
        return ""
    if isinstance(value, float):
        return "-{}{:g}".format(prefix, value)
    return "-{}{}".format(prefix, value)


def _scenario_id(family, depth, prefix, hole_count, lfsr_seed, voltage):
    parts = ["{}-d{}".format(family, depth)]
    if family == "pipeline":
        parts.append("-p{}".format(prefix))
        parts.append("-h{}".format(hole_count))
    parts.append(_axis_token("l", lfsr_seed))
    parts.append(_axis_token("v", voltage))
    return "".join(parts)


def enumerate_grid(spec):
    """Yield ``(axes_dict, reason)`` for every raw grid point.

    *reason* is ``None`` for a buildable scenario and a human-readable
    explanation for a grid point that is skipped as structurally invalid.
    """
    for depth in spec.depths:
        for prefix in spec.static_prefixes:
            for hole_count in spec.holes:
                for lfsr_seed in spec.lfsr_seeds:
                    for voltage in spec.voltages:
                        axes = {"depth": depth, "prefix": prefix,
                                "holes": hole_count, "lfsr_seed": lfsr_seed,
                                "voltage": voltage}
                        yield axes, _invalid_reason(spec, axes)


def _invalid_reason(spec, axes):
    depth, prefix, hole_count = axes["depth"], axes["prefix"], axes["holes"]
    if depth < 1:
        return "a pipeline needs at least one stage"
    if hole_count < 0:
        return "hole counts cannot be negative"
    if prefix < 0:
        return "the static prefix cannot be negative"
    if spec.family == "ring" and depth < 2:
        return "a token ring needs at least two registers"
    if spec.family != "pipeline":
        if prefix != spec.static_prefixes[0]:
            return "the static-prefix axis only applies to the pipeline family"
        if hole_count != 0:
            return "configuration holes only apply to the pipeline family"
        return None
    if prefix > depth:
        return "static prefix {} exceeds the {}-stage pipeline".format(prefix, depth)
    if hole_count > 0 and prefix + hole_count >= depth:
        return ("{} hole(s) after a {}-stage prefix leave no included stage "
                "behind the hole in a {}-stage pipeline".format(
                    hole_count, prefix, depth))
    return None


def _job_kwargs(spec, axes):
    depth = axes["depth"]
    if spec.family == "pipeline":
        prefix, hole_count = axes["prefix"], axes["holes"]
        return {
            "stages": depth,
            "static_prefix": prefix,
            "holes": list(range(prefix + 1, prefix + 1 + hole_count)),
            "f_delay": spec.f_delay,
            "g_delay": spec.g_delay,
        }
    if spec.family == "conditional":
        return {"comp_stages": depth}
    if spec.family == "linear":
        return {"stages": depth}
    if spec.family == "ring":
        return {"registers": depth}


def _expectation(spec, hole_count):
    """Predict a scenario's outcome, given the properties actually checked.

    A hole configuration is only *expected* to be caught when the deadlock
    check is part of the sweep; with a reduced property set the scenario
    carries no prediction (``None``) instead of a guaranteed mismatch.
    """
    if hole_count == 0:
        return "pass"
    if "deadlock" in spec.properties:
        return "deadlock"
    return None


def generate_scenarios(spec):
    """Expand *spec* into jobs; return ``(jobs, skipped)``.

    *jobs* is the list of :class:`VerificationJob` objects covering every
    valid grid point; *skipped* is a list of ``{"axes": ..., "reason": ...}``
    records for the invalid points.
    """
    jobs, skipped = [], []
    for axes, reason in enumerate_grid(spec):
        if reason is not None:
            skipped.append({"axes": dict(axes), "reason": reason})
            continue
        hole_count = axes["holes"] if spec.family == "pipeline" else 0
        job = VerificationJob(
            job_id=_scenario_id(spec.family, axes["depth"], axes["prefix"],
                                hole_count, axes["lfsr_seed"], axes["voltage"]),
            factory=spec.family,
            kwargs=_job_kwargs(spec, axes),
            properties=spec.properties,
            max_states=spec.max_states,
            max_witnesses=spec.max_witnesses,
            checker=spec.checker,
            checker_options=spec.checker_options,
            custom_properties=spec.custom_properties,
            lfsr_seed=axes["lfsr_seed"],
            simulate_steps=spec.simulate_steps,
            voltage=axes["voltage"],
            expect=_expectation(spec, hole_count),
            metadata={"axes": dict(axes)},
        )
        jobs.append(job)
    return jobs, skipped
