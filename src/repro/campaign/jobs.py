"""Picklable verification jobs: the unit of work of a campaign.

A :class:`VerificationJob` does **not** hold a live model.  It holds the
name of a built-in model family (a key of the closed :data:`FACTORIES`
table, so a job never names code to run) plus plain-data keyword arguments:
the job can be pickled to a worker process, hashed into a cache key, and
replayed deterministically.  The worker builds the DFS model, translates it
once, and drives :meth:`repro.verification.verifier.Verifier.verify_properties`
over the requested property set.

The verdict returned by :meth:`VerificationJob.run` is a plain JSON-able
dict (markings and traces flattened to lists/strings), which is what allows
the disk cache to hand back bit-identical results on warm runs.
"""

import functools
import json
import time

from repro.campaign.cache import ResultCache, net_fingerprint, options_digest
from repro.chip.lfsr import Lfsr
from repro.dfs.examples import conditional_comp_dfs, linear_pipeline, token_ring
from repro.dfs.simulation import DfsSimulator
from repro.dfs.translation import to_petri_net
from repro.exceptions import ConfigurationError
from repro.pipelines.control import set_loop_value
from repro.pipelines.generic import build_generic_pipeline
from repro.silicon.voltage import VoltageModel
from repro.verification.checkers import CHECKERS, check_checker_options
from repro.verification.verifier import (
    Verifier,
    check_max_witnesses,
    check_properties,
)

#: The default property battery of a campaign job.  Persistence is the
#: slowest check and is opt-in, mirroring ``verify_all(include_persistence=False)``.
DEFAULT_PROPERTIES = ("safeness", "deadlock", "mismatch", "exclusion")


def build_pipeline_model(stages, static_prefix=1, holes=(), f_delay=1.0, g_delay=1.0,
                         name=None):
    """Build a generic OPE pipeline DFS, mis-initialising the *holes* stages.

    *holes* is an iterable of 1-based stage indices whose control loops are
    re-initialised with False tokens while later stages stay included -- the
    non-contiguous configurations whose deadlocks the paper reports catching
    by verification (Section III-A).
    """
    if name is None:
        name = "ope{}s_p{}{}".format(
            stages, static_prefix,
            "_hole" + "-".join(str(index) for index in holes) if holes else "")
    pipeline = build_generic_pipeline(
        stages, static_prefix_stages=static_prefix, name=name,
        f_delay=f_delay, g_delay=g_delay)
    for index in holes:
        stage = pipeline.stage(index)
        if not stage.reconfigurable:
            raise ConfigurationError(
                "cannot punch a hole at static stage {} of {!r}".format(index, name))
        for loop in stage.control_loops:
            set_loop_value(pipeline.dfs, loop, False)
    return pipeline.dfs


#: The model families a job can name: the paper's OPE pipeline and the
#: three built-in examples.
FACTORIES = {
    "pipeline": build_pipeline_model,
    "conditional": conditional_comp_dfs,
    "linear": linear_pipeline,
    "ring": token_ring,
}


def resolve_factory(name):
    """The model factory of the built-in family *name*."""
    try:
        return FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            "unknown model factory {!r} (known: {})".format(
                name, ", ".join(sorted(FACTORIES))))


@functools.lru_cache(maxsize=None)
def _signature(function):
    """*function*'s signature, inspected once: replay checks every record."""
    import inspect  # not at start-up: the CLI imports this module
    return inspect.signature(function)


def _field(name, convert, value):
    """``convert(value)``, or a :class:`ConfigurationError` naming *name*."""
    try:
        return convert(value)
    except (TypeError, ValueError, AttributeError, OverflowError):
        raise ConfigurationError(
            "malformed job field {}: {!r}".format(name, value))


class VerificationJob:
    """A self-contained, picklable description of one verification run.

    Attributes are plain data only (strings, numbers, tuples, dicts), so a
    job can cross a process boundary, be replayed later, and contribute to a
    deterministic cache key.
    """

    def __init__(self, job_id, factory, kwargs=None, properties=DEFAULT_PROPERTIES,
                 max_states=200000, max_witnesses=2,
                 checker="exhaustive", checker_options=None,
                 custom_properties=None, lfsr_seed=None, simulate_steps=0,
                 voltage=None, expect="pass", metadata=None):
        self.job_id = str(job_id)
        self.factory = str(factory)
        self.kwargs = _field("kwargs", dict, kwargs or {})
        self.properties = _field(
            "properties", lambda names: tuple(str(name) for name in names),
            properties)
        self.max_states = _field("max_states", int, max_states)
        self.max_witnesses = _field("max_witnesses", int, max_witnesses)
        self.checker = str(checker)
        self.checker_options = _field("checker_options", dict,
                                      checker_options or {})
        self.custom_properties = _field(
            "custom_properties", lambda mapping: {
                name: str(text) for name, text in mapping.items()},
            custom_properties or {})
        self.lfsr_seed = lfsr_seed
        self.simulate_steps = _field("simulate_steps", int, simulate_steps)
        self.voltage = voltage
        self.expect = expect
        self.metadata = _field("metadata", dict, metadata or {})
        # The one check of the whole job, where it is built: a job that could
        # only fail in a worker is a 400 at the daemon, a skipped replay record.
        try:
            _signature(resolve_factory(self.factory)).bind(**self.kwargs)
        except TypeError as error:
            raise ConfigurationError(
                "kwargs do not fit the {} family: {}".format(
                    self.factory, error))
        if self.checker not in CHECKERS:
            raise ConfigurationError(
                "unknown checker {!r} (known: {})".format(
                    self.checker, ", ".join(sorted(CHECKERS))))
        if self.expect not in (None, "pass", "fail", "deadlock"):
            raise ConfigurationError("unknown expectation {!r} (known: pass, "
                                     "fail, deadlock, null)".format(self.expect))
        for name, kinds in (("lfsr_seed", int), ("voltage", (int, float))):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, kinds)):
                raise ConfigurationError(
                    "malformed job field {}: {!r}".format(name, value))
        check_max_witnesses(self.max_witnesses)
        check_checker_options(self.checker_options)
        # An unknown property, or a custom name that shadows a built-in
        # check, is refused here too.
        check_properties(self.properties, self.custom_properties)

    # -- identity ------------------------------------------------------------

    def options(self):
        """The verdict-relevant options, as a JSON-able mapping.

        The checker choice (and its tuning options) is part of the mapping:
        verdicts produced by different checkers hash to different cache
        keys, so a cached inconclusive exhaustive verdict can never shadow a
        conclusive inductive one, and vice versa.  Custom properties are
        digested as their expressions, not just their names, so reusing a
        name for a different expression can never be answered from a stale
        cached verdict.

        Walk-driven jobs carry ``"walk_backend": "batch"``: the key once
        named the walk engine when there were two, and the swarm is the one
        left, so the constant keeps existing cache keys valid (the swarm
        width rides in ``checker_options`` when tuned).  ``"engine": "auto"`` is the same
        kind of constant: the key once named a user-chosen reachability
        engine, and the net now picks it.
        """
        options = {
            "properties": list(self.properties),
            "engine": "auto",
            "max_states": self.max_states,
            "max_witnesses": self.max_witnesses,
            "checker": self.checker,
            "checker_options": self.checker_options,
            "custom_properties": self.custom_properties,
            "lfsr_seed": self.lfsr_seed,
            "simulate_steps": self.simulate_steps,
            "voltage": self.voltage,
        }
        if self.checker in ("walk", "portfolio"):
            options["walk_backend"] = "batch"
        return options

    def to_dict(self):
        """Describe the job itself (not its outcome) as a JSON-able dict."""
        description = {"job_id": self.job_id, "factory": self.factory,
                       "kwargs": dict(self.kwargs), "expect": self.expect}
        description.update(self.options())
        if self.metadata:
            description["metadata"] = dict(self.metadata)
        return description

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a job from its :meth:`to_dict` wire form.

        This is the deserialisation half of the wire protocol: a service
        client posts ``job.to_dict()`` as JSON and the daemon reconstructs
        the job here.  Unknown keys are rejected loudly (a typoed option
        silently ignored would verify something other than what the client
        asked for).
        """
        payload = dict(payload)
        # The walk-engine constant is derived locally (see :meth:`options`),
        # never trusted from the wire.
        payload.pop("walk_backend", None)
        # Journals and clients from before the solver tier was retired
        # carry a "solver" fingerprint in every portfolio job; it no longer
        # keys anything and is dropped.
        payload.pop("solver", None)
        # Older clients and journals may still carry the retired per-job
        # spill directory and budget; they are dropped.
        payload.pop("spill_dir", None)
        payload.pop("spill_bytes", None)
        # The reachability-engine constant rides in every description (and
        # every journal written before the net picked the engine); any other
        # value asks for an engine choice that no longer exists.
        engine = payload.pop("engine", "auto")
        if engine != "auto":
            raise ConfigurationError(
                "unknown reachability engine {!r} (known: auto)".format(engine))
        try:
            job_id = payload.pop("job_id")
            factory = payload.pop("factory")
        except KeyError as missing:
            raise ConfigurationError(
                "a job description needs a {} field".format(missing))
        allowed = set(_signature(cls).parameters) - {"job_id", "factory"}
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise ConfigurationError(
                "unknown job field(s): {} (known: {})".format(
                    ", ".join(unknown), ", ".join(sorted(allowed))))
        return cls(job_id, factory, **payload)

    # -- execution -----------------------------------------------------------

    def build_model(self):
        """Build the DFS model of the job's family."""
        return resolve_factory(self.factory)(**self.kwargs)

    def run(self, cache=None, progress=None):
        """Build, verify (or answer from *cache*) and return a result dict.

        The returned dict has a deterministic ``"verdict"`` (the part the
        cache stores) plus per-run bookkeeping (``"cache"`` status,
        ``"elapsed"`` seconds, and -- on cache misses with a columnar
        engine -- the ``"exploration"`` stats of the state-space build;
        timings are run facts, not verdict facts, so they never enter the
        cache).  *cache* is a
        :class:`~repro.campaign.cache.ResultCache`, a cache directory path,
        or ``None`` to disable caching.  *progress* is forwarded to
        :meth:`~repro.verification.verifier.Verifier.verify_properties` on
        cache misses (warm runs never re-verify, so they emit no
        per-property events).
        """
        started = time.perf_counter()
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        dfs = self.build_model()
        net = to_petri_net(dfs)
        fingerprint = net_fingerprint(net)
        cache_status, key = "off", None
        verdict = None
        exploration = None
        if cache is not None:
            key = cache.key(fingerprint, options_digest(self.options()))
            verdict = cache.get(key)
            cache_status = "hit" if verdict is not None else "miss"
        if verdict is None:
            verdict, exploration = self._compute_verdict(
                dfs, net, progress=progress)
            # A round-trip through JSON makes the cold verdict bit-identical
            # to what a warm run will read back from disk.
            verdict = json.loads(json.dumps(verdict, sort_keys=True))
            if cache is not None:
                cache.put(key, verdict)
        result = self.result_record(dfs.name, fingerprint, cache_status,
                                    time.perf_counter() - started, verdict)
        if exploration is not None:
            result["exploration"] = exploration
        return result

    def result_record(self, model, fingerprint, cache, elapsed, verdict):
        """The result of :meth:`run`; also the scheduler's warm and coalesced answer."""
        return {
            "job_id": self.job_id,
            "model": model,
            "factory": self.factory,
            "fingerprint": fingerprint,
            "expect": self.expect,
            "cache": cache,
            "elapsed": elapsed,
            "verdict": verdict,
        }

    def effective_checker_options(self):
        """Checker options with the scenario's LFSR seed threaded in.

        The ``lfsr_seeds`` campaign axis sweeps stimulus: it seeds the
        token-game smoke *and* the random-walk checker (the Verifier routes
        top-level ``"walk"`` options to the walk checker whether it runs
        standalone or as a portfolio member), so each seed genuinely
        explores different paths.  Explicitly configured seeds win over the
        axis value.
        """
        options = {name: dict(value) for name, value in self.checker_options.items()}
        if self.lfsr_seed is not None and self.checker in ("walk", "portfolio"):
            options.setdefault("walk", {}).setdefault("seed", self.lfsr_seed)
        return options

    def _compute_verdict(self, dfs, net, progress=None):
        """Return ``(verdict, exploration)``.

        The verdict is the deterministic, cacheable half; the exploration
        stats (per-phase seconds) vary run to run and are
        returned separately so they can ride the result payload without
        polluting the cache.
        """
        verifier = Verifier(dfs, max_states=self.max_states, net=net,
                            checker=self.checker,
                            checker_options=self.effective_checker_options())
        summary = verifier.verify_properties(
            self.properties, max_witnesses=self.max_witnesses,
            custom=self.custom_properties or None, progress=progress)
        verdict = {
            "state_count": summary.state_count,
            "truncated": summary.truncated,
            "passed": summary.passed,
            "checker": self.checker,
            "properties": [self._property_record(key, result) for key, result
                           in zip(self.properties, summary.results)],
        }
        simulation = self._simulate(dfs)
        if simulation is not None:
            verdict["simulation"] = simulation
        if self.voltage is not None:
            verdict["voltage"] = self._voltage_record()
        return verdict, summary.exploration

    @staticmethod
    def _property_record(key, result):
        record = {
            "property": key,
            "name": result.property_name,
            "holds": result.holds,
            "details": result.details,
            "method": result.method,
            "witnesses": len(result.witnesses),
        }
        trace = result.first_trace()
        if trace is not None:
            record["trace"] = list(trace)
        for witness in result.witnesses[:1]:
            dfs_state = witness.get("dfs_state")
            if dfs_state is not None:
                record["dfs_state"] = dfs_state
        return record

    def _simulate(self, dfs):
        """Run the LFSR-seeded random token-game smoke, if requested."""
        if self.simulate_steps <= 0:
            return None
        seed = self.lfsr_seed if self.lfsr_seed is not None else 0xACE1
        stimulus = Lfsr(seed=seed).next()
        simulator = DfsSimulator(dfs)
        fired = simulator.run_random(self.simulate_steps, seed=stimulus)
        return {
            "lfsr_seed": seed,
            "stimulus": stimulus,
            "steps": self.simulate_steps,
            "fired": len(fired),
            "deadlocked": simulator.is_deadlocked(),
        }

    def _voltage_record(self):
        """Annotate the scenario with the supply-voltage operating point."""
        model = VoltageModel()
        operational = model.is_operational(self.voltage)
        record = {"voltage": self.voltage, "operational": operational}
        if operational:
            record["delay_scale"] = model.delay_scale(self.voltage)
        return record

    def __repr__(self):
        return "VerificationJob({!r}, factory={!r}, expect={!r})".format(
            self.job_id, self.factory, self.expect)
