"""Deterministic fault injection for the crash-recovery test tier.

Faults are declared in the ``REPRO_FAULTS`` environment variable as a
comma-separated list of specs::

    REPRO_FAULTS=kill_worker@level=3,solver_crash:p=0.5,io_error@write=7

Each spec names a fault site that the production code guards with
:func:`trigger`; a spec fires either

* on the *n*-th hit of a named counter -- ``kill_worker@level=3`` fires the
  third time exploration reaches a ``level`` fault point, or
* probabilistically -- ``solver_crash:p=0.5`` fires on roughly half the
  hits, decided by a hash of ``(seed, name, site, hit count)`` so a given
  ``REPRO_FAULTS_SEED`` reproduces the exact same fault schedule.

The environment is read once per process (workers inherit it through
``fork``/``spawn``), and :func:`trigger` is a cheap no-op -- one global
``None`` check -- when no faults are configured, so the guarded hot paths
pay nothing in production.
"""

import hashlib
import os
import threading

__all__ = ["FaultError", "FaultPlan", "trigger", "reset"]

#: Counter name used when a fault point does not name a site explicitly.
_DEFAULT_SITE = "hit"


class FaultError(OSError):
    """The error raised by non-lethal injected faults (e.g. ``io_error``)."""


class _FaultSpec:
    __slots__ = ("name", "site", "nth", "probability")

    def __init__(self, name, site, nth, probability):
        self.name = name
        self.site = site
        self.nth = nth
        self.probability = probability

    def matches(self, name, site):
        if self.name != name:
            return False
        return self.site is None or self.site == site

    def fires(self, seed, site, count):
        if self.nth is not None:
            return count == self.nth
        material = "{}:{}:{}:{}".format(seed, self.name, site, count)
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return draw < self.probability


def _parse_spec(text):
    """One spec: ``name[@site=N][:p=F]`` -> :class:`_FaultSpec`."""
    text = text.strip()
    if not text:
        return None
    probability = None
    if ":" in text:
        text, _, tail = text.partition(":")
        key, _, value = tail.partition("=")
        if key.strip() != "p":
            raise ValueError("unknown fault option {!r}".format(tail))
        probability = float(value)
        if not 0.0 <= probability <= 1.0:
            raise ValueError("fault probability {} not in [0, 1]".format(value))
    site = None
    nth = None
    if "@" in text:
        text, _, tail = text.partition("@")
        key, _, value = tail.partition("=")
        site = key.strip()
        if value:
            nth = int(value)
            if nth < 1:
                raise ValueError(
                    "fault counter {!r} must be >= 1".format(tail))
        elif probability is None:
            # A bare @site is only meaningful as a probability restriction
            # (name@site:p=F); a counter spec must say which hit.
            raise ValueError("fault counter {!r} needs =N".format(tail))
    name = text.strip()
    if not name:
        raise ValueError("fault spec with no name")
    if nth is None and probability is None:
        nth = 1  # a bare name fires on its first hit
    return _FaultSpec(name, site, nth, probability)


class FaultPlan:
    """A parsed fault schedule with per-``(name, site)`` hit counters."""

    def __init__(self, specs, seed=0):
        self.specs = [spec for spec in specs if spec is not None]
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._counts = {}

    @classmethod
    def parse(cls, text, seed=0):
        specs = [_parse_spec(part) for part in str(text).split(",")]
        return cls(specs, seed=seed)

    @classmethod
    def from_env(cls, environ=None):
        """The plan configured by ``REPRO_FAULTS``, or ``None``."""
        environ = os.environ if environ is None else environ
        text = environ.get("REPRO_FAULTS", "").strip()
        if not text:
            return None
        seed = int(environ.get("REPRO_FAULTS_SEED", "0") or "0")
        return cls.parse(text, seed=seed)

    def trigger(self, name, site=None):
        """Record one hit of fault point *name*; ``True`` if a fault fires."""
        site = _DEFAULT_SITE if site is None else str(site)
        with self._lock:
            key = (name, site)
            count = self._counts.get(key, 0) + 1
            self._counts[key] = count
        fired = False
        for spec in self.specs:
            if spec.matches(name, site) and spec.fires(self.seed, site, count):
                fired = True
        return fired

    def counts(self):
        with self._lock:
            return dict(self._counts)

    def __repr__(self):
        parts = ["{}@{}".format(spec.name, spec.site or _DEFAULT_SITE)
                 for spec in self.specs]
        return "FaultPlan([{}], seed={})".format(", ".join(parts), self.seed)


#: The process-wide plan: unset until the first :func:`trigger` call, then
#: either a :class:`FaultPlan` or ``False`` (parsed, nothing configured).
_PLAN = None
_PLAN_LOCK = threading.Lock()


def _plan():
    global _PLAN
    if _PLAN is None:
        with _PLAN_LOCK:
            if _PLAN is None:
                _PLAN = FaultPlan.from_env() or False
    return _PLAN


def trigger(name, site=None):
    """``True`` when the configured plan fires fault *name* at *site*.

    The caller decides what a firing means: the supervised pool SIGKILLs
    the worker, the solver shim kills the z3 child, a columnar store raises
    :class:`FaultError` from the write path.  With no ``REPRO_FAULTS`` in
    the environment this is a single global check.
    """
    plan = _plan()
    if not plan:
        return False
    return plan.trigger(name, site)


def reset():
    """Forget the cached plan so the next trigger re-reads the environment.

    Test-only: lets one process flip ``REPRO_FAULTS`` between cases.
    """
    global _PLAN
    with _PLAN_LOCK:
        _PLAN = None
