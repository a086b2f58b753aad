"""Deterministic fault injection for the crash-recovery test tier.

Faults are declared in the ``REPRO_FAULTS`` environment variable as a
comma-separated list of specs::

    REPRO_FAULTS=kill_worker@level=3,io_error@write=7

Each spec names a fault site that the production code guards with
:func:`trigger` and fires on the *n*-th hit of a named counter:
``kill_worker@level=3`` fires the third time exploration reaches a
``level`` fault point, and a bare name (``io_error``) fires on its first
hit.

The environment is read once per process (workers inherit it through
``fork``/``spawn``), and :func:`trigger` is a cheap no-op -- one global
``None`` check -- when no faults are configured, so the guarded hot paths
pay nothing in production.
"""

import os
import threading

__all__ = ["FaultError", "FaultPlan", "trigger", "reset"]

#: Counter name used when a fault point does not name a site explicitly.
_DEFAULT_SITE = "hit"


class FaultError(OSError):
    """The error raised by non-lethal injected faults (e.g. ``io_error``)."""


class _FaultSpec:
    __slots__ = ("name", "site", "nth")

    def __init__(self, name, site, nth):
        self.name = name
        self.site = site
        self.nth = nth

    def fires(self, name, site, count):
        if self.name != name or (self.site is not None and self.site != site):
            return False
        return count == self.nth


def _parse_spec(text):
    """One spec: ``name[@site=N]`` -> :class:`_FaultSpec`."""
    text = text.strip()
    if not text:
        return None
    if ":" in text:
        raise ValueError("unknown fault option {!r}".format(
            text.partition(":")[2]))
    site = None
    nth = 1  # a bare name fires on its first hit
    if "@" in text:
        text, _, tail = text.partition("@")
        key, _, value = tail.partition("=")
        if not value:
            raise ValueError("fault counter {!r} needs =N".format(tail))
        site = key.strip()
        nth = int(value)
        if nth < 1:
            raise ValueError("fault counter {!r} must be >= 1".format(tail))
    name = text.strip()
    if not name:
        raise ValueError("fault spec with no name")
    return _FaultSpec(name, site, nth)


class FaultPlan:
    """A parsed fault schedule with per-``(name, site)`` hit counters."""

    def __init__(self, specs):
        self.specs = [spec for spec in specs if spec is not None]
        self._lock = threading.Lock()
        self._counts = {}

    @classmethod
    def parse(cls, text):
        return cls([_parse_spec(part) for part in str(text).split(",")])

    @classmethod
    def from_env(cls, environ=None):
        """The plan configured by ``REPRO_FAULTS``, or ``None``."""
        environ = os.environ if environ is None else environ
        text = environ.get("REPRO_FAULTS", "").strip()
        if not text:
            return None
        return cls.parse(text)

    def trigger(self, name, site=None):
        """Record one hit of fault point *name*; ``True`` if a fault fires."""
        site = _DEFAULT_SITE if site is None else str(site)
        with self._lock:
            key = (name, site)
            count = self._counts.get(key, 0) + 1
            self._counts[key] = count
        return any(spec.fires(name, site, count) for spec in self.specs)

    def counts(self):
        with self._lock:
            return dict(self._counts)

    def __repr__(self):
        parts = ["{}@{}".format(spec.name, spec.site or _DEFAULT_SITE)
                 for spec in self.specs]
        return "FaultPlan([{}])".format(", ".join(parts))


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
    the worker, a columnar store raises
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
