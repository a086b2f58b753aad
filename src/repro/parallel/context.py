"""Multiprocessing start-method selection, shared by every parallel path.

Every process-spawning subsystem (the supervised pool under the campaign
scheduler and the service daemon) goes through one context, so it behaves
identically on a platform: prefer ``fork`` (cheap, inherits registered
factories and loaded modules) and fall back to ``spawn`` where fork is
unavailable.

The ``REPRO_MP_START_METHOD`` environment variable overrides the choice --
CI uses it to exercise the spawn path on platforms whose default is fork, so
picklability regressions (jobs, compiled tables, queries crossing process
boundaries) surface on every run instead of only on spawn-default platforms.
"""

import importlib
import multiprocessing
import os

from repro.exceptions import ConfigurationError

#: Environment variable forcing a specific start method (``fork`` / ``spawn``
#: / ``forkserver``).
START_METHOD_ENV = "REPRO_MP_START_METHOD"


#: Modules imported before a fork, so every forked worker inherits them
#: (NumPy among them) instead of importing them again per job: package
#: imports are lazy, and a long-lived parent such as the daemon may not
#: have explored anything itself.
FORK_PRELOAD = ("repro.petri.batch", "repro.verification.checkers.walk_batch")


def _resolve_method():
    methods = multiprocessing.get_all_start_methods()
    forced = os.environ.get(START_METHOD_ENV)
    if forced:
        if forced not in methods:
            raise ConfigurationError(
                "{}={!r} is not an available start method (available: "
                "{})".format(START_METHOD_ENV, forced, ", ".join(methods)))
        return forced
    return "fork" if "fork" in methods else "spawn"


def mp_context():
    """The multiprocessing context every parallel subsystem uses.

    Honours :data:`START_METHOD_ENV` when set (raising
    :class:`~repro.exceptions.ConfigurationError` for unknown or unavailable
    methods -- a CI matrix must fail loudly, not silently test the wrong
    path), otherwise prefers ``fork`` and falls back to ``spawn``.  Under
    ``fork`` it first imports :data:`FORK_PRELOAD`.
    """
    method = _resolve_method()
    if method == "fork":
        for name in FORK_PRELOAD:
            importlib.import_module(name)
    return multiprocessing.get_context(method)


def start_method():
    """The start method :func:`mp_context` resolves to on this platform."""
    return _resolve_method()
