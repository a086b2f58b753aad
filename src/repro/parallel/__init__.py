"""Parallel execution primitives: supervision and racing.

Everything in the repo that spans more than one process goes through this
package:

* :mod:`~repro.parallel.context` -- one multiprocessing start-method policy
  (fork preferred, spawn fallback, ``REPRO_MP_START_METHOD`` override) so
  fork and spawn behave identically and CI can exercise both.
* :mod:`~repro.parallel.supervisor` -- the supervised process pool, one
  supervision loop with two fronts: per-task timeouts, crash containment,
  per-task progress events, and first-winner cancellation (``stop_when``)
  for portfolio races.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".context": ["in_daemon_worker", "mp_context", "start_method"],
    ".supervisor": ["STATUSES", "TaskOutcome", "run_supervised"],
})
