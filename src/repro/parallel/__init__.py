"""Parallel execution primitives: the supervised process pool.

Everything in the repo that spans more than one process goes through this
package:

* :mod:`~repro.parallel.context` -- one multiprocessing start-method policy
  (fork preferred, spawn fallback, ``REPRO_MP_START_METHOD`` override) so
  fork and spawn behave identically and CI can exercise both.
* :mod:`~repro.parallel.supervisor` -- the supervised process pool under
  the campaign scheduler and the service daemon: per-task timeouts, crash
  containment and per-task progress events.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".context": ["mp_context", "start_method"],
    ".supervisor": ["STATUSES", "SupervisorPool", "TaskOutcome"],
})
