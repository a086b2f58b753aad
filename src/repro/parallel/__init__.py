"""Parallel execution primitives: supervision and racing.

Everything in the repo that spans more than one process goes through this
package:

* :mod:`~repro.parallel.context` -- one multiprocessing start-method policy
  (fork preferred, spawn fallback, ``REPRO_MP_START_METHOD`` override) so
  fork and spawn behave identically and CI can exercise both.
* :mod:`~repro.parallel.supervisor` -- the supervised process pool extracted
  from the campaign runner: per-task timeouts, crash containment, and
  first-winner cancellation (``stop_when``) for portfolio races.
"""

from repro.parallel.context import in_daemon_worker, mp_context, start_method
from repro.parallel.supervisor import STATUSES, TaskOutcome, run_supervised

__all__ = [
    "STATUSES",
    "TaskOutcome",
    "in_daemon_worker",
    "mp_context",
    "run_supervised",
    "start_method",
]
