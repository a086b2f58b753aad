"""Batch campaign execution: the thin front over the scheduling core.

Each :class:`~repro.campaign.jobs.VerificationJob` that the verdict cache
cannot answer runs in its **own** worker process (bounded to *parallelism*
concurrent workers) through the
:class:`~repro.campaign.scheduler.CampaignScheduler` -- the supervision
machinery (per-job timeouts, crash containment, streamed results) that
originated here and now also powers the verification service daemon
(:mod:`repro.service`).  A job that hangs is
terminated at its deadline and a job whose worker dies (a crash, an
``os._exit``, an OOM kill) is detected by the supervisor -- in both cases
the campaign records a failed :class:`CampaignResult` and keeps going
instead of hanging the pool.

``parallelism=0`` runs the jobs inline in the calling process (no timeout
enforcement), which is handy for debugging and deterministic tests.

Like every scheduler front, a batch run keys each job at submission: a job
whose verdict is already cached is answered without starting a worker,
and identical jobs in flight at the same time run once.
"""

import time

from repro.campaign.report import CampaignReport
from repro.campaign.scheduler import (  # noqa: F401  (re-exports)
    CampaignResult,
    CampaignScheduler,
    JobTicket,
    classify_verdict,
)
from repro.exceptions import ConfigurationError
from repro.parallel.context import start_method  # noqa: F401  (re-export)


def run_campaign(jobs, parallelism=1, timeout=None, cache_dir=None, spec=None,
                 skipped=None):
    """Run *jobs* and aggregate the outcomes into a :class:`CampaignReport`.

    Parameters
    ----------
    jobs:
        The :class:`~repro.campaign.jobs.VerificationJob` list to run (for
        instance from :func:`~repro.campaign.scenario.generate_scenarios`).
    parallelism:
        Number of concurrent worker processes; ``0`` runs inline.
    timeout:
        Optional per-job deadline in seconds (worker mode only).
    cache_dir:
        Optional verdict-cache directory shared by all workers.
    spec, skipped:
        Optional :class:`~repro.campaign.scenario.ScenarioSpec` and skipped
        grid points, recorded in the report for provenance.
    """
    jobs = list(jobs)
    seen_ids = set()
    for job in jobs:
        if job.job_id in seen_ids:
            raise ConfigurationError(
                "duplicate job id {!r}: the runner keys its bookkeeping by "
                "job id, so every job needs a unique one".format(job.job_id))
        seen_ids.add(job.job_id)
    started = time.perf_counter()
    scheduler = CampaignScheduler(parallelism=parallelism, timeout=timeout,
                                  cache_dir=cache_dir)
    try:
        tickets = [scheduler.submit(job) for job in jobs]
        results = [ticket.wait() for ticket in tickets]
    finally:
        scheduler.shutdown(wait=True, cancel_pending=True)
    return CampaignReport(
        results, spec=spec, skipped=skipped, parallelism=parallelism,
        timeout=timeout, cache_dir=cache_dir,
        elapsed=time.perf_counter() - started)
