"""Service policy: admission control and tenancy over the scheduling core.

:class:`VerificationService` is the transport-agnostic heart of the daemon:
it owns a :class:`~repro.campaign.scheduler.CampaignScheduler` (which
answers warm keys at submit and coalesces identical jobs) and adds the two
admission-control policies a shared service needs --

* **backpressure**: submissions are rejected with :class:`ServiceBusy`
  (HTTP 429 + ``Retry-After``) once the pool's queue depth reaches
  *max_depth*, so a burst of cold work degrades into polite retries
  instead of an unbounded queue.  Warm cache hits and coalesced duplicates
  consume no worker slot and are always admitted.
* **per-tenant rate limits**: one :class:`~repro.service.ratelimit.TokenBucket`
  per tenant (created lazily), so a single noisy tenant exhausts its own
  budget, not the service.

The HTTP layer (:mod:`repro.service.http`) only translates between this
object and the wire; tests drive the policy directly.
"""

import threading

from repro.campaign.jobs import VerificationJob
from repro.campaign.scheduler import CampaignScheduler
from repro.exceptions import ReproError
from repro.service.ratelimit import TokenBucket

#: Default bound on in-flight pool work before submissions get 429s.
DEFAULT_MAX_DEPTH = 64


class ServiceBusy(ReproError):
    """The service queue is full; retry after *retry_after* seconds."""

    def __init__(self, message, retry_after=1.0):
        super().__init__(message)
        self.retry_after = retry_after


class RateLimited(ServiceBusy):
    """The tenant exceeded its request budget; retry after *retry_after*."""


class VerificationService:
    """Admission-controlled verification scheduling for many tenants."""

    def __init__(self, parallelism=2, timeout=None, cache_dir=None,
                 max_depth=DEFAULT_MAX_DEPTH, rate=None, burst=None,
                 state_dir=None):
        self.scheduler = CampaignScheduler(
            parallelism=max(1, int(parallelism)), timeout=timeout,
            cache_dir=cache_dir, state_dir=state_dir)
        self.max_depth = int(max_depth)
        self.rate = rate
        self.burst = burst if burst is not None else (
            max(1.0, float(rate)) if rate is not None else None)
        self._buckets = {}
        self._lock = threading.Lock()
        self._rejected = {"busy": 0, "rate": 0}

    # -- admission -----------------------------------------------------------

    def _bucket_for(self, tenant):
        if self.rate is None:
            return None
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst)
                self._buckets[tenant] = bucket
            return bucket

    def submit(self, payload, tenant=None, priority=0):
        """Admit and schedule a job description; return its ticket.

        *payload* is a :class:`~repro.campaign.jobs.VerificationJob` or its
        :meth:`~repro.campaign.jobs.VerificationJob.to_dict` wire form.
        Raises :class:`RateLimited` / :class:`ServiceBusy` on rejection and
        :class:`~repro.exceptions.ConfigurationError` on a malformed job.
        """
        bucket = self._bucket_for(tenant)
        if bucket is not None:
            wait = bucket.try_acquire()
            if wait > 0:
                with self._lock:
                    self._rejected["rate"] += 1
                raise RateLimited(
                    "tenant {!r} exceeded its rate budget of {:g} "
                    "submissions/s".format(tenant, self.rate),
                    retry_after=wait)
        depth = self.scheduler.depth
        if depth >= self.max_depth:
            with self._lock:
                self._rejected["busy"] += 1
            raise ServiceBusy(
                "service queue is full ({} in-flight jobs, bound {})".format(
                    depth, self.max_depth),
                retry_after=1.0)
        if isinstance(payload, VerificationJob):
            job = payload
        else:
            job = VerificationJob.from_dict(payload)
        return self.scheduler.submit(job, tenant=tenant, priority=priority)

    # -- introspection -------------------------------------------------------

    def ticket(self, ticket_id):
        """The :class:`~repro.campaign.scheduler.JobTicket`, or ``None``."""
        return self.scheduler.get(ticket_id)

    def healthz(self):
        """A liveness snapshot for load balancers.

        ``solver`` reports the SMT solver fingerprint (the z3 version
        line), or ``null`` when no solver is installed -- operators can see
        at a glance whether this daemon can serve solver-backed checkers.
        """
        from repro.smt.solver import solver_fingerprint
        return {
            "status": "ok",
            "depth": self.scheduler.depth,
            "max_depth": self.max_depth,
            "parallelism": self.scheduler.parallelism,
            "solver": solver_fingerprint(),
        }

    def stats(self):
        """Scheduler counters plus admission-control counters."""
        from repro.smt.solver import solver_fingerprint, solver_respawns
        stats = self.scheduler.stats()
        with self._lock:
            stats["rejected"] = dict(self._rejected)
            stats["tenants"] = len(self._buckets)
        stats["max_depth"] = self.max_depth
        stats["solver"] = solver_fingerprint()
        stats["solver_respawns"] = solver_respawns()
        if self.rate is not None:
            stats["rate"] = self.rate
            stats["burst"] = self.burst
        return stats

    def close(self, cancel_pending=True):
        """Shut the scheduler (and its worker pool) down."""
        self.scheduler.shutdown(wait=True, cancel_pending=cancel_pending)
