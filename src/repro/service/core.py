"""Service policy: admission control and tenancy over the scheduling core.

:class:`VerificationService` is the transport-agnostic heart of the daemon:
it owns a :class:`~repro.campaign.scheduler.CampaignScheduler` (which
answers warm keys at submit and coalesces identical jobs) and adds the two
admission-control policies a shared service needs --

* **backpressure**: submissions are rejected with :class:`ServiceBusy`
  (HTTP 429 + ``Retry-After``) once the pool's queue depth reaches
  *max_depth*, so a burst of cold work degrades into polite retries
  instead of an unbounded queue.  The bound is tested before the
  scheduler looks a job up, so while the queue is full even a job that
  would be a warm cache hit or a coalesced duplicate gets the 429.
* **per-tenant rate limits**: one :class:`~repro.service.ratelimit.TokenBucket`
  per tenant (created lazily), so a single noisy tenant exhausts its own
  budget, not the service.

A malformed job is refused first, with
:class:`~repro.exceptions.ConfigurationError` (HTTP 400): it spends no
rate token and never sees the depth bound, so a client learns its job is
bad instead of retrying it.

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
        job = (payload if isinstance(payload, VerificationJob)
               else VerificationJob.from_dict(payload))
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
        return self.scheduler.submit(job, tenant=tenant, priority=priority)

    # -- introspection -------------------------------------------------------

    def ticket(self, ticket_id):
        """The :class:`~repro.campaign.scheduler.JobTicket`, or ``None``."""
        return self.scheduler.get(ticket_id)

    def healthz(self):
        """A liveness snapshot for load balancers."""
        return {
            "status": "ok",
            "depth": self.scheduler.depth,
            "max_depth": self.max_depth,
            "parallelism": self.scheduler.parallelism,
        }

    def stats(self):
        """Scheduler counters plus admission-control counters."""
        stats = self.scheduler.stats()
        with self._lock:
            stats["rejected"] = dict(self._rejected)
            stats["tenants"] = len(self._buckets)
        stats["max_depth"] = self.max_depth
        if self.rate is not None:
            stats["rate"] = self.rate
            stats["burst"] = self.burst
        return stats

    def close(self, cancel_pending=True):
        """Shut the scheduler (and its worker pool) down."""
        self.scheduler.shutdown(wait=True, cancel_pending=cancel_pending)
