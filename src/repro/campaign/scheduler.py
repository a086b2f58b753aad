"""The scheduling core shared by batch campaigns and the serving stack.

:class:`CampaignScheduler` owns everything that used to live inline in
:func:`repro.campaign.runner.run_campaign` -- the supervised worker pool
(per-job timeouts, crash containment), the verdict cache, and the mapping
from raw :class:`~repro.parallel.supervisor.TaskOutcome` records to
:class:`CampaignResult` -- but as a **long-running incremental** object:
jobs are submitted one at a time (with priorities) and each submission
returns a :class:`JobTicket` that can be polled, waited on, and streamed
for per-property progress events.  ``run_campaign`` is now a thin batch
front over this core; the verification service daemon
(:mod:`repro.service`) is the other front.

Two serving features live here rather than in the HTTP layer because they
are scheduling concerns, not transport concerns:

* **Per-tenant cache namespaces** -- :meth:`CampaignScheduler.cache_for`
  derives one isolated :class:`~repro.campaign.cache.ResultCache` namespace
  per tenant (``tenant=None`` keeps the root directory, preserving CLI
  behaviour), so tenants can never observe each other's verdicts.
* **Single-flight coalescing** -- the scheduler computes each job's
  content-addressed cache key *at submission time* (canonical net
  fingerprint + options digest), answers warm keys synchronously from the
  cache without starting a worker, and coalesces concurrent submissions of
  one cold key into a single pool execution: the first submitter leads,
  every concurrent duplicate subscribes to the leader's flight and is
  answered by its result (marked ``cache="coalesced"``).
"""

import os
import threading
import time
import traceback
import uuid

from repro.campaign.cache import ResultCache, net_fingerprint, options_digest
from repro.dfs.translation import to_petri_net
from repro.exceptions import ConfigurationError
from repro.parallel.supervisor import SupervisorPool, send_event
from repro.utils.diskcache import SingleFlight
from repro.utils.journal import JournalWriter, read_journal


class CampaignResult:
    """Outcome of one campaign job: a payload, or how the worker failed.

    *status* is ``"ok"`` (the job ran and produced a payload), ``"error"``
    (the job raised; *error* holds the traceback), ``"timeout"`` (the worker
    exceeded its deadline and was terminated), ``"crashed"`` (the worker
    process died without reporting) or ``"cancelled"`` (the scheduler shut
    down before the job ran).
    """

    def __init__(self, job, status, payload=None, error=None, elapsed=0.0):
        self.job = job
        self.status = status
        self.payload = payload
        self.error = error
        self.elapsed = elapsed

    @property
    def verdict(self):
        return (self.payload or {}).get("verdict")

    @property
    def outcome(self):
        """``pass`` / ``fail`` / ``inconclusive``, or the failure status."""
        if self.status != "ok":
            return self.status
        return classify_verdict(self.verdict)

    @property
    def cache_status(self):
        return (self.payload or {}).get("cache", "off")

    @property
    def matched(self):
        """Did the job behave as its ``expect`` field predicted?

        ``True`` / ``False`` for a definite answer; ``None`` when the
        verdict is inconclusive (truncated state space), which only the
        campaign's strict mode treats as a failure.
        """
        if self.status != "ok":
            return False
        expect = self.job.expect
        outcome = self.outcome
        if outcome == "inconclusive":
            return None
        if expect is None:
            return True  # no prediction: any conclusive verdict is fine
        if expect == "pass":
            return outcome == "pass"
        if outcome != "fail":
            return False
        if expect == "deadlock":
            return any(
                record["property"] == "deadlock" and record["holds"] is False
                for record in self.verdict.get("properties", ()))
        return True  # expect == "fail": any violated property matches

    def to_dict(self):
        record = {
            "job": self.job.to_dict(),
            "status": self.status,
            "outcome": self.outcome,
            "matched": self.matched,
            "elapsed": self.elapsed,
        }
        if self.payload is not None:
            record.update({key: value for key, value in self.payload.items()
                           if key != "job_id"})
        if self.error is not None:
            record["error"] = self.error
        return record

    def __repr__(self):
        return "CampaignResult({!r}, {}, outcome={})".format(
            self.job.job_id, self.status, self.outcome)


def classify_verdict(verdict):
    """Classify a job verdict: ``pass``, ``fail`` or ``inconclusive``."""
    if not verdict:
        return "inconclusive"
    holds = [record.get("holds") for record in verdict.get("properties", ())]
    if any(value is False for value in holds):
        return "fail"
    if any(value is None for value in holds):
        return "inconclusive"
    return "pass"


def _progress_record(event, name, result):
    """A job's per-property progress callback, as a ticket event record."""
    record = {"event": event, "property": name}
    if result is not None:
        record["holds"] = result.holds
        record["method"] = result.method
    return record


def _execute_job(job, cache_directory):
    """Supervised-task target: run one job against the shared cache.

    Its per-property progress travels as events on the task's own pool
    connection (:func:`~repro.parallel.supervisor.send_event`), ahead of
    the verdict, so the scheduler records every ``property-*`` event on the
    ticket before ``job-finished``.
    """
    return job.run(cache=cache_directory,
                   progress=lambda *a: send_event(_progress_record(*a)))


class JobTicket:
    """Handle for one scheduled job: status, events, and the final result.

    Tickets are created by :meth:`CampaignScheduler.submit`.  *status* walks
    ``"queued"`` -> ``"running"`` -> ``"done"``; :meth:`events` returns the
    ordered event log (each entry a JSON-able dict with a monotonically
    increasing ``"seq"``, ending with ``"job-finished"``), which is what
    the service streams as NDJSON; :meth:`listen` registers a wake-up for
    each new entry, and :meth:`wait` blocks for the :class:`CampaignResult`.
    """

    def __init__(self, job, tenant=None, timeout=None, ticket_id=None):
        #: Journal replay reconstructs tickets under their original ids, so
        #: clients polling an id issued before a daemon crash still resolve.
        self.id = ticket_id if ticket_id else uuid.uuid4().hex
        self.job = job
        self.tenant = tenant
        self.timeout = timeout
        self.status = "queued"
        self.result = None
        self.submitted = time.time()
        self.started = None
        self.finished = None
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._events = []
        self._listeners = []

    @property
    def done(self):
        # The status, not the event: listeners woken by "job-finished" run
        # before the event is set, and must already see a finished ticket.
        return self.status == "done"

    def record(self, event, **fields):
        """Append an *event* entry to the ticket's log; wake the listeners."""
        entry = {"event": event, "time": time.time()}
        entry.update(fields)
        with self._lock:
            entry["seq"] = len(self._events)
            self._events.append(entry)
            listeners = list(self._listeners)
        for listener in listeners:
            listener()
        return entry

    def listen(self, listener):
        """Call ``listener()`` (quick, never raising) after each new event."""
        with self._lock:
            self._listeners.append(listener)

    def unlisten(self, listener):
        with self._lock:
            self._listeners.remove(listener)

    def events(self, start=0):
        """The event log from sequence number *start* on (a copy)."""
        with self._lock:
            return list(self._events[start:])

    def wait(self, timeout=None):
        """Block until the job finishes; return its :class:`CampaignResult`."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                "job {!r} (ticket {}) still in flight".format(
                    self.job.job_id, self.id))
        return self.result

    def _mark_started(self):
        self.status = "running"
        self.started = time.time()
        self.record("job-started", job_id=self.job.job_id)

    def _finish(self, result):
        with self._lock:
            self.result = result
            self.status = "done"
            self.finished = time.time()
        self.record("job-finished", status=result.status,
                    outcome=result.outcome, cache=result.cache_status,
                    matched=result.matched)
        self._done.set()

    def to_dict(self, events=False):
        """The ticket's wire form (JSON-able); the service's poll payload."""
        record = {
            "id": self.id,
            "job_id": self.job.job_id,
            "tenant": self.tenant,
            "status": self.status,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "job": self.job.to_dict(),
            "event_count": len(self.events()),
        }
        if events:
            record["events"] = self.events()
        if self.result is not None:
            record["result"] = self.result.to_dict()
        return record

    def __repr__(self):
        return "JobTicket({}, job={!r}, status={})".format(
            self.id, self.job.job_id, self.status)


class CampaignScheduler:
    """Incremental job scheduling over the supervised pool.

    Parameters
    ----------
    parallelism:
        Concurrent worker processes; ``0`` runs each job inline in the
        submitting thread (no timeout enforcement), exactly like
        ``run_campaign(parallelism=0)``.
    timeout:
        Default per-job deadline in seconds (worker mode only); individual
        submissions can override it.
    cache_dir:
        Optional verdict-cache root shared by all jobs; per-tenant
        namespaces are derived below it.
    state_dir:
        Optional durability root.  When set, every ticket transition
        (submit / start / verdict / cancel) is appended to a write-ahead
        journal under ``<state_dir>/journal`` (see
        :mod:`repro.utils.journal`) **before** it becomes observable, and
        a freshly constructed scheduler replays the journal: finished
        tickets are restored under their original ids with their recorded
        results, and tickets that were in flight when the process died
        are re-enqueued through the normal submission path (coalescing and
        warm verdict-cache hits apply, so a crashed job whose verdict was
        already cached is answered immediately).
    """

    def __init__(self, parallelism=1, timeout=None, cache_dir=None,
                 state_dir=None):
        self.parallelism = int(parallelism)
        self.timeout = timeout
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.state_dir = str(state_dir) if state_dir is not None else None
        self._journal = None
        self._flights = SingleFlight()
        self._lock = threading.Lock()
        self._tickets = {}
        self._counters = {"submitted": 0, "completed": 0, "cache_hits": 0,
                          "coalesced": 0, "restored": 0, "requeued": 0}
        self._outcome_counts = {}
        self._closed = False
        self._pool = None
        if self.parallelism > 0:
            self._pool = SupervisorPool(self.parallelism, timeout=timeout)
        if self.state_dir is not None:
            journal_dir = os.path.join(self.state_dir, "journal")
            # Read the previous incarnation's records *before* opening the
            # writer (the writer truncates any torn tail in place).
            records = read_journal(journal_dir)
            self._journal = JournalWriter(journal_dir)
            self._replay(records)

    # -- tenancy -------------------------------------------------------------

    def cache_for(self, tenant=None):
        """The verdict cache serving *tenant* (``None`` = the root cache)."""
        if self.cache is None or tenant is None:
            return self.cache
        return self.cache.namespace("tenants", tenant)

    # -- submission ----------------------------------------------------------

    def submit(self, job, tenant=None, priority=0, timeout=False):
        """Schedule *job*; return its :class:`JobTicket` immediately.

        The ticket may already be ``done`` on return: a warm cache hit is
        answered synchronously.
        """
        if timeout is False:
            timeout = self.timeout
        ticket = JobTicket(job, tenant=tenant, timeout=timeout)
        with self._lock:
            if self._closed:
                raise ConfigurationError(
                    "cannot submit to a shut-down campaign scheduler")
            self._tickets[ticket.id] = ticket
            self._counters["submitted"] += 1
        self._journal_append({
            "event": "submit", "ticket": ticket.id, "job": job.to_dict(),
            "tenant": tenant, "priority": priority,
            "timeout": timeout, "time": ticket.submitted})
        ticket.record("job-queued", job_id=job.job_id, tenant=tenant)
        self._schedule(ticket, priority)
        return ticket

    def get(self, ticket_id):
        """The ticket with *ticket_id*, or ``None``."""
        with self._lock:
            return self._tickets.get(ticket_id)

    @property
    def depth(self):
        """In-flight pool tasks (queued + running) -- the backpressure gauge.

        Coalesced followers and synchronous cache hits do not count: they
        consume no worker, so they should never trip the queue bound.
        """
        return self._pool.depth if self._pool is not None else 0

    def stats(self):
        """JSON-able counters for the service's ``/stats`` endpoint."""
        with self._lock:
            stats = dict(self._counters)
            stats["outcomes"] = dict(self._outcome_counts)
            stats["tickets"] = len(self._tickets)
        stats["queued"] = self._pool.queued if self._pool is not None else 0
        stats["running"] = self._pool.running if self._pool is not None else 0
        stats["flights"] = len(self._flights)
        return stats

    def shutdown(self, wait=True, cancel_pending=True):
        """Stop accepting jobs and shut the pool down.

        ``cancel_pending`` cancels queued jobs (their tickets finish with
        status ``"cancelled"``) and terminates active workers;
        ``cancel_pending=False`` drains them first.
        """
        with self._lock:
            self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_pending=cancel_pending)
        if self._journal is not None:
            self._journal.close()

    # -- durability ----------------------------------------------------------

    def _replay(self, records):
        """Restore tickets from the previous incarnation's journal.

        The fold is idempotent: the first ``submit`` per ticket id wins
        (duplicates from a double replay are ignored) and the last
        ``verdict``/``cancel`` wins.  Tickets with a recorded verdict are
        rebuilt as already-``done`` under their original ids; tickets
        without one are re-enqueued through the normal submission path
        (so a re-run whose verdict meanwhile sits in the cache is answered
        immediately), again under their original ids.  Replayed
        submissions are not re-journaled -- their ``submit`` records are
        already durable -- but verdicts produced by re-runs are.
        """
        from repro.campaign.jobs import VerificationJob

        submits = {}
        verdicts = {}
        for record in records:
            event = record.get("event")
            ticket_id = record.get("ticket")
            if not ticket_id:
                continue
            if event == "submit" and ticket_id not in submits:
                submits[ticket_id] = record
            elif event in ("verdict", "cancel"):
                verdicts[ticket_id] = record
        for ticket_id, record in submits.items():
            try:
                job = VerificationJob.from_dict(record["job"])
            except Exception:
                continue  # a malformed record must not block the daemon
            timeout = record.get("timeout")
            if timeout is None:
                timeout = self.timeout
            ticket = JobTicket(job, tenant=record.get("tenant"),
                               timeout=timeout, ticket_id=ticket_id)
            with self._lock:
                self._tickets[ticket.id] = ticket
                self._counters["submitted"] += 1
            ticket.record("job-queued", job_id=job.job_id,
                          tenant=ticket.tenant)
            verdict = verdicts.get(ticket_id)
            if verdict is not None:
                # Finished before the crash: restore the recorded result
                # verbatim, without re-journaling it.
                ticket.record("restored", status=verdict.get("status"))
                result = CampaignResult(
                    job, verdict.get("status", "error"),
                    payload=verdict.get("payload"),
                    error=verdict.get("error"),
                    elapsed=verdict.get("elapsed") or 0.0)
                with self._lock:
                    self._counters["completed"] += 1
                    self._counters["restored"] += 1
                    self._outcome_counts[result.status] = (
                        self._outcome_counts.get(result.status, 0) + 1)
                ticket._finish(result)
                continue
            # In flight (or queued) when the process died: run it again.
            ticket.record("requeued", job_id=job.job_id)
            with self._lock:
                self._counters["requeued"] += 1
            self._schedule(ticket, record.get("priority") or 0)

    # -- internals -----------------------------------------------------------

    def _schedule(self, ticket, priority):
        """Answer *ticket* warm, lead a new flight, or follow a running one.

        When the content key cannot be computed (the factory raised on
        these arguments) the ticket is dispatched alone, so the worker
        surfaces the identical error with full context.
        """
        job = ticket.job
        cache = self.cache_for(ticket.tenant)
        cache_directory = cache.directory if cache is not None else None
        try:
            dfs = job.build_model()
            fingerprint = net_fingerprint(to_petri_net(dfs))
        except Exception:
            self._dispatch(ticket, cache_directory, priority)
            return
        key = ResultCache.key(fingerprint, options_digest(job.options()))
        verdict = cache.get(key) if cache is not None else None
        if verdict is not None:
            elapsed = time.time() - ticket.submitted
            payload = job.result_record(dfs.name, fingerprint, "hit",
                                        elapsed, verdict)
            ticket.record("cache-hit", key=key)
            with self._lock:
                self._counters["cache_hits"] += 1
            self._finalize(ticket, "ok", payload, None, elapsed)
            return
        flight_key = (ticket.tenant, key)
        flight, leader = self._flights.acquire(flight_key)
        if leader:
            ticket.record("flight-leader", key=key)

            def resolve_flight(result):
                self._flights.release(flight_key)
                flight.resolve(result)

            self._dispatch(ticket, cache_directory, priority,
                           on_result=resolve_flight)
        else:
            ticket.record("coalesced", key=key)
            with self._lock:
                self._counters["coalesced"] += 1
            flight.subscribe(
                lambda fl: self._resolve_follower(ticket, fl.result))

    def _resolve_follower(self, ticket, leader_result):
        """Answer a coalesced *ticket* with the leader's verdict in its own
        record: the leader's run stats stay with the leader."""
        elapsed = time.time() - ticket.submitted
        if leader_result.status == "ok":
            leader = leader_result.payload
            payload = ticket.job.result_record(
                leader["model"], leader["fingerprint"], "coalesced", elapsed,
                leader["verdict"])
            self._finalize(ticket, "ok", payload, None, elapsed)
        else:
            self._finalize(ticket, leader_result.status, None,
                           leader_result.error, elapsed)

    def _journal_append(self, record):
        """Append *record* to the durability journal (no-op when off)."""
        if self._journal is not None:
            self._journal.append(record)

    def _mark_started(self, ticket):
        self._journal_append({"event": "start", "ticket": ticket.id})
        ticket._mark_started()

    def _dispatch(self, ticket, cache_directory, priority, on_result=None):
        job = ticket.job

        def on_event(record):
            ticket.record(record.pop("event"), **record)

        if self._pool is None:
            self._mark_started(ticket)
            started = time.perf_counter()
            try:
                payload = job.run(
                    cache=cache_directory,
                    progress=lambda *a: on_event(_progress_record(*a)))
                status, error = "ok", None
            except Exception:
                payload, status, error = None, "error", traceback.format_exc()
            result = self._finalize(ticket, status, payload, error,
                                    time.perf_counter() - started)
            if on_result is not None:
                on_result(result)
            return

        def on_start(task_id):
            self._mark_started(ticket)

        def on_outcome(outcome):
            result = self._finalize(ticket, outcome.status, outcome.payload,
                                    outcome.error, outcome.elapsed)
            if on_result is not None:
                on_result(result)

        self._pool.submit(
            ticket.id, _execute_job, (job, cache_directory),
            timeout=ticket.timeout, priority=priority,
            on_start=on_start, on_outcome=on_outcome, on_event=on_event)

    def _finalize(self, ticket, status, payload, error, elapsed):
        if status == "timeout" and ticket.timeout is not None:
            error = ("job exceeded its {:.3g}s deadline and was "
                     "terminated".format(ticket.timeout))
        result = CampaignResult(ticket.job, status, payload=payload,
                                error=error, elapsed=elapsed)
        with self._lock:
            self._counters["completed"] += 1
            self._outcome_counts[status] = (
                self._outcome_counts.get(status, 0) + 1)
        # Journal the verdict *before* it becomes observable through the
        # ticket: a crash between the two replays the job (at-least-once),
        # never invents a verdict the client could already have seen.
        self._journal_append({
            "event": "cancel" if status == "cancelled" else "verdict",
            "ticket": ticket.id, "status": status, "payload": payload,
            "error": error, "elapsed": elapsed})
        ticket._finish(result)
        return result
