"""A stdlib client for the verification service (and the CLI's remote mode).

:class:`ServiceClient` speaks the daemon's HTTP/JSON protocol with nothing
but :mod:`urllib`: submit a job's wire form, fetch its ticket, iterate its
NDJSON event stream, fetch its report.  :meth:`ServiceClient.wait` follows
the event stream until ``job-finished`` and then fetches the ticket once,
so waiting costs no polling.  429 responses surface as
:class:`ServiceBusy` carrying the server's ``Retry-After`` hint;
:meth:`ServiceClient.submit` can retry-with-backoff on them, which is what
makes ``repro-dfs campaign --server`` degrade gracefully when the daemon
sheds load.

:func:`result_from_record` rebuilds a local
:class:`~repro.campaign.scheduler.CampaignResult` from a ticket's wire
form, so the remote CLI path renders the exact same reports (and exit
codes) as a local run.
"""

import json
import time
import urllib.error
import urllib.request
import zlib

from repro.campaign.scheduler import CampaignResult
from repro.exceptions import ReproError


def _connection_error(error):
    """The refused/reset error underlying *error*, or ``None``.

    These are the transport failures of a daemon that is down or
    restarting -- retryable, unlike an HTTP error response (the daemon
    answered) or a DNS failure (the endpoint is misconfigured).
    """
    if isinstance(error, (ConnectionRefusedError, ConnectionResetError)):
        return error
    if isinstance(error, urllib.error.URLError) and isinstance(
            error.reason, (ConnectionRefusedError, ConnectionResetError)):
        return error.reason
    return None


class ServiceClientError(ReproError):
    """A non-2xx response from the service."""

    def __init__(self, message, status=None, payload=None):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class ServiceBusy(ServiceClientError):
    """A 429 (backpressure or rate limit); honour *retry_after* seconds."""

    def __init__(self, message, retry_after=1.0, payload=None):
        super().__init__(message, status=429, payload=payload)
        self.retry_after = retry_after


#: Payload keys of a job run record inside a result's wire form.
_PAYLOAD_KEYS = ("model", "factory", "fingerprint", "expect", "cache",
                 "elapsed", "verdict")


def result_from_record(job, record):
    """Rebuild a :class:`CampaignResult` for *job* from a ticket record."""
    result = (record or {}).get("result") or {}
    payload = {key: result[key] for key in _PAYLOAD_KEYS if key in result}
    if payload:
        payload["job_id"] = job.job_id
    return CampaignResult(
        job, result.get("status", "error"), payload=payload or None,
        error=result.get("error"), elapsed=result.get("elapsed", 0.0))


class ServiceClient:
    """Thin HTTP client for one service endpoint (and optionally one tenant).

    Refused and reset connections -- the signature of a daemon that is
    down, restarting, or being bounced by a supervisor -- are retried
    transparently with capped exponential backoff and deterministic
    jitter (*connect_retries* retries, ``base * 2**attempt`` capped at
    *connect_backoff_cap* seconds, scaled by a per-request factor in
    [0.75, 1.25) derived from the URL so concurrent clients fan out
    without shared RNG state).  This is deliberately distinct from the
    429 handling of :meth:`submit`: a 429 is the daemon *answering* with
    a Retry-After hint, a refused connection is the daemon not being
    there at all.
    """

    def __init__(self, base_url, tenant=None, timeout=60.0,
                 connect_retries=4, connect_backoff=0.2,
                 connect_backoff_cap=5.0):
        self.base_url = str(base_url).rstrip("/")
        self.tenant = tenant
        self.timeout = timeout
        self.connect_retries = int(connect_retries)
        self.connect_backoff = float(connect_backoff)
        self.connect_backoff_cap = float(connect_backoff_cap)

    # -- transport -----------------------------------------------------------

    def _open(self, method, path, payload=None, **options):
        """Open with retries on refused/reset connections."""
        attempt = 0
        while True:
            try:
                return self._open_once(method, path, payload, **options)
            except (urllib.error.URLError, ConnectionResetError) as error:
                cause = _connection_error(error)
                if cause is None:
                    raise
                if attempt >= self.connect_retries:
                    raise ServiceClientError(
                        "cannot reach the service at {} after {} "
                        "attempt(s): {}".format(
                            self.base_url, attempt + 1, cause))
                delay = min(self.connect_backoff * (2 ** attempt),
                            self.connect_backoff_cap)
                seed = zlib.crc32("{}:{}:{}".format(
                    self.base_url, path, attempt).encode("utf-8"))
                time.sleep(delay * (0.75 + (seed % 1000) / 2000.0))
                attempt += 1

    def _open_once(self, method, path, payload=None, timeout=None):
        request = urllib.request.Request(
            self.base_url + path,
            data=(json.dumps(payload).encode("utf-8")
                  if payload is not None else None),
            method=method)
        request.add_header("Content-Type", "application/json")
        if self.tenant is not None:
            request.add_header("X-Repro-Tenant", str(self.tenant))
        try:
            return urllib.request.urlopen(request,
                                          timeout=timeout or self.timeout)
        except urllib.error.HTTPError as error:
            body = error.read()
            try:
                detail = json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                detail = {"error": body.decode("utf-8", "replace")}
            message = detail.get("error", "HTTP {}".format(error.code))
            if error.code == 429:
                try:
                    retry_after = float(error.headers.get("Retry-After", 1.0))
                except (TypeError, ValueError):
                    retry_after = 1.0
                raise ServiceBusy(message, retry_after=retry_after,
                                  payload=detail)
            raise ServiceClientError(message, status=error.code,
                                     payload=detail)

    def _request(self, method, path, payload=None, raw=False):
        with self._open(method, path, payload) as response:
            body = response.read()
        if raw:
            return body.decode("utf-8")
        return json.loads(body.decode("utf-8"))

    # -- protocol ------------------------------------------------------------

    def submit(self, job, retries=0, max_backoff=5.0):
        """POST a job (an object with ``to_dict`` or a wire-form dict).

        On 429 the call sleeps for the server's ``Retry-After`` (capped at
        *max_backoff*) and retries up to *retries* times before giving up.
        Returns the ticket record (which carries the job ``"id"``).
        """
        payload = job.to_dict() if hasattr(job, "to_dict") else dict(job)
        attempt = 0
        while True:
            try:
                return self._request("POST", "/jobs", payload)
            except ServiceBusy as busy:
                if attempt >= retries:
                    raise
                attempt += 1
                time.sleep(min(busy.retry_after, max_backoff))

    def job(self, ticket_id):
        """GET the current ticket record."""
        return self._request("GET", "/jobs/{}".format(ticket_id))

    def wait(self, ticket_id, timeout=600.0):
        """Follow the job's event stream to ``job-finished``; GET the ticket.

        A stream that stays silent for the socket timeout, or ends early (a
        restarting daemon), is opened again, all within *timeout* seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("job {} not finished after {:g}s".format(
                    ticket_id, timeout))
            try:
                for event in self._events(ticket_id,
                                          min(self.timeout, remaining)):
                    if event.get("event") == "job-finished":
                        return self.job(ticket_id)
            except (TimeoutError, urllib.error.URLError) as error:
                if not isinstance(getattr(error, "reason", error),
                                  TimeoutError):
                    raise  # a silent stream times out; anything else is real

    def events(self, ticket_id):
        """Iterate the job's event stream (one dict per NDJSON line)."""
        return self._events(ticket_id, self.timeout)

    def _events(self, ticket_id, timeout):
        response = self._open("GET", "/jobs/{}/events".format(ticket_id),
                              timeout=timeout)
        try:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            response.close()

    def report(self, ticket_id, fmt="json"):
        """GET the finished job's report: a dict (json) or text (markdown)."""
        path = "/reports/{}?format={}".format(ticket_id, fmt)
        return self._request("GET", path, raw=(fmt == "markdown"))

    def healthz(self):
        return self._request("GET", "/healthz")

    def stats(self):
        return self._request("GET", "/stats")

    # -- campaign front ------------------------------------------------------

    def run_jobs(self, jobs, timeout=600.0, retries=8):
        """Submit *jobs*, wait for all, return local ``CampaignResult``s.

        Submissions go out first (so the daemon coalesces and parallelises
        across them), then each ticket is awaited in order.
        """
        jobs = list(jobs)
        tickets = [self.submit(job, retries=retries) for job in jobs]
        results = []
        for job, ticket in zip(jobs, tickets):
            record = self.wait(ticket["id"], timeout=timeout)
            results.append(result_from_record(job, record))
        return results
