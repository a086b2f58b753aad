"""The asyncio HTTP/JSON front of the verification service (stdlib only).

A deliberately small HTTP/1.1 server -- ``asyncio.start_server`` plus a
hand-rolled request parser -- so the daemon has **zero** dependencies
beyond the standard library.  Every response closes its connection
(``Connection: close``), which keeps the parser honest and lets the event
stream use end-of-stream as its framing.

Endpoints
---------
* ``POST /jobs`` -- submit a job description (the
  :meth:`~repro.campaign.jobs.VerificationJob.to_dict` wire form, or
  ``{"job": {...}, "tenant": "..."}``); answers 202 with the ticket, 400
  on a malformed job, 429 + ``Retry-After`` on backpressure or rate limit.
  The tenant comes from the ``X-Repro-Tenant`` header (or the wrapper).
* ``GET /jobs/<id>`` -- fetch a ticket (status, job, result when done).
* ``GET /jobs/<id>/events`` -- stream the ticket's event log as NDJSON,
  one JSON object per line, live until ``job-finished`` (or until the
  daemon stops).  The stream wakes on each new event the ticket records;
  it never polls.
* ``GET /reports/<id>`` -- the finished job as a one-job campaign report;
  ``?format=markdown`` renders markdown, the default is JSON.  409 while
  the job is still running.
* ``GET /healthz`` / ``GET /stats`` -- liveness and counters.

Model construction for single-flight keying runs in a thread-pool executor
so a slow factory never stalls the event loop.
"""

import asyncio
import json
import signal
import traceback
import urllib.parse

from repro.campaign.report import CampaignReport
from repro.exceptions import ConfigurationError, ReproError, VerificationError
from repro.service.core import ServiceBusy

_MAX_LINE = 8192
_MAX_BODY = 4 * 1024 * 1024
_STATUS_TEXT = {200: "OK", 202: "Accepted", 400: "Bad Request",
                404: "Not Found", 405: "Method Not Allowed",
                409: "Conflict", 429: "Too Many Requests",
                500: "Internal Server Error"}


class _BadRequest(Exception):
    pass


async def _read_request(reader):
    """Parse one HTTP/1.1 request; return (method, path, headers, body)."""
    line = await reader.readline()
    if not line:
        return None
    if len(line) > _MAX_LINE:
        raise _BadRequest("request line too long")
    try:
        method, target, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise _BadRequest("malformed request line")
    headers = {}
    while True:
        line = await reader.readline()
        if len(line) > _MAX_LINE:
            raise _BadRequest("header line too long")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = headers.get("content-length")
    if length:
        try:
            length = int(length)
        except ValueError:
            raise _BadRequest("malformed Content-Length")
        if length > _MAX_BODY:
            raise _BadRequest("request body too large")
        body = await reader.readexactly(length)
    return method.upper(), target, headers, body


def _encode_response(status, payload, content_type="application/json",
                     extra_headers=None):
    if isinstance(payload, (dict, list)):
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    else:
        body = str(payload).encode("utf-8")
    lines = ["HTTP/1.1 {} {}".format(status, _STATUS_TEXT.get(status, "")),
             "Content-Type: {}".format(content_type),
             "Content-Length: {}".format(len(body)),
             "Connection: close"]
    for name, value in (extra_headers or {}).items():
        lines.append("{}: {}".format(name, value))
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class ServiceDaemon:
    """The asyncio server binding a :class:`VerificationService` to TCP."""

    def __init__(self, service, host="127.0.0.1", port=0):
        self.service = service
        self.host = host
        self.port = port
        self._server = None
        self._stopping = False
        self._streams = set()   # the wake-up events of open event streams

    async def start(self):
        """Bind and start accepting; resolves ``self.port`` when it was 0."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self):
        """Stop accepting, and end every open event stream now."""
        self._stopping = True
        for changed in self._streams:
            changed.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self):
        return "http://{}:{}".format(self.host, self.port)

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader, writer):
        try:
            try:
                request = await _read_request(reader)
            except _BadRequest as bad:
                writer.write(_encode_response(400, {"error": str(bad)}))
                await writer.drain()
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if request is None:
                return
            method, target, headers, body = request
            try:
                await self._route(method, target, headers, body, writer)
            except ConnectionError:
                return
            except Exception:
                writer.write(_encode_response(
                    500, {"error": traceback.format_exc()}))
                await writer.drain()
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _route(self, method, target, headers, body, writer):
        parsed = urllib.parse.urlsplit(target)
        query = urllib.parse.parse_qs(parsed.query)
        segments = [segment for segment in parsed.path.split("/") if segment]

        async def respond(status, payload, **kwargs):
            writer.write(_encode_response(status, payload, **kwargs))
            await writer.drain()

        if segments == ["healthz"] and method == "GET":
            await respond(200, self.service.healthz())
        elif segments == ["stats"] and method == "GET":
            await respond(200, self.service.stats())
        elif segments == ["jobs"] and method == "POST":
            await self._submit(headers, body, respond)
        elif len(segments) == 2 and segments[0] == "jobs" and method == "GET":
            ticket = self.service.ticket(segments[1])
            if ticket is None:
                await respond(404, {"error": "no such job"})
            else:
                await respond(200, ticket.to_dict())
        elif (len(segments) == 3 and segments[0] == "jobs"
                and segments[2] == "events" and method == "GET"):
            await self._stream_events(segments[1], writer)
        elif len(segments) == 2 and segments[0] == "reports" and method == "GET":
            await self._report(segments[1], query, respond)
        elif segments and segments[0] in ("jobs", "reports", "healthz", "stats"):
            await respond(405, {"error": "method not allowed"})
        else:
            await respond(404, {"error": "no such endpoint"})

    async def _submit(self, headers, body, respond):
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            await respond(400, {"error": "request body is not valid JSON"})
            return
        tenant = headers.get("x-repro-tenant") or None
        if isinstance(payload, dict) and "job" in payload:
            tenant = payload.get("tenant", tenant)
            payload = payload["job"]
        if not isinstance(payload, dict):
            await respond(400, {"error": "a job description must be a JSON "
                                         "object"})
            return
        loop = asyncio.get_running_loop()
        try:
            ticket = await loop.run_in_executor(
                None, lambda: self.service.submit(payload, tenant=tenant))
        except ServiceBusy as busy:
            await respond(429, {"error": str(busy),
                                "retry_after": busy.retry_after},
                          extra_headers={
                              "Retry-After":
                                  "{:d}".format(max(1, int(busy.retry_after)))})
        except (ConfigurationError, VerificationError) as bad:
            await respond(400, {"error": str(bad)})
        except ReproError as bad:
            await respond(400, {"error": str(bad)})
        else:
            record = ticket.to_dict()
            record["links"] = {
                "self": "/jobs/{}".format(ticket.id),
                "events": "/jobs/{}/events".format(ticket.id),
                "report": "/reports/{}".format(ticket.id),
            }
            await respond(202, record)

    async def _stream_events(self, ticket_id, writer):
        ticket = self.service.ticket(ticket_id)
        if ticket is None:
            writer.write(_encode_response(404, {"error": "no such job"}))
            await writer.drain()
            return
        writer.write(("HTTP/1.1 200 OK\r\n"
                      "Content-Type: application/x-ndjson\r\n"
                      "Connection: close\r\n\r\n").encode("latin-1"))
        loop = asyncio.get_running_loop()
        changed = asyncio.Event()

        def wake():
            try:
                loop.call_soon_threadsafe(changed.set)
            except RuntimeError:
                pass  # the loop has closed, and this stream with it

        ticket.listen(wake)
        self._streams.add(changed)
        try:
            sent = 0
            while not self._stopping:
                # Clear before reading the log: an event recorded after the
                # read sets the flag again, so no wake-up is lost.
                changed.clear()
                events = ticket.events(sent)
                for event in events:
                    writer.write((json.dumps(event, sort_keys=True) + "\n")
                                 .encode("utf-8"))
                sent += len(events)
                await writer.drain()
                if events and events[-1]["event"] == "job-finished":
                    return
                await changed.wait()
        finally:
            ticket.unlisten(wake)
            self._streams.discard(changed)

    async def _report(self, ticket_id, query, respond):
        ticket = self.service.ticket(ticket_id)
        if ticket is None:
            await respond(404, {"error": "no such job"})
            return
        if not ticket.done:
            await respond(409, {"error": "job is still {}".format(
                ticket.status), "status": ticket.status})
            return
        elapsed = (ticket.finished or 0.0) - ticket.submitted
        report = CampaignReport(
            [ticket.result], parallelism=self.service.scheduler.parallelism,
            elapsed=max(elapsed, 0.0))
        fmt = (query.get("format") or ["json"])[0]
        if fmt == "markdown":
            await respond(200, report.to_markdown(),
                          content_type="text/markdown; charset=utf-8")
        elif fmt == "json":
            await respond(200, report.to_dict())
        else:
            await respond(400, {"error": "unknown report format {!r} "
                                         "(json or markdown)".format(fmt)})


def run_daemon(service, host="127.0.0.1", port=8765, ready=None):
    """Serve *service* until SIGINT/SIGTERM; blocking, returns 0.

    *ready* is called with the started :class:`ServiceDaemon` once the
    socket is bound (the CLI prints the address from it; tests grab the
    ephemeral port).  The scheduler is shut down -- cancelling queued jobs
    and terminating active workers -- before returning, so a Ctrl-C leaves
    no orphaned worker processes behind.
    """

    async def _main():
        daemon = ServiceDaemon(service, host=host, port=port)
        await daemon.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signal support
        if ready is not None:
            ready(daemon)
        try:
            await stop.wait()
        except asyncio.CancelledError:
            pass
        await daemon.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass  # a second Ctrl-C during shutdown is still a clean exit
    service.close()
    return 0
