"""The serving stack: submit latency, warm-key reuse, coalesced bursts.

Three serving claims are measured (and the reuse latency gated) here:

* **Warm-key reuse**: a submission whose content key (canonical net
  fingerprint + options digest) is already in the tenant's verdict cache
  is answered synchronously at submit time -- no worker dispatch, no
  re-verification.  The warm latency in in-process calibration-kernel runs
  is gated by ``check_regression.py``: warm submissions regressing toward
  cold cost means the content-addressed reuse path broke.
* **Single-flight coalescing**: a burst of concurrent identical
  submissions is served by exactly one pool execution; the table reports
  the burst's wall clock next to the single execution it rode on, and the
  bench asserts the coalescing actually happened.
* **HTTP round trip**: the same submit -> poll -> report cycle through a
  real socket and the stdlib client, so the daemon's framing overhead
  stays visible.
"""

import asyncio
import threading
import time

from repro.campaign.jobs import VerificationJob
from repro.service import ServiceClient, ServiceDaemon, VerificationService

from .conftest import best_of, print_table, timed

#: Submissions in the warm-latency average and in the coalesced burst.
WARM_ROUNDS = 20
BURST = 16


def _job(job_id):
    return VerificationJob(job_id, "conditional", kwargs={"comp_stages": 2},
                           properties=("safeness", "deadlock"))


class _DaemonThread:
    """Run a ServiceDaemon on an ephemeral port in a background thread."""

    def __init__(self, service):
        self.service = service
        self.daemon = None
        self._ready = threading.Event()
        self._stop = None
        self._loop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self.daemon = ServiceDaemon(self.service, port=0)
            await self.daemon.start()
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
            await self.daemon.stop()

        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10), "daemon failed to start"
        return self.daemon

    def __exit__(self, *exc_info):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)
        self.service.close()


def test_submit_latency_cold_vs_warm_gated(tmp_path):
    """Cold pool execution vs synchronous warm-key answers (warm gated)."""
    service = VerificationService(parallelism=1,
                                  cache_dir=str(tmp_path / "cache"))
    try:
        start = time.perf_counter()
        ticket = service.submit(_job("cold"))
        cold_result = ticket.wait(120)
        cold_seconds = time.perf_counter() - start
        assert cold_result.status == "ok"
        assert cold_result.cache_status == "miss"

        def warm_round():
            """Seconds per submission of WARM_ROUNDS warm submits."""
            jobs = [_job("warm-{}".format(index)) for index in range(WARM_ROUNDS)]
            seconds, tickets = timed(lambda: [service.submit(job) for job in jobs])
            for ticket in tickets:
                assert ticket.done, "a warm key must be answered at submit time"
                assert ticket.result.cache_status == "hit"
            return seconds / WARM_ROUNDS, ticket

        warm_seconds, ticket, kernel_runs = best_of(3, warm_round)
        assert ticket.result.verdict == cold_result.verdict
    finally:
        service.close()
    rows = [
        {"mode": "cold (pool execution)", "submissions": 1,
         "seconds": cold_seconds, "speedup": 1.0},
        {"mode": "warm (content-key hit)", "submissions": WARM_ROUNDS,
         "seconds": warm_seconds, "speedup": cold_seconds / warm_seconds,
         "kernel_runs": kernel_runs},
    ]
    print_table("service result reuse, cold vs warm (conditional x2)", rows)
    # The warm path must clearly undercut a pool execution; its latency is
    # gated against the committed baseline by check_regression.py.
    assert warm_seconds < cold_seconds


def test_coalesced_burst_executes_once(tmp_path):
    """A concurrent burst of one identical job costs one pool execution."""
    service = VerificationService(parallelism=2,
                                  cache_dir=str(tmp_path / "cache"))
    try:
        tickets = [None] * BURST

        def submit(index):
            tickets[index] = service.submit(_job("burst-{}".format(index)),
                                            tenant="burst")

        threads = [threading.Thread(target=submit, args=(index,))
                   for index in range(BURST)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        results = [ticket.wait(120) for ticket in tickets]
        burst_seconds = time.perf_counter() - start
        stats = service.stats()
    finally:
        service.close()
    assert all(result.status == "ok" for result in results)
    caches = [result.cache_status for result in results]
    executions = caches.count("miss")
    assert executions == 1, caches
    rows = [{
        "burst": BURST,
        "pool_executions": executions,
        "coalesced": stats["coalesced"],
        "cache_hits": stats["cache_hits"],
        "seconds": burst_seconds,
        "jobs_per_sec": BURST / burst_seconds,
    }]
    print_table("coalesced burst ({} identical submissions)".format(BURST),
                rows)


def test_http_round_trip(tmp_path):
    """Submit -> poll -> report through a real socket with the stdlib client."""
    service = VerificationService(parallelism=1,
                                  cache_dir=str(tmp_path / "cache"))
    rows = []
    with _DaemonThread(service) as daemon:
        client = ServiceClient(daemon.address, tenant="bench")
        start = time.perf_counter()
        ticket = client.submit(_job("http-cold"))
        record = client.wait(ticket["id"], timeout=120.0)
        report = client.report(ticket["id"])
        cold_seconds = time.perf_counter() - start
        assert record["result"]["cache"] == "miss"
        assert report["summary"]["ok"] is True
        rows.append({"mode": "http-cold", "requests": 3,
                     "seconds": cold_seconds})

        start = time.perf_counter()
        for index in range(WARM_ROUNDS):
            warm = client.submit(_job("http-warm-{}".format(index)))
            assert warm["status"] == "done"
            assert warm["result"]["cache"] == "hit"
        warm_seconds = (time.perf_counter() - start) / WARM_ROUNDS
        rows.append({"mode": "http-warm", "requests": 1,
                     "seconds": warm_seconds})
    print_table("service HTTP round trip (stdlib client)", rows)
    assert warm_seconds < cold_seconds
