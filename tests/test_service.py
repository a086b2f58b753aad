"""Tests of the serving stack (repro.service) and the scheduling core.

The load-bearing contracts:

* **single flight**: N concurrent submissions of one identical job execute
  exactly once on the worker pool (counted via the ``counting_family``
  fixture of ``conftest.py``, whose marker files are keyed by pid so
  submit-side key builds in the parent are distinguishable from pool
  executions in children);
* **tenancy**: tenants resolve to disjoint cache namespaces and can never
  observe each other's verdicts;
* **admission control**: a full queue answers 429-shaped ``ServiceBusy``
  and a noisy tenant exhausts only its own token bucket;
* **the HTTP API**: submit -> poll -> stream -> report round-trips through
  a real socket with the stdlib client, and the remote CLI path renders
  the same report a local run would.
"""

import json
import os
import socket
import threading
import time

import pytest

from repro.campaign.cache import options_digest
from repro.campaign.jobs import VerificationJob
from repro.campaign.scheduler import CampaignScheduler
from repro.exceptions import ConfigurationError
from repro.parallel.context import start_method
from repro.service import (
    ClientBusy,
    RateLimited,
    ServiceBusy,
    ServiceClient,
    ServiceClientError,
    ServiceDaemon,
    TokenBucket,
    VerificationService,
    result_from_record,
)
from repro.verification.checkers import CHECKERS
from repro.workcraft.cli import main as cli_main

needs_fork = pytest.mark.skipif(
    start_method() != "fork",
    reason="registry factories only reach worker processes under the fork start method")


def _conditional_job(job_id="cond", stages=1):
    return VerificationJob(job_id, "conditional",
                           kwargs={"comp_stages": stages},
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
        import asyncio

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


# -- the token bucket ---------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: clock[0])
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)  # 1 token at 2 tokens/s
        clock[0] = 0.5
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_rejected_requests_spend_nothing(self):
        clock = [0.0]
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=lambda: clock[0])
        assert bucket.try_acquire() == 0.0
        first = bucket.try_acquire()
        second = bucket.try_acquire()
        assert first == second == pytest.approx(1.0)

    def test_bucket_never_exceeds_burst(self):
        clock = [0.0]
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=lambda: clock[0])
        clock[0] = 100.0
        assert bucket.available == pytest.approx(3.0)

    def test_rejects_non_positive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=-1)


# -- the wire protocol --------------------------------------------------------


class TestWireForm:
    def test_to_dict_from_dict_round_trip(self):
        job = _conditional_job("wire", stages=2)
        clone = VerificationJob.from_dict(job.to_dict())
        assert clone.to_dict() == job.to_dict()
        assert clone.job_id == "wire"
        assert clone.kwargs == {"comp_stages": 2}

    @pytest.mark.parametrize("checker", sorted(CHECKERS))
    def test_a_retired_solver_fingerprint_is_dropped_not_keyed(self, checker):
        """Portfolio jobs written before the solver tier was retired carry
        ``"solver"`` (a z3 version line, or null without z3).  The rebuilt
        job is the job without it: same wire form, same cache key."""
        job = VerificationJob("wire", "conditional", {"comp_stages": 1},
                              checker=checker)
        for solver in (None, "Z3 version 4.12.2 - 64 bit"):
            clone = VerificationJob.from_dict(dict(job.to_dict(),
                                                   solver=solver))
            assert clone.to_dict() == job.to_dict()
            assert "solver" not in clone.to_dict()
            assert options_digest(clone.options()) == \
                options_digest(job.options())

    def test_missing_required_fields_are_rejected(self):
        with pytest.raises(ConfigurationError):
            VerificationJob.from_dict({"factory": "conditional"})
        with pytest.raises(ConfigurationError):
            VerificationJob.from_dict({"job_id": "x"})

    def test_unknown_fields_are_rejected_loudly(self):
        payload = _conditional_job().to_dict()
        payload["max_sates"] = 100  # the typo this guard exists for
        with pytest.raises(ConfigurationError, match="unknown job field"):
            VerificationJob.from_dict(payload)

    def test_result_from_record_rebuilds_local_result(self):
        job = _conditional_job()
        record = {"status": "done",
                  "result": {"status": "ok", "elapsed": 0.25,
                             "cache": "hit", "model": "conditional",
                             "verdict": {"properties": [
                                 {"property": "safeness", "holds": True}]}}}
        result = result_from_record(job, record)
        assert result.status == "ok"
        assert result.outcome == "pass"
        assert result.cache_status == "hit"
        assert result.payload["job_id"] == job.job_id

    def test_result_from_record_tolerates_missing_result(self):
        result = result_from_record(_conditional_job(), {"status": "queued"})
        assert result.status == "error"
        assert result.payload is None


# -- the scheduling core ------------------------------------------------------


class TestSchedulerTenancy:
    def test_tenants_resolve_to_disjoint_namespaces(self, tmp_path):
        scheduler = CampaignScheduler(parallelism=0,
                                      cache_dir=str(tmp_path / "cache"))
        root = scheduler.cache_for(None)
        alice = scheduler.cache_for("alice")
        bob = scheduler.cache_for("bob")
        assert root.directory == str(tmp_path / "cache")
        assert alice.directory != bob.directory != root.directory
        assert alice.directory.startswith(root.directory)

    def test_hostile_tenant_names_stay_under_the_cache_root(self, tmp_path):
        scheduler = CampaignScheduler(parallelism=0,
                                      cache_dir=str(tmp_path / "cache"))
        evil = scheduler.cache_for("../../etc")
        root = os.path.realpath(str(tmp_path / "cache"))
        assert os.path.realpath(evil.directory).startswith(root)
        assert scheduler.cache_for("a/b").directory != \
            scheduler.cache_for("a-b").directory

    def test_tenants_never_share_verdicts(self, tmp_path):
        scheduler = CampaignScheduler(parallelism=0,
                                      cache_dir=str(tmp_path / "cache"))
        cold = scheduler.submit(_conditional_job("a1"), tenant="alice")
        assert cold.wait(60).cache_status == "miss"
        warm = scheduler.submit(_conditional_job("a2"), tenant="alice")
        assert warm.wait(60).cache_status == "hit"
        other = scheduler.submit(_conditional_job("b1"), tenant="bob")
        assert other.wait(60).cache_status == "miss"
        assert scheduler.stats()["cache_hits"] == 1

    def test_warm_hit_ticket_is_done_at_submission(self, tmp_path):
        scheduler = CampaignScheduler(parallelism=0,
                                      cache_dir=str(tmp_path / "cache"))
        scheduler.submit(_conditional_job("c1")).wait(60)
        ticket = scheduler.submit(_conditional_job("c2"))
        assert ticket.done
        events = [entry["event"] for entry in ticket.events()]
        assert events == ["job-queued", "cache-hit", "job-finished"]
        assert ticket.result.verdict is not None


class TestSchedulerSingleFlight:
    @needs_fork
    def test_concurrent_identical_submissions_execute_once(
            self, tmp_path, counting_family):
        scheduler = CampaignScheduler(parallelism=2,
                                      cache_dir=str(tmp_path / "cache"))
        try:
            tickets = [None] * 8
            def submit(index):
                tickets[index] = scheduler.submit(
                    counting_family.job("stampede-{}".format(index)))
            threads = [threading.Thread(target=submit, args=(index,))
                       for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            results = [ticket.wait(60) for ticket in tickets]
        finally:
            scheduler.shutdown()
        assert all(result.status == "ok" for result in results)
        verdicts = [result.verdict for result in results]
        assert all(verdict == verdicts[0] for verdict in verdicts)
        # Exactly one submission reached the pool; every concurrent
        # duplicate was coalesced onto it (or answered warm if it landed
        # after the leader finished).
        caches = sorted(result.cache_status for result in results)
        assert caches.count("miss") == 1
        assert set(caches) <= {"miss", "coalesced", "hit"}
        assert len(counting_family.pool_executions()) == 1

    @needs_fork
    def test_distinct_tenants_do_not_coalesce(self, tmp_path,
                                              counting_family):
        scheduler = CampaignScheduler(parallelism=2,
                                      cache_dir=str(tmp_path / "cache"))
        try:
            one = scheduler.submit(counting_family.job("t-a"),
                                   tenant="alice")
            two = scheduler.submit(counting_family.job("t-b"),
                                   tenant="bob")
            assert one.wait(60).cache_status == "miss"
            assert two.wait(60).cache_status == "miss"
        finally:
            scheduler.shutdown()
        assert len(counting_family.pool_executions()) == 2

    def test_followers_answer_with_their_own_job_and_no_run_stats(self):
        """A coalesced follower ran nothing: its record carries its own
        expectation and no exploration stats."""
        scheduler = CampaignScheduler(parallelism=1)
        try:
            # The one worker is busy with a bigger model while the identical
            # jobs arrive, so the last two join the first one's flight.
            busy = scheduler.submit(
                VerificationJob("busy", "pipeline", kwargs={"stages": 3}))
            tickets = [scheduler.submit(VerificationJob(
                "same-{}".format(index), "pipeline", kwargs={"stages": 2},
                expect="pass" if index == 0 else None))
                for index in range(3)]
            results = [ticket.wait(120) for ticket in [busy] + tickets]
        finally:
            scheduler.shutdown()
        assert [result.cache_status for result in results] == [
            "off", "off", "coalesced", "coalesced"]
        assert [result.to_dict()["expect"] for result in results[1:]] == [
            "pass", None, None]
        assert all("exploration" not in result.payload
                   for result in results[2:])

    def test_broken_factory_still_surfaces_the_worker_error(self, tmp_path):
        """Arguments that fit the family's signature but make its build
        raise cannot be keyed: the job runs alone and reports the error."""
        scheduler = CampaignScheduler(parallelism=0,
                                      cache_dir=str(tmp_path / "cache"))
        ticket = scheduler.submit(VerificationJob(
            "bad", "pipeline", kwargs={"stages": 2, "holes": [1]}))
        result = ticket.wait(60)
        assert result.status == "error"
        assert "cannot punch a hole at static stage 1" in result.error

    def test_submission_after_shutdown_is_rejected(self, tmp_path):
        scheduler = CampaignScheduler(parallelism=0)
        scheduler.shutdown()
        with pytest.raises(ConfigurationError):
            scheduler.submit(_conditional_job())


# -- service admission control ------------------------------------------------


class TestAdmissionControl:
    def test_full_queue_rejects_with_retry_hint(self, tmp_path):
        service = VerificationService(parallelism=1, max_depth=0,
                                      cache_dir=str(tmp_path / "cache"))
        try:
            with pytest.raises(ServiceBusy) as caught:
                service.submit(_conditional_job().to_dict())
            assert caught.value.retry_after > 0
            assert service.stats()["rejected"]["busy"] == 1
        finally:
            service.close()

    def test_rate_limit_is_per_tenant(self, tmp_path):
        # burst=1 with a tiny rate: each tenant's first submission spends
        # its only token (then hits the depth bound, proving the token was
        # spent); the second submission is rate-limited.  A fresh tenant
        # still has its own full bucket.
        service = VerificationService(parallelism=1, max_depth=0,
                                      rate=0.001, burst=1.0,
                                      cache_dir=str(tmp_path / "cache"))
        try:
            with pytest.raises(ServiceBusy):
                service.submit(_conditional_job().to_dict(), tenant="noisy")
            with pytest.raises(RateLimited) as caught:
                service.submit(_conditional_job().to_dict(), tenant="noisy")
            assert caught.value.retry_after > 0
            with pytest.raises(ServiceBusy) as other:
                service.submit(_conditional_job().to_dict(), tenant="quiet")
            assert not isinstance(other.value, RateLimited)
            stats = service.stats()
            assert stats["rejected"] == {"busy": 2, "rate": 1}
            assert stats["tenants"] == 2
        finally:
            service.close()

    def test_status_describes_the_queue_only(self, tmp_path):
        """With no solver tier there is no solver to report: ``/healthz``
        and ``/stats`` carry queue and admission fields alone."""
        service = VerificationService(parallelism=1, max_depth=3,
                                      cache_dir=str(tmp_path / "cache"))
        try:
            assert service.healthz() == {"status": "ok", "depth": 0,
                                         "max_depth": 3, "parallelism": 1}
            assert sorted(service.stats()) == [
                "cache_hits", "coalesced", "completed", "flights",
                "max_depth", "outcomes", "queued", "rejected", "requeued",
                "restored", "running", "submitted", "tenants", "tickets"]
        finally:
            service.close()

    def test_malformed_job_is_refused_before_admission_control(self,
                                                              tmp_path):
        """A bad job gets its 400 even while the queue is full, and spends
        no rate token: the job check runs before either policy."""
        service = VerificationService(parallelism=1, max_depth=0,
                                      rate=0.001, burst=1.0,
                                      cache_dir=str(tmp_path / "cache"))
        hostile = {"job_id": "x", "factory": "subprocess:getoutput",
                   "kwargs": {"cmd": "true"}}
        try:
            for _ in range(2):
                with pytest.raises(ConfigurationError):
                    service.submit(hostile, tenant="t")
            assert service.stats()["rejected"] == {"busy": 0, "rate": 0}
            # The tenant's only token is unspent: a well-formed job passes
            # the rate check and stops at the depth bound.
            with pytest.raises(ServiceBusy) as caught:
                service.submit(_conditional_job().to_dict(), tenant="t")
            assert not isinstance(caught.value, RateLimited)
        finally:
            service.close()

    def test_malformed_job_is_a_configuration_error(self, tmp_path):
        service = VerificationService(parallelism=1,
                                      cache_dir=str(tmp_path / "cache"))
        try:
            with pytest.raises(ConfigurationError):
                service.submit({"factory": "conditional"})
        finally:
            service.close()

    @pytest.mark.parametrize("field", [{"engine": "compiled"},
                                       {"workers": 2}])
    def test_removed_engine_and_workers_are_rejected_at_submit(
            self, tmp_path, field):
        service = VerificationService(parallelism=1,
                                      cache_dir=str(tmp_path / "cache"))
        try:
            payload = dict(_conditional_job().to_dict(), **field)
            with pytest.raises(ConfigurationError):
                service.submit(payload)
            assert service.stats()["submitted"] == 0
        finally:
            service.close()

    def test_client_spill_fields_are_ignored_by_the_daemon(self, tmp_path,
                                                           monkeypatch):
        """Spill is the daemon host's setting: a per-job directory sent by
        an old client must not be created (or used) on the daemon side."""
        monkeypatch.delenv("REPRO_SPILL_DIR", raising=False)
        monkeypatch.delenv("REPRO_SPILL_BYTES", raising=False)
        client_dir = tmp_path / "made-by-client"
        payload = dict(_conditional_job().to_dict(),
                       spill_dir=str(client_dir), spill_bytes=0)
        assert VerificationJob.from_dict(payload).options() == \
            _conditional_job().options()
        service = VerificationService(parallelism=1,
                                      cache_dir=str(tmp_path / "cache"))
        try:
            result = service.submit(payload).wait(120)
            assert result.status == "ok"
            assert not client_dir.exists()
        finally:
            service.close()

    @pytest.mark.parametrize("field,message", [
        ({"engine": "explicit"}, "unknown reachability engine"),
        ({"max_witnesses": -1}, "max_witnesses"),
        ({"properties": ["deadlok"]}, "unknown property 'deadlok'"),
        ({"properties": ["deadlock"], "custom_properties": {"deadlock": "true"}},
         "shadow built-in checks"),
        ({"factory": "subprocess:getoutput"}, "unknown model factory"),
        ({"kwargs": {"bogus": 1}}, "kwargs do not fit the conditional family"),
        ({"checker": "quantum"}, "unknown checker 'quantum'"),
        ({"kwargs": 5}, "malformed job field kwargs"),
        ({"max_states": "abc"}, "malformed job field max_states"),
        ({"properties": 5}, "malformed job field properties"),
        ({"custom_properties": [1]}, "malformed job field custom_properties"),
        ({"checker_options": 3}, "malformed job field checker_options"),
        ({"max_witnesses": None}, "malformed job field max_witnesses"),
        ({"lfsr_seed": "abc"}, "malformed job field lfsr_seed"),
        ({"voltage": "high"}, "malformed job field voltage"),
        ({"expect": "bogus"}, "unknown expectation 'bogus'"),
    ], ids=["explicit-engine", "negative-budget", "unknown-property",
            "custom-shadows-builtin", "import-path-factory", "unbound-kwargs",
            "unknown-checker", "kwargs-not-mapping", "max-states-not-int",
            "properties-not-list", "custom-not-mapping",
            "checker-options-not-mapping", "null-budget", "seed-not-int",
            "voltage-not-number", "unknown-expectation"])
    def test_engine_choice_and_negative_budget_are_refused_at_submit(
            self, tmp_path, field, message):
        service = VerificationService(parallelism=1,
                                      cache_dir=str(tmp_path / "cache"))
        try:
            payload = dict(_conditional_job().to_dict(), **field)
            with pytest.raises(ConfigurationError, match=message):
                service.submit(payload)
            assert service.stats()["submitted"] == 0
        finally:
            service.close()


# -- the HTTP API -------------------------------------------------------------


class TestHttpApi:
    def test_submit_poll_stream_report_round_trip(self, tmp_path):
        service = VerificationService(parallelism=1,
                                      cache_dir=str(tmp_path / "cache"))
        with _DaemonThread(service) as daemon:
            client = ServiceClient(daemon.address, tenant="ci")
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["parallelism"] == 1

            ticket = client.submit(_conditional_job("http-1"))
            assert ticket["job_id"] == "http-1"
            assert ticket["tenant"] == "ci"
            assert ticket["links"]["events"].endswith("/events")

            record = client.wait(ticket["id"], timeout=120.0)
            assert record["status"] == "done"
            assert record["result"]["status"] == "ok"
            assert record["result"]["cache"] == "miss"

            events = list(client.events(ticket["id"]))
            names = [event["event"] for event in events]
            assert names[0] == "job-queued"
            assert names[-1] == "job-finished"
            assert "property-finished" in names
            assert [event["seq"] for event in events] == \
                list(range(len(events)))

            report = client.report(ticket["id"])
            assert report["summary"]["jobs"] == 1
            assert report["summary"]["mismatched"] == 0
            markdown = client.report(ticket["id"], fmt="markdown")
            assert "| scenario |" in markdown

            # A warm resubmission (same tenant) is answered at submit time.
            warm = client.submit(_conditional_job("http-2"))
            assert warm["status"] == "done"
            assert warm["result"]["cache"] == "hit"
            # A different tenant's cache is cold for the same content key.
            other = ServiceClient(daemon.address, tenant="other")
            cold = other.submit(_conditional_job("http-3"))
            assert other.wait(cold["id"],
                              timeout=120.0)["result"]["cache"] == "miss"

            stats = client.stats()
            assert stats["submitted"] == 3
            assert stats["cache_hits"] == 1

    def test_error_statuses(self, tmp_path):
        service = VerificationService(parallelism=1,
                                      cache_dir=str(tmp_path / "cache"))
        with _DaemonThread(service) as daemon:
            client = ServiceClient(daemon.address)
            with pytest.raises(ServiceClientError) as missing:
                client.job("no-such-ticket")
            assert missing.value.status == 404
            with pytest.raises(ServiceClientError) as missing:
                client.report("no-such-ticket")
            assert missing.value.status == 404

            bad = _conditional_job().to_dict()
            bad["max_sates"] = 7
            with pytest.raises(ServiceClientError) as rejected:
                client.submit(bad)
            assert rejected.value.status == 400
            assert "unknown job field" in str(rejected.value)

            # A factory named by import path would run a shell command; it
            # must be refused before anything runs it.
            marker = tmp_path / "marker"
            with pytest.raises(ServiceClientError) as hostile:
                client.submit({"job_id": "x", "factory": "subprocess:getoutput",
                               "kwargs": {"cmd": "touch {}".format(marker)}})
            assert hostile.value.status == 400
            assert "unknown model factory" in str(hostile.value)
            assert not marker.exists()

            with pytest.raises(ServiceClientError) as tenant:
                client.submit({"job": _conditional_job().to_dict(),
                               "tenant": ["a"]})
            assert tenant.value.status == 400
            assert "a tenant must be a string" in str(tenant.value)

            with socket.create_connection((daemon.host, daemon.port)) as raw:
                raw.sendall(b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                            b"Content-Length: -5\r\n\r\n")
                reply = raw.makefile("rb").read()
            assert reply.startswith(b"HTTP/1.1 400 ")
            assert b"malformed Content-Length" in reply

            ticket = client.submit(_conditional_job("fmt"))
            client.wait(ticket["id"], timeout=120.0)
            with pytest.raises(ServiceClientError) as fmt:
                client.report(ticket["id"], fmt="xml")
            assert fmt.value.status == 400

    def test_removed_engine_and_workers_answer_400(self, tmp_path):
        service = VerificationService(parallelism=1,
                                      cache_dir=str(tmp_path / "cache"))
        with _DaemonThread(service) as daemon:
            client = ServiceClient(daemon.address)
            for field, message in (({"engine": "compiled"},
                                    "unknown reachability engine"),
                                   ({"workers": 2}, "unknown job field")):
                payload = dict(_conditional_job().to_dict(), **field)
                with pytest.raises(ServiceClientError) as rejected:
                    client.submit(payload)
                assert rejected.value.status == 400
                assert message in str(rejected.value)
            assert client.stats()["submitted"] == 0

    def test_unknown_checker_options_answer_400(self, tmp_path):
        service = VerificationService(parallelism=1,
                                      cache_dir=str(tmp_path / "cache"))
        with _DaemonThread(service) as daemon:
            client = ServiceClient(daemon.address)
            for options in ({"walk": {"backend": "scalar"}},
                            {"walk": {"bogus": 1}},
                            {"portfolio": {"walk": {"backend": "scalar"}}}):
                payload = dict(_conditional_job().to_dict(),
                               checker="portfolio", checker_options=options)
                with pytest.raises(ServiceClientError) as rejected:
                    client.submit(payload)
                assert rejected.value.status == 400
                assert "unknown option" in str(rejected.value)
            assert client.stats()["submitted"] == 0

    def test_retired_solver_checkers_answer_400(self, tmp_path):
        service = VerificationService(parallelism=1,
                                      cache_dir=str(tmp_path / "cache"))
        with _DaemonThread(service) as daemon:
            client = ServiceClient(daemon.address)
            for fields, message in (
                    ({"checker": "kinduction"}, "unknown checker 'kinduction'"),
                    ({"checker": "ic3"}, "unknown checker 'ic3'"),
                    ({"checker": "portfolio",
                      "checker_options": {"portfolio": {"bmc": {}}}},
                     "unknown option 'bmc' for the portfolio checker"),
                    ({"checker": "portfolio",
                      "checker_options": {"bmc": {"max_depth": 4}}},
                     "unknown checker 'bmc'")):
                payload = dict(_conditional_job().to_dict(), **fields)
                with pytest.raises(ServiceClientError) as rejected:
                    client.submit(payload)
                assert rejected.value.status == 400
                text = str(rejected.value)
                assert message in text
                assert "exhaustive, inductive, portfolio, walk" in text
            assert client.stats()["submitted"] == 0

    def test_backpressure_maps_to_429_with_retry_after(self, tmp_path):
        service = VerificationService(parallelism=1, max_depth=0,
                                      cache_dir=str(tmp_path / "cache"))
        with _DaemonThread(service) as daemon:
            client = ServiceClient(daemon.address)
            with pytest.raises(ClientBusy) as caught:
                client.submit(_conditional_job())
            assert caught.value.status == 429
            assert caught.value.retry_after >= 1.0

    @needs_fork
    def test_http_stampede_executes_once(self, tmp_path, counting_family):
        service = VerificationService(parallelism=2,
                                      cache_dir=str(tmp_path / "cache"))
        with _DaemonThread(service) as daemon:
            client = ServiceClient(daemon.address, tenant="ci")
            tickets = [None] * 8
            def submit(index):
                tickets[index] = client.submit(
                    counting_family.job("http-stampede-{}".format(index)))
            threads = [threading.Thread(target=submit, args=(index,))
                       for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            records = [client.wait(ticket["id"], timeout=120.0)
                       for ticket in tickets]
        caches = sorted(record["result"]["cache"] for record in records)
        assert all(record["result"]["status"] == "ok" for record in records)
        assert caches.count("miss") == 1
        assert len(counting_family.pool_executions()) == 1

    def test_remote_campaign_cli_round_trip(self, tmp_path):
        service = VerificationService(parallelism=1,
                                      cache_dir=str(tmp_path / "cache"))
        with _DaemonThread(service) as daemon:
            report_path = str(tmp_path / "remote.json")
            argv = ["campaign", "--grid", "depth=2", "--server",
                    daemon.address, "--tenant", "ci", "--json", report_path,
                    "--quiet"]
            assert cli_main(argv) == 0
            payload = json.load(open(report_path, encoding="utf-8"))
            assert payload["summary"]["jobs"] == 1
            assert payload["summary"]["mismatched"] == 0
            # The daemon's cache served nothing cold the second time round.
            assert cli_main(argv) == 0
            warm = json.load(open(report_path, encoding="utf-8"))
            assert warm["summary"]["cache_hits"] == 1


# -- event ordering and shutdown on the serving path ---------------------------


def _slow_job(job_id="slow"):
    """A built-in job that outlives a 1 s wait several times over.

    The 5-stage OPE, prefix 3 (3,688,308 states): its verification runs
    for about 5 s on a 2-core x86-64, where the 4-stage, prefix-2 OPE
    takes about 1.2 s, too close to the 1 s wait.  Both tests stop the
    daemon long before it finishes.
    """
    return VerificationJob(job_id, "pipeline",
                           kwargs={"stages": 5, "static_prefix": 3},
                           max_states=4000000)


class TestServingEdges:
    def test_property_events_always_precede_job_finished(self):
        scheduler = CampaignScheduler(parallelism=2)
        try:
            # Distinct state bounds give distinct keys: every job runs in a
            # worker instead of coalescing onto the first.
            tickets = [scheduler.submit(VerificationJob(
                "order-{}".format(i), "conditional",
                kwargs={"comp_stages": 1}, properties=("safeness", "deadlock"),
                max_states=1000 + i)) for i in range(40)]
            results = [ticket.wait(timeout=120) for ticket in tickets]
        finally:
            scheduler.shutdown()
        assert all(result.status == "ok" for result in results)
        for ticket in tickets:
            names = [event["event"] for event in ticket.events()]
            assert names[-1] == "job-finished"
            assert names.count("job-finished") == 1
            assert names.count("property-started") == 2
            assert names.count("property-finished") == 2

    def test_wait_reopens_a_silent_stream_within_its_timeout(
            self, tmp_path, monkeypatch):
        service = VerificationService(parallelism=1,
                                      cache_dir=str(tmp_path / "cache"))
        with _DaemonThread(service) as daemon:
            client = ServiceClient(daemon.address, timeout=0.3)
            ticket = client.submit(_slow_job())
            opened = []
            open_once = client._open_once

            def counting_open(method, path, payload=None, **options):
                opened.append(path)
                return open_once(method, path, payload, **options)

            monkeypatch.setattr(client, "_open_once", counting_open)
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                client.wait(ticket["id"], timeout=1.0)
            assert time.monotonic() - started < 3.0
            assert opened.count("/jobs/{}/events".format(ticket["id"])) >= 2

    def test_stopping_the_daemon_ends_open_streams(self, tmp_path):
        service = VerificationService(parallelism=1,
                                      cache_dir=str(tmp_path / "cache"))
        seen = []
        live = threading.Event()
        harness = _DaemonThread(service)
        with harness as daemon:
            client = ServiceClient(daemon.address)
            ticket_id = client.submit(_slow_job())["id"]

            def follow():
                for event in client.events(ticket_id):
                    seen.append(event["event"])
                    if event["event"] == "job-started":
                        live.set()

            follower = threading.Thread(target=follow, daemon=True)
            follower.start()
            assert live.wait(60), "the job never started"
            stopping = time.monotonic()
        follower.join(10)
        assert not follower.is_alive(), "the stream outlived the daemon"
        assert time.monotonic() - stopping < 10
        assert "job-finished" not in seen
        # No stream is left waiting on a ticket that nobody will update.
        assert service.ticket(ticket_id)._listeners == []
        assert not daemon._streams
