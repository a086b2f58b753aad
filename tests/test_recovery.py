"""Crash-recovery tier: checkpoints, journal replay, and injected faults.

Three layers of the crash story are exercised end to end:

* **exploration checkpoints** -- a run SIGKILLed mid-level (via the
  ``kill_worker@level`` fault) leaves a per-level manifest next to its
  columnar arrays; the resumed run restarts from the last complete level
  and produces a graph **bit-identical** to an uninterrupted one (asserted
  by hashing every array);
* **service durability** -- a daemon SIGKILLed mid-campaign and restarted
  with the same ``--state-dir`` answers old ticket ids: finished tickets
  from the journal, in-flight ones by re-running;
* **fault sites** -- ``io_error@write`` surfaces as :class:`FaultError`
  from a columnar store's write path, ``kill_worker@task`` crashes a supervised worker
  (contained as a ``"crashed"`` outcome).
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time
import urllib.error

import pytest

from repro.campaign.jobs import build_pipeline_model
from repro.dfs.examples import linear_pipeline
from repro.dfs.translation import to_petri_net
from repro.exceptions import ConfigurationError, SafenessOverflowError
from repro.parallel.supervisor import SupervisorPool
from repro.petri.reachability import build_reachability_graph
from repro.service.client import ServiceClient, ServiceClientError
from repro.utils import faults
from repro.utils.faults import FaultError
from repro.utils.journal import read_journal
from repro.verification.checkers import CheckerContext
from test_petri_batch import (
    HAZARD_NETS,
    assert_identical,
    assert_membership,
    overflow_hazard_net,
)

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Child process: explore a model (linear_pipeline(4), or the 4-stage OPE
#: of static prefix 1, two words in the dense layout, cut at 3000 states
#: with "ope4p1") and print a graph digest:
#: the canonical arrays with regenerated edges and rebuilt parents, and the
#: deadlock indices.
#: Run with a checkpoint directory (or "-"); faults are injected through
#: the inherited REPRO_FAULTS environment.
EXPLORER = '''
import hashlib, json, sys

sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})

from oracles.compiled import graph_columns
from repro.campaign.jobs import build_pipeline_model
from repro.dfs.examples import linear_pipeline
from repro.dfs.translation import to_petri_net
from repro.petri.reachability import build_reachability_graph


def digest(graph):
    material = hashlib.sha256()
    for array in graph_columns(graph) + (graph._dead_arr,):
        material.update(array.tobytes())
    return material.hexdigest()


checkpoint = None if sys.argv[1] == "-" else sys.argv[1]
if sys.argv[2:] == ["ope4p1"]:
    net = to_petri_net(build_pipeline_model(4, static_prefix=1))
    graph = build_reachability_graph(net, max_states=3000, resume=checkpoint)
else:
    net = to_petri_net(linear_pipeline(4))
    graph = build_reachability_graph(net, resume=checkpoint)
print(json.dumps({{
    "states": len(graph),
    "truncated": bool(graph.truncated),
    "digest": digest(graph),
    "resumed_from": graph.exploration_stats["checkpoint"]["resumed_from_level"],
}}))
'''.format(src=str(SRC_DIR),
                         tests=str(SRC_DIR.parent / "tests"))


def _child_env(fault=None):
    """The environment of a child process: this tree's sources, one fault."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FAULTS", None)
    if fault:
        env["REPRO_FAULTS"] = fault
    return env


def _run_explorer(checkpoint, fault=None, model=None):
    """Run the explorer child; return (returncode, parsed stdout or None)."""
    env = _child_env(fault)
    argv = [sys.executable, "-c", EXPLORER, checkpoint or "-"]
    if model:
        argv.append(model)
    completed = subprocess.run(argv, capture_output=True, text=True, env=env,
                               timeout=300)
    payload = None
    if completed.returncode == 0:
        payload = json.loads(completed.stdout)
    return completed.returncode, payload


@pytest.fixture
def fault_plan(monkeypatch):
    """Configure in-process fault injection for one test, then clear it."""
    def arm(spec):
        monkeypatch.setenv("REPRO_FAULTS", spec)
        faults.reset()
    yield arm
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.reset()


# -- exploration checkpoint/resume --------------------------------------------


class TestCheckpointResume:
    def test_completed_run_discards_its_checkpoint_files(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        net = to_petri_net(linear_pipeline(4))
        reference = build_reachability_graph(net)
        graph = build_reachability_graph(net, resume=checkpoint)
        assert_identical(reference, graph)
        assert os.listdir(checkpoint) == []

    def test_overflowing_run_discards_its_checkpoint_files(self, tmp_path):
        """An overflow is the run's final verdict, as a completed graph is:
        it leaves nothing to resume, so a second run explores afresh."""
        checkpoint = str(tmp_path / "ckpt")
        net = overflow_hazard_net(*HAZARD_NETS[0])
        with pytest.raises(SafenessOverflowError) as first:
            build_reachability_graph(net, resume=checkpoint)
        assert os.listdir(checkpoint) == []
        context = CheckerContext(net, resume=checkpoint)
        assert context.graph is None
        assert context.overflow.trace == first.value.trace
        assert os.listdir(checkpoint) == []

    def test_io_fault_keeps_checkpoint_and_resume_is_bit_identical(
            self, tmp_path, fault_plan):
        """A mid-exploration write error leaves a resumable checkpoint."""
        checkpoint = str(tmp_path / "ckpt")
        net = to_petri_net(linear_pipeline(4))
        reference = build_reachability_graph(net)
        fault_plan("io_error@write=40")
        with pytest.raises(FaultError):
            build_reachability_graph(net, resume=checkpoint)
        assert "checkpoint.json" in os.listdir(checkpoint)
        fault_plan("")  # disarm
        resumed = build_reachability_graph(net, resume=checkpoint)
        stats = resumed.exploration_stats["checkpoint"]
        assert stats["resumed_from_level"] >= 1
        assert_identical(reference, resumed)
        assert os.listdir(checkpoint) == []

    def test_write_fault_in_every_level_resumes_bit_identical(
            self, tmp_path, fault_plan):
        """A write error in each BFS level of the two-word, truncated ope4p1
        exploration -- from the initial row to the last level -- resumes
        from the manifest's level to the uninterrupted graph."""
        net = to_petri_net(build_pipeline_model(4, static_prefix=1))
        reference = build_reachability_graph(net, max_states=3000)
        assert reference.truncated and reference.tables.words >= 2
        levels = reference.exploration_stats["levels"]
        resumed_from = set()
        # A fault on every store append that writes rows: an admitting
        # level makes two to four (parents, words, and dead and frontier
        # when it has a deadlock or the budget cut it), the level after
        # the cut only its frontier append.  The last assert checks that
        # every level was hit.
        for nth in range(1, 100):
            checkpoint = str(tmp_path / str(nth))
            fault_plan("io_error@write={}".format(nth))
            try:
                build_reachability_graph(net, max_states=3000,
                                         resume=checkpoint)
            except FaultError:
                pass
            else:
                break  # past the last write of the run
            manifest = os.path.join(checkpoint, "checkpoint.json")
            expected = None
            if os.path.exists(manifest):
                with open(manifest) as handle:
                    expected = json.load(handle)["progress"]["levels"]
            fault_plan("")
            resumed = build_reachability_graph(net, max_states=3000,
                                               resume=checkpoint)
            stats = resumed.exploration_stats["checkpoint"]
            assert stats["resumed_from_level"] == expected, nth
            assert_identical(reference, resumed, nth)
            assert os.listdir(checkpoint) == []
            resumed_from.add(expected)
        else:
            pytest.fail("the write faults never ran past the exploration")
        assert resumed_from == {None, *range(1, levels)}

    def test_foreign_checkpoint_is_ignored_not_resumed(self, tmp_path,
                                                       fault_plan):
        """A checkpoint of a different exploration starts a fresh run."""
        checkpoint = str(tmp_path / "ckpt")
        net = to_petri_net(linear_pipeline(4))
        fault_plan("io_error@write=40")
        with pytest.raises(FaultError):
            build_reachability_graph(net, resume=checkpoint)
        fault_plan("")
        # Same net, different max_states: a different exploration identity.
        reference = build_reachability_graph(net, max_states=50)
        other = build_reachability_graph(net, max_states=50,
                                         resume=checkpoint)
        assert other.exploration_stats["checkpoint"]["resumed_from_level"] \
            is None
        assert_identical(reference, other)

    def test_corrupt_manifest_degrades_to_a_fresh_run(self, tmp_path,
                                                      fault_plan):
        checkpoint = str(tmp_path / "ckpt")
        net = to_petri_net(linear_pipeline(4))
        fault_plan("io_error@write=40")
        with pytest.raises(FaultError):
            build_reachability_graph(net, resume=checkpoint)
        fault_plan("")
        with open(os.path.join(checkpoint, "checkpoint.json"), "w") as handle:
            handle.write("{ not json")
        reference = build_reachability_graph(net)
        graph = build_reachability_graph(net, resume=checkpoint)
        assert graph.exploration_stats["checkpoint"]["resumed_from_level"] \
            is None
        assert_identical(reference, graph)


    def test_malformed_store_entry_degrades_to_a_fresh_run(self, tmp_path,
                                                           fault_plan):
        """A manifest entry missing its CRC is damage, not a crash."""
        checkpoint = str(tmp_path / "ckpt")
        net = to_petri_net(linear_pipeline(4))
        fault_plan("io_error@write=40")
        with pytest.raises(FaultError):
            build_reachability_graph(net, resume=checkpoint)
        fault_plan("")
        path = os.path.join(checkpoint, "checkpoint.json")
        with open(path) as handle:
            manifest = json.load(handle)
        del manifest["stores"]["dead"]["crc"]
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        graph = build_reachability_graph(net, resume=checkpoint)
        assert graph.exploration_stats["checkpoint"]["resumed_from_level"] \
            is None
        assert_identical(build_reachability_graph(net), graph)
        assert os.listdir(checkpoint) == []

    @pytest.mark.parametrize("path,value", [
        (("progress", "level_start"), None),
        (("progress", "total"), "x"),
        (("progress", "total"), -1),
        (("progress", "total"), 1),
        (("progress", "levels"), -1),
        (("progress", "levels"), 2.0),
        (("progress", "levels"), True),
        (("progress", "level_start"), -1),
        (("progress", "level_start"), 10 ** 9),
        (("progress", "edges"), None),
        (("progress", "edges"), -1),
        (("progress", "truncated"), "no"),
        (("progress", "truncated"), None),
        (("version",), 1),
        (("version",), 2),
        (("version",), 3),
    ])
    def test_bad_progress_or_version_degrades_to_a_fresh_run(
            self, tmp_path, fault_plan, path, value):
        """A manifest whose stores pass their CRCs but whose progress
        record has a field missing (``None`` here), mistyped or out of
        range -- or that has an older version (1 kept edges, 2 one bit per
        place in every row, 3 packed parents and enabled sets) -- is
        damage, not a crash."""
        checkpoint = str(tmp_path / "ckpt")
        net = to_petri_net(linear_pipeline(4))
        fault_plan("io_error@write=40")
        with pytest.raises(FaultError):
            build_reachability_graph(net, resume=checkpoint)
        fault_plan("")
        manifest_path = os.path.join(checkpoint, "checkpoint.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        *parents, key = path
        entry = manifest
        for name in parents:
            entry = entry[name]
        if value is None:
            del entry[key]
        else:
            entry[key] = value
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        graph = build_reachability_graph(net, resume=checkpoint)
        assert graph.exploration_stats["checkpoint"]["resumed_from_level"] \
            is None
        assert_identical(build_reachability_graph(net), graph)
        assert os.listdir(checkpoint) == []


    def test_missing_store_file_degrades_to_a_fresh_run(self, tmp_path,
                                                        fault_plan):
        """A store file that does not open is damage, not a crash."""
        checkpoint = str(tmp_path / "ckpt")
        net = to_petri_net(linear_pipeline(4))
        fault_plan("io_error@write=40")
        with pytest.raises(FaultError):
            build_reachability_graph(net, resume=checkpoint)
        fault_plan("")
        os.remove(os.path.join(checkpoint, "parents.bin"))
        graph = build_reachability_graph(net, resume=checkpoint)
        assert graph.exploration_stats["checkpoint"]["resumed_from_level"] \
            is None
        assert_identical(build_reachability_graph(net), graph)
        assert os.listdir(checkpoint) == []

    def test_store_path_that_is_a_directory_is_a_configuration_error(
            self, tmp_path, fault_plan):
        """A damaged checkpoint whose fresh start cannot create a store
        file either raises an error naming the path."""
        checkpoint = str(tmp_path / "ckpt")
        net = to_petri_net(linear_pipeline(4))
        fault_plan("io_error@write=40")
        with pytest.raises(FaultError):
            build_reachability_graph(net, resume=checkpoint)
        fault_plan("")
        words = os.path.join(checkpoint, "words.bin")
        os.remove(words)
        os.mkdir(words)
        with pytest.raises(ConfigurationError, match="words.bin"):
            build_reachability_graph(net, resume=checkpoint)

    @pytest.mark.parametrize("name", ["words.bin", "checkpoint.json"])
    def test_store_path_that_is_a_directory_exits_2(self, tmp_path, name):
        """Exit 1 means "a property is violated": a checkpoint directory
        that cannot hold a store file or the manifest is an error,
        reported in one line."""
        checkpoint = tmp_path / "ck"
        (checkpoint / name).mkdir(parents=True)
        completed = subprocess.run(
            [sys.executable, "-m", "repro.workcraft.cli", "verify",
             "--example", "ring", "--resume", str(checkpoint),
             "--no-persistence"],
            capture_output=True, text=True, timeout=120, env=_child_env())
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert completed.stderr.startswith("repro-dfs: error: ")
        assert str(checkpoint / name) in completed.stderr


class TestKillResume:
    """SIGKILL mid-level, resume, diff -- the acceptance criterion."""

    def test_sigkilled_batch_exploration_resumes_bit_identical(self,
                                                               tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        code, reference = _run_explorer(None)
        assert code == 0
        code, _ = _run_explorer(checkpoint, fault="kill_worker@level=10")
        assert code == -signal.SIGKILL
        assert "checkpoint.json" in os.listdir(checkpoint)
        code, resumed = _run_explorer(checkpoint)
        assert code == 0
        assert resumed["resumed_from"] >= 1
        assert resumed["digest"] == reference["digest"]
        assert resumed["states"] == reference["states"]
        assert os.listdir(checkpoint) == []  # zero leftovers after success

    def test_resumed_index_answers_membership(self, tmp_path):
        """The hash index rebuilt from the checkpointed words is exact."""
        checkpoint = str(tmp_path / "ckpt")
        code, _ = _run_explorer(checkpoint, fault="kill_worker@level=5",
                                model="ope4p1")
        assert code == -signal.SIGKILL
        net = to_petri_net(build_pipeline_model(4, static_prefix=1))
        resumed = build_reachability_graph(net, max_states=3000,
                                           resume=checkpoint)
        assert resumed.exploration_stats["checkpoint"]["resumed_from_level"] \
            >= 1
        assert resumed.tables.words >= 2
        assert_identical(build_reachability_graph(net, max_states=3000),
                         resumed)
        assert_membership(resumed)


# -- fault sites --------------------------------------------------------------


class TestFaultSites:
    def test_io_error_fault_raises_from_the_store_write_path(self,
                                                             fault_plan):
        fault_plan("io_error@write=1")
        net = to_petri_net(linear_pipeline(2))
        with pytest.raises(FaultError):
            build_reachability_graph(net)

    def test_kill_worker_task_fault_is_contained_as_crashed(self,
                                                            fault_plan):
        fault_plan("kill_worker@task=1")
        outcomes = []
        pool = SupervisorPool(1, timeout=30.0)
        pool.submit("t1", _noop, on_outcome=outcomes.append)
        pool.shutdown(wait=True, cancel_pending=False)
        assert [outcome.status for outcome in outcomes] == ["crashed"]

    def test_unfaulted_trigger_is_a_cheap_no_op(self, fault_plan):
        fault_plan("")
        assert faults.trigger("kill_worker", "level") is False


def _noop():
    return "ran"


# -- service client retries ---------------------------------------------------


class TestClientConnectionRetries:
    def _client(self, retries=3):
        return ServiceClient("http://127.0.0.1:1", connect_retries=retries,
                             connect_backoff=0.05, connect_backoff_cap=0.2)

    def test_refused_connections_retry_then_name_the_attempt_count(
            self, monkeypatch):
        client = self._client(retries=3)
        attempts = []
        delays = []

        def failing(method, path, payload=None):
            attempts.append(path)
            raise urllib.error.URLError(ConnectionRefusedError(111, "refused"))

        monkeypatch.setattr(client, "_open_once", failing)
        monkeypatch.setattr(time, "sleep", delays.append)
        with pytest.raises(ServiceClientError) as caught:
            client.healthz()
        assert len(attempts) == 4  # 1 try + 3 retries
        assert "4 attempt(s)" in str(caught.value)
        # Exponential backoff with deterministic jitter: delays grow and
        # stay within +-25% of base * 2**attempt (capped).
        assert len(delays) == 3
        for index, delay in enumerate(delays):
            base = min(0.05 * (2 ** index), 0.2)
            assert base * 0.75 <= delay <= base * 1.25
        assert delays == sorted(delays)

    def test_jitter_is_deterministic_per_request(self, monkeypatch):
        recorded = []
        for _ in range(2):
            client = self._client(retries=2)
            delays = []
            monkeypatch.setattr(
                client, "_open_once",
                lambda *a, **k: (_ for _ in ()).throw(
                    urllib.error.URLError(ConnectionResetError(104, "reset"))))
            monkeypatch.setattr(time, "sleep", delays.append)
            with pytest.raises(ServiceClientError):
                client.healthz()
            recorded.append(tuple(delays))
        assert recorded[0] == recorded[1]

    def test_recovery_mid_retry_returns_the_response(self, monkeypatch):
        client = self._client(retries=5)
        calls = {"n": 0}

        class _Response:
            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            @staticmethod
            def read():
                return b'{"status": "ok"}'

        def flaky(method, path, payload=None):
            calls["n"] += 1
            if calls["n"] < 3:
                raise urllib.error.URLError(
                    ConnectionRefusedError(111, "refused"))
            return _Response()

        monkeypatch.setattr(client, "_open_once", flaky)
        monkeypatch.setattr(time, "sleep", lambda _: None)
        assert client.healthz() == {"status": "ok"}
        assert calls["n"] == 3

    def test_non_connection_urlerror_is_not_retried(self, monkeypatch):
        client = self._client(retries=5)
        attempts = []

        def dns_failure(method, path, payload=None):
            attempts.append(path)
            raise urllib.error.URLError(OSError("no such host"))

        monkeypatch.setattr(client, "_open_once", dns_failure)
        with pytest.raises(urllib.error.URLError):
            client.healthz()
        assert len(attempts) == 1


# -- daemon crash / restart ---------------------------------------------------


def _free_state_daemon(state_dir, cache_dir, port=0):
    """Start `repro-dfs serve --state-dir` as a child; return (proc, url)."""
    env = _child_env()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.workcraft.cli", "serve",
         "--host", "127.0.0.1", "--port", str(port), "--jobs", "1",
         "--state-dir", state_dir, "--cache-dir", cache_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    line = process.stdout.readline()
    assert "serving verification on" in line, line
    return process, line.split()[-1].strip()


def _job_payload(job_id):
    return {"job_id": job_id, "factory": "pipeline",
            "kwargs": {"stages": 2}, "properties": ["safeness", "deadlock"],
            "max_states": 20000, "expect": "pass"}


class TestDaemonCrashRecovery:
    def test_killed_daemon_restarted_with_state_dir_answers_old_tickets(
            self, tmp_path):
        state = str(tmp_path / "state")
        cache = str(tmp_path / "cache")
        process, url = _free_state_daemon(state, cache)
        try:
            client = ServiceClient(url, connect_backoff=0.05)
            finished = client.submit(_job_payload("done-before-crash"))
            record = client.wait(finished["id"], timeout=120.0)
            assert record["result"]["status"] == "ok"
        finally:
            process.kill()  # SIGKILL: no shutdown hooks run
            process.wait(timeout=30)
        # The journal survived the kill and holds the finished verdict.
        events = [r["event"]
                  for r in read_journal(os.path.join(state, "journal"))]
        assert "submit" in events and "verdict" in events
        # Same state dir, new port: the old ticket id must still resolve.
        process, url = _free_state_daemon(state, cache)
        try:
            client = ServiceClient(url, connect_backoff=0.05)
            record = client.wait(finished["id"], timeout=60.0)
            assert record["status"] == "done"
            assert record["result"]["status"] == "ok"
            stats = client.stats()
            assert stats["restored"] >= 1
        finally:
            process.kill()
            process.wait(timeout=30)

    def test_inflight_ticket_is_rerun_after_restart(self, tmp_path):
        """A ticket the daemon died holding is re-enqueued on replay."""
        from repro.campaign.scheduler import CampaignScheduler
        from repro.utils.journal import JournalWriter

        state = str(tmp_path / "state")
        with JournalWriter(os.path.join(state, "journal")) as writer:
            writer.append({"event": "submit", "ticket": "inflight01",
                           "job": _job_payload("was-running"),
                           "tenant": None, "priority": 0, "timeout": None,
                           "time": 0.0})
            writer.append({"event": "start", "ticket": "inflight01"})
        scheduler = CampaignScheduler(parallelism=0, state_dir=state)
        try:
            ticket = scheduler.get("inflight01")
            assert ticket is not None
            result = ticket.wait(timeout=120.0)
            assert result.status == "ok"
            assert scheduler.stats()["requeued"] == 1
        finally:
            scheduler.shutdown()

    def test_journal_naming_the_auto_engine_is_replayed(self, tmp_path):
        """Journals written while jobs still named an engine carry
        ``"engine": "auto"``; replay restores their tickets, not skips them."""
        from repro.campaign.scheduler import CampaignScheduler
        from repro.utils.journal import JournalWriter

        state = str(tmp_path / "state")
        with JournalWriter(os.path.join(state, "journal")) as writer:
            writer.append({"event": "submit", "ticket": "engine01",
                           "job": dict(_job_payload("old-journal"),
                                       engine="auto"),
                           "tenant": None, "priority": 0, "timeout": None,
                           "time": 0.0})
        scheduler = CampaignScheduler(parallelism=0, state_dir=state)
        try:
            ticket = scheduler.get("engine01")
            assert ticket is not None
            assert ticket.wait(timeout=120.0).status == "ok"
        finally:
            scheduler.shutdown()

    def test_journal_naming_a_retired_checker_does_not_block_restart(
            self, tmp_path):
        """A submit record for ``bmc``, ``kinduction`` or ``ic3`` (checkers
        that no longer exist), or setting the walk checker's retired
        ``restarts`` option or the portfolio's retired ``race`` option, is
        malformed: replay skips it and serves the rest.  The ``"solver"``
        fingerprint every portfolio job carried before the solver tier was
        retired is dropped, not refused."""
        from repro.campaign.scheduler import CampaignScheduler
        from repro.utils.journal import JournalWriter

        state = str(tmp_path / "state")
        with JournalWriter(os.path.join(state, "journal")) as writer:
            for ticket, job in (
                    ("retired01", dict(_job_payload("bmc-job"),
                                       checker="bmc")),
                    ("retired02", dict(_job_payload("kind-job"),
                                       checker="portfolio",
                                       checker_options={
                                           "kinduction": {"max_depth": 4}})),
                    ("retired03", dict(_job_payload("walk-job"),
                                       checker="walk",
                                       checker_options={
                                           "walk": {"restarts": 4}})),
                    ("retired04", dict(_job_payload("ic3-job"),
                                       checker="ic3")),
                    ("retired05", dict(_job_payload("race-job"),
                                       checker="portfolio",
                                       checker_options={
                                           "portfolio": {"race": True}})),
                    ("kept01", _job_payload("still-valid")),
                    ("kept02", dict(_job_payload("old-portfolio"),
                                    checker="portfolio", solver=None))):
                writer.append({"event": "submit", "ticket": ticket,
                               "job": job, "tenant": None, "priority": 0,
                               "timeout": None, "time": 0.0})
        scheduler = CampaignScheduler(parallelism=0, state_dir=state)
        try:
            assert scheduler.get("retired01") is None
            assert scheduler.get("retired02") is None
            assert scheduler.get("retired03") is None
            assert scheduler.get("retired04") is None
            assert scheduler.get("retired05") is None
            for kept in ("kept01", "kept02"):
                ticket = scheduler.get(kept)
                assert ticket is not None
                assert ticket.wait(timeout=120.0).status == "ok"
        finally:
            scheduler.shutdown()

    def test_journal_carrying_spill_fields_is_replayed(self, tmp_path):
        """Jobs once carried a per-job spill directory and budget; journals
        holding them still replay (the fields are dropped), so no
        acknowledged ticket is lost."""
        from repro.campaign.scheduler import CampaignScheduler
        from repro.utils.journal import JournalWriter

        state = str(tmp_path / "state")
        with JournalWriter(os.path.join(state, "journal")) as writer:
            writer.append({"event": "submit", "ticket": "spill01",
                           "job": dict(_job_payload("old-journal"),
                                       spill_dir=str(tmp_path / "old-spill"),
                                       spill_bytes=1024),
                           "tenant": None, "priority": 0, "timeout": None,
                           "time": 0.0})
        scheduler = CampaignScheduler(parallelism=0, state_dir=state)
        try:
            ticket = scheduler.get("spill01")
            assert ticket is not None
            assert ticket.wait(timeout=120.0).status == "ok"
        finally:
            scheduler.shutdown()
