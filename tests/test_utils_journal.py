"""Tests for the write-ahead journal (repro.utils.journal) and fault plans.

The journal's contract mirrors the disk cache's (test_utils_diskcache):
corruption degrades, never crashes.  A torn tail (the expected artefact of
``kill -9`` mid-append) truncates the readable history at the last intact
record; a flipped payload byte is caught by the CRC; an empty segment
contributes nothing; and replaying a journal with duplicated records into
the scheduler leaves it in the same state as replaying it once.
"""

import os
import struct
import zlib

import pytest

from repro.campaign.jobs import VerificationJob
from repro.campaign.scheduler import CampaignScheduler
from repro.utils.faults import FaultError, FaultPlan
from repro.utils.journal import (
    DEFAULT_SEGMENT_BYTES,
    JournalWriter,
    list_segments,
    read_journal,
)

_HEADER = struct.Struct("<II")


def _records(count, start=0):
    return [{"event": "submit", "ticket": "t{:04d}".format(start + index),
             "payload": {"index": start + index}}
            for index in range(count)]


class TestRoundTrip:
    def test_append_then_read_returns_records_in_order(self, tmp_path):
        directory = str(tmp_path / "journal")
        records = _records(25)
        with JournalWriter(directory) as writer:
            for record in records:
                writer.append(record)
        assert read_journal(directory) == records

    def test_missing_directory_reads_empty(self, tmp_path):
        assert read_journal(str(tmp_path / "nowhere")) == []

    def test_reopened_writer_appends_after_existing_records(self, tmp_path):
        directory = str(tmp_path / "journal")
        with JournalWriter(directory) as writer:
            writer.append({"n": 1})
        with JournalWriter(directory) as writer:
            writer.append({"n": 2})
        assert read_journal(directory) == [{"n": 1}, {"n": 2}]

    def test_closed_writer_rejects_appends(self, tmp_path):
        writer = JournalWriter(str(tmp_path / "journal"))
        writer.close()
        with pytest.raises(ValueError):
            writer.append({"n": 1})

    def test_segments_rotate_at_the_size_threshold(self, tmp_path):
        directory = str(tmp_path / "journal")
        with JournalWriter(directory, segment_bytes=256) as writer:
            for record in _records(20):
                writer.append(record)
        segments = list_segments(directory)
        assert len(segments) > 1
        assert read_journal(directory) == _records(20)

    def test_default_segment_threshold_is_sane(self):
        assert DEFAULT_SEGMENT_BYTES >= 1 << 20


class TestCorruption:
    def test_truncated_tail_drops_only_the_torn_record(self, tmp_path):
        """kill -9 mid-append leaves a partial frame; reads stop before it."""
        directory = str(tmp_path / "journal")
        records = _records(10)
        with JournalWriter(directory) as writer:
            for record in records:
                writer.append(record)
        tail = list_segments(directory)[-1]
        with open(tail, "r+b") as handle:
            handle.truncate(os.path.getsize(tail) - 3)
        recovered = read_journal(directory)
        assert recovered == records[:-1]

    def test_flipped_payload_byte_truncates_at_the_bad_record(self, tmp_path):
        directory = str(tmp_path / "journal")
        records = _records(10)
        with JournalWriter(directory) as writer:
            for record in records:
                writer.append(record)
        tail = list_segments(directory)[-1]
        # Corrupt one byte inside the 4th record's payload.
        with open(tail, "rb") as handle:
            data = handle.read()
        offset = 0
        for _ in range(3):
            length, _ = _HEADER.unpack_from(data, offset)
            offset += _HEADER.size + length
        position = offset + _HEADER.size + 2
        with open(tail, "r+b") as handle:
            handle.seek(position)
            original = handle.read(1)
            handle.seek(position)
            handle.write(bytes([original[0] ^ 0xFF]))
        assert read_journal(directory) == records[:3]

    def test_damage_hides_later_segments_too(self, tmp_path):
        """Records after the damage point were written later: ignore them."""
        directory = str(tmp_path / "journal")
        with JournalWriter(directory, segment_bytes=128) as writer:
            for record in _records(12):
                writer.append(record)
        first = list_segments(directory)[0]
        with open(first, "r+b") as handle:
            handle.seek(_HEADER.size + 1)
            handle.write(b"\xff")
        recovered = read_journal(directory)
        assert recovered == []  # first record of the first segment is bad

    def test_empty_segment_contributes_no_records(self, tmp_path):
        directory = str(tmp_path / "journal")
        with JournalWriter(directory) as writer:
            writer.append({"n": 1})
        open(os.path.join(directory, "wal-0000000009.log"), "wb").close()
        assert read_journal(directory) == [{"n": 1}]

    def test_writer_repairs_a_torn_tail_on_reopen(self, tmp_path):
        """Appends after a crash land frame-aligned, not after garbage."""
        directory = str(tmp_path / "journal")
        with JournalWriter(directory) as writer:
            writer.append({"n": 1})
            writer.append({"n": 2})
        tail = list_segments(directory)[-1]
        with open(tail, "ab") as handle:
            handle.write(b"\x07\x00\x00")  # dangling partial header
        with JournalWriter(directory) as writer:
            writer.append({"n": 3})
        assert read_journal(directory) == [{"n": 1}, {"n": 2}, {"n": 3}]

    def test_non_json_payload_with_valid_crc_is_damage(self, tmp_path):
        directory = str(tmp_path / "journal")
        payload = b"not json at all"
        frame = _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        path = os.path.join(directory, "wal-0000000001.log")
        os.makedirs(directory)
        with open(path, "wb") as handle:
            handle.write(frame + payload)
        assert read_journal(directory) == []


class TestSchedulerReplay:
    """The scheduler's fold over journal records is idempotent."""

    def _journal(self, directory, records):
        with JournalWriter(os.path.join(directory, "journal")) as writer:
            for record in records:
                writer.append(record)

    def test_duplicate_records_replay_to_a_consistent_state(self, tmp_path):
        """A doubled journal (e.g. a re-copied segment) restores one ticket."""
        state = str(tmp_path)
        job = VerificationJob("dup", "pipeline", kwargs={"stages": 2},
                              max_states=5000)
        submit = {"event": "submit", "ticket": "tick01", "job": job.to_dict(),
                  "tenant": None, "priority": 0, "timeout": None, "time": 1.0}
        verdict = {"event": "verdict", "ticket": "tick01", "status": "ok",
                   "payload": {"job_id": "dup", "verdict": {"properties": []}},
                   "error": None, "elapsed": 0.5}
        self._journal(state, [submit, verdict, submit, verdict])
        scheduler = CampaignScheduler(parallelism=0, state_dir=state)
        try:
            ticket = scheduler.get("tick01")
            assert ticket is not None and ticket.done
            assert ticket.result.status == "ok"
            stats = scheduler.stats()
            assert stats["submitted"] == 1
            assert stats["restored"] == 1
            assert stats["requeued"] == 0
        finally:
            scheduler.shutdown()

    def test_last_verdict_wins_on_conflicting_records(self, tmp_path):
        state = str(tmp_path)
        job = VerificationJob("last", "pipeline", kwargs={"stages": 2},
                              max_states=5000)
        submit = {"event": "submit", "ticket": "tick02", "job": job.to_dict(),
                  "tenant": None, "priority": 0, "timeout": None, "time": 1.0}
        early = {"event": "verdict", "ticket": "tick02", "status": "error",
                 "payload": None, "error": "boom", "elapsed": 0.1}
        late = {"event": "verdict", "ticket": "tick02", "status": "ok",
                "payload": {"job_id": "last", "verdict": {"properties": []}},
                "error": None, "elapsed": 0.2}
        self._journal(state, [submit, early, late])
        scheduler = CampaignScheduler(parallelism=0, state_dir=state)
        try:
            assert scheduler.get("tick02").result.status == "ok"
        finally:
            scheduler.shutdown()

    def test_malformed_job_record_is_skipped_not_fatal(self, tmp_path):
        state = str(tmp_path)
        job = VerificationJob("good", "pipeline", kwargs={"stages": 2},
                              max_states=5000)
        bad = {"event": "submit", "ticket": "badid",
               "job": {"factory": "no-such-factory", "nonsense": True},
               "tenant": None, "priority": 0, "timeout": None, "time": 1.0}
        # A complete record whose job names a module function: replaying
        # it must neither restore the ticket nor run the command.
        marker = tmp_path / "marker"
        hostile = {"event": "submit", "ticket": "hostileid",
                   "job": dict(job.to_dict(), job_id="hostile",
                               factory="subprocess:getoutput",
                               kwargs={"cmd": "touch {}".format(marker)}),
                   "tenant": None, "priority": 0, "timeout": None, "time": 1.5}
        good = {"event": "submit", "ticket": "goodid", "job": job.to_dict(),
                "tenant": None, "priority": 0, "timeout": None, "time": 2.0}
        done = {"event": "verdict", "ticket": "goodid", "status": "ok",
                "payload": {"job_id": "good", "verdict": {"properties": []}},
                "error": None, "elapsed": 0.1}
        self._journal(state, [bad, hostile, good, done])
        scheduler = CampaignScheduler(parallelism=0, state_dir=state)
        try:
            assert scheduler.get("badid") is None
            assert scheduler.get("hostileid") is None
            assert scheduler.get("goodid").done
            assert scheduler.stats()["submitted"] == 1
        finally:
            scheduler.shutdown()
        assert not marker.exists()


#: The fault sites the production code guards: the pool's task and level
#: points, and a columnar store's write path.
FAULT_SITES = [("kill_worker", "level"), ("kill_worker", "task"),
               ("io_error", "write")]


class TestFaultPlan:
    def test_counter_spec_fires_on_the_nth_hit_only(self):
        plan = FaultPlan.parse("kill_worker@level=3")
        fired = [plan.trigger("kill_worker", "level") for _ in range(5)]
        assert fired == [False, False, True, False, False]

    def test_bare_name_fires_on_first_hit(self):
        plan = FaultPlan.parse("io_error")
        assert plan.trigger("io_error") is True
        assert plan.trigger("io_error") is False

    def test_sites_count_independently(self):
        plan = FaultPlan.parse("kill_worker@level=2")
        assert plan.trigger("kill_worker", "task") is False
        assert plan.trigger("kill_worker", "level") is False
        assert plan.trigger("kill_worker", "level") is True

    @pytest.mark.parametrize("name,site", FAULT_SITES)
    def test_every_production_site_fires_on_its_counter(self, name, site):
        plan = FaultPlan.parse("{}@{}=2,{}@elsewhere=1".format(
            name, site, name))
        fired = [plan.trigger(name, site) for _ in range(3)]
        assert fired == [False, True, False]
        assert plan.counts() == {(name, site): 3}

    def test_production_sites_are_the_listed_ones(self):
        """Every ``trigger`` call under ``src/`` names a listed site, so the
        parametrized test above covers each fault the code can inject."""
        import re
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        calls = set()
        for path in src.rglob("*.py"):
            calls.update(re.findall(
                r'_faults\.trigger\("(\w+)", "(\w+)"\)', path.read_text()))
        assert sorted(calls) == sorted(FAULT_SITES)

    def test_invalid_specs_are_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("kill_worker@level")
        with pytest.raises(ValueError):
            FaultPlan.parse("kill_worker@level=0")
        with pytest.raises(ValueError):
            FaultPlan.parse("io_error:q=0.5")
        with pytest.raises(ValueError):
            FaultPlan.parse("io_error:p=1.5")
        # The probabilistic mode is retired: every spec fires on a count.
        with pytest.raises(ValueError):
            FaultPlan.parse("io_error@write:p=0.5")

    def test_from_env_reads_the_spec(self):
        plan = FaultPlan.from_env({"REPRO_FAULTS": "io_error@write=2"})
        assert plan.trigger("io_error", "write") is False
        assert plan.trigger("io_error", "write") is True
        assert FaultPlan.from_env({}) is None

    def test_fault_error_is_an_os_error(self):
        assert issubclass(FaultError, OSError)
