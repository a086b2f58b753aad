"""Tests for the shared JSON disk-cache layer (repro.utils.diskcache).

The cache's contract is crash/corruption tolerance: atomic writes (readers
never observe a half-written entry, even with concurrent writers racing on
one key), unreadable entries degrading to misses, and the higher-level
caches built on it (here :class:`~repro.campaign.cache.ResultCache`)
surviving truncated files by recomputing.
"""

import json
import os
import threading

import pytest

from repro.campaign.cache import ResultCache, net_fingerprint, options_digest
from repro.campaign.jobs import VerificationJob
from repro.dfs.examples import token_ring
from repro.dfs.translation import to_petri_net
from repro.parallel.context import mp_context
from repro.utils.diskcache import (
    Flight,
    JsonDiskCache,
    SingleFlight,
    canonical_json,
    digest,
    safe_segment,
)


def _hammer_writer(directory, key, payload, rounds):
    cache = JsonDiskCache(directory)
    for _ in range(rounds):
        cache.put(key, payload)


class TestAtomicity:
    def test_concurrent_writers_same_key_leave_a_complete_entry(self, tmp_path):
        """Two processes racing on one key: the file is always whole.

        Each writer stores a *different* self-consistent payload; whatever
        interleaving happens, the surviving entry must be exactly one of
        them (``os.replace`` is atomic), never a mixture or a torn write.
        """
        directory = str(tmp_path)
        key = "contended"
        payloads = [{"writer": index, "blob": "x" * 4096, "check": index * 7}
                    for index in range(2)]
        context = mp_context()
        writers = [
            context.Process(target=_hammer_writer,
                            args=(directory, key, payloads[index], 50))
            for index in range(2)
        ]
        cache = JsonDiskCache(directory)
        for process in writers:
            process.start()
        # Read concurrently while the writers race: every observed entry
        # must be one of the two complete payloads, never a torn mixture.
        while any(process.is_alive() for process in writers):
            entry = cache.get(key)
            if entry is not None:
                assert entry in payloads
        for process in writers:
            process.join(timeout=30)
            assert process.exitcode == 0
        final = cache.get(key)
        assert final in payloads
        # No temp files may survive the race.
        leftovers = [name for name in os.listdir(directory)
                     if name.endswith(".tmp")]
        assert leftovers == []
        assert len(cache) == 1

    def test_put_cleans_up_on_serialisation_failure(self, tmp_path):
        cache = JsonDiskCache(str(tmp_path))
        with pytest.raises(TypeError):
            cache.put("bad", {"handle": object()})
        assert [name for name in os.listdir(str(tmp_path))
                if name.endswith(".tmp")] == []
        assert cache.get("bad") is None


class TestCorruptionRecovery:
    @pytest.mark.parametrize("damage", [
        pytest.param(b"", id="empty-file"),
        pytest.param(b"{\"trunc", id="truncated-json"),
        pytest.param(b"\x00\xff garbage \x80", id="binary-garbage"),
        pytest.param(b"[1, 2", id="unclosed-array"),
    ])
    def test_corrupt_entry_counts_as_miss_and_is_overwritten(self, tmp_path,
                                                             damage):
        cache = JsonDiskCache(str(tmp_path))
        key = digest({"k": 1})
        cache.put(key, {"value": 41})
        with open(cache.path(key), "wb") as handle:
            handle.write(damage)
        assert cache.get(key) is None  # corrupt == miss, not an error
        cache.put(key, {"value": 42})  # ...and the caller's recompute heals it
        assert cache.get(key) == {"value": 42}

    def test_unreadable_entry_counts_as_miss(self, tmp_path):
        cache = JsonDiskCache(str(tmp_path))
        assert cache.get("never-written") is None

    def test_canonical_json_is_deterministic(self):
        left = canonical_json({"b": 2, "a": [1, {"d": 4, "c": 3}]})
        right = canonical_json({"a": [1, {"c": 3, "d": 4}], "b": 2})
        assert left == right
        assert digest({"b": 2, "a": 1}) == digest({"a": 1, "b": 2})


class TestResultCacheRecovery:
    @staticmethod
    def _entry_path(job, cache):
        net = to_petri_net(token_ring(registers=3))
        return cache.path(cache.key(net_fingerprint(net),
                                    options_digest(job.options())))

    @staticmethod
    def _job():
        return VerificationJob("ring", "ring", kwargs={"registers": 3},
                               properties=("safeness", "deadlock"))

    def test_survives_truncated_json_file(self, tmp_path):
        """A truncated entry must recompute (bit-identically) and heal."""
        job = self._job()
        cache = ResultCache(str(tmp_path))
        cold = job.run(cache=cache)
        path = self._entry_path(job, cache)
        with open(path, "r", encoding="utf-8") as handle:
            content = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content[:len(content) // 2])  # truncate mid-payload
        with pytest.raises(json.JSONDecodeError):
            json.load(open(path, "r", encoding="utf-8"))
        healed = job.run(cache=cache)
        assert healed["cache"] == "miss"
        assert healed["verdict"] == cold["verdict"]
        # The recomputation overwrote the damaged entry with a valid one.
        assert json.load(open(path, "r", encoding="utf-8")) == cold["verdict"]
        assert job.run(cache=cache)["cache"] == "hit"

    def test_survives_binary_garbage(self, tmp_path):
        job = self._job()
        cache = ResultCache(str(tmp_path))
        cold = job.run(cache=cache)
        with open(self._entry_path(job, cache), "wb") as handle:
            handle.write(b"\x93NUMPY not json")
        warm = job.run(cache=cache)
        assert warm["cache"] == "miss"
        assert warm["verdict"] == cold["verdict"]


class TestNamespaces:
    def test_clean_names_pass_through(self):
        assert safe_segment("tenant-1") == "tenant-1"
        assert safe_segment("a.b_c") == "a.b_c"

    def test_hostile_names_are_sanitised_without_collisions(self):
        hostile = ["../escape", "a/b", "a\\b", "", ".", "..", ".hidden",
                   "sp ace", "uniçode"]
        segments = [safe_segment(name) for name in hostile]
        assert len(set(segments)) == len(segments)  # distinct names stay distinct
        for segment in segments:
            assert os.sep not in segment and "/" not in segment
            assert not segment.startswith(".")
        # Names that sanitise to the same characters must not collide.
        assert safe_segment("a/b") != safe_segment("a-b") != safe_segment("a\\b")

    def test_sanitisation_is_stable(self):
        assert safe_segment("../x") == safe_segment("../x")

    def test_namespaces_are_isolated_sub_caches(self, tmp_path):
        cache = JsonDiskCache(str(tmp_path))
        alice = cache.namespace("tenants", "alice")
        bob = cache.namespace("tenants", "bob")
        alice.put("k", {"who": "alice"})
        assert bob.get("k") is None
        assert cache.get("k") is None
        assert alice.get("k") == {"who": "alice"}
        assert alice.directory.startswith(cache.directory)
        # Re-deriving the namespace reaches the same storage.
        assert cache.namespace("tenants", "alice").get("k") == {"who": "alice"}

    def test_namespace_keeps_the_cache_subclass(self, tmp_path):
        class Sub(JsonDiskCache):
            pass

        assert isinstance(Sub(str(tmp_path)).namespace("x"), Sub)


class TestSingleFlight:
    def test_first_caller_leads_and_duplicates_attach(self):
        flights = SingleFlight()
        flight, leader = flights.acquire("key")
        assert leader
        again, follower_leads = flights.acquire("key")
        assert again is flight and not follower_leads
        assert len(flights) == 1
        seen = []
        again.subscribe(lambda fl: seen.append(fl.result))
        flights.release("key")
        flight.resolve(41)
        assert seen == [41]
        # After release+resolve a new acquisition starts a fresh flight.
        fresh, leads = flights.acquire("key")
        assert leads and fresh is not flight
        assert flights.release("key") is fresh

    def test_subscribe_after_resolution_fires_immediately(self):
        flight = Flight("k")
        flight.resolve("done")
        seen = []
        flight.subscribe(lambda fl: seen.append(fl.result))
        assert seen == ["done"]

    def test_wait_returns_result_and_raises_failures(self):
        flight = Flight("k")
        threading.Timer(0.01, flight.resolve, args=("value",)).start()
        assert flight.wait(timeout=5.0) == "value"
        failed = Flight("k2")
        failed.fail(RuntimeError("leader died"))
        with pytest.raises(RuntimeError, match="leader died"):
            failed.wait(timeout=1.0)

    def test_wait_times_out_on_an_unresolved_flight(self):
        with pytest.raises(TimeoutError):
            Flight("k").wait(timeout=0.01)

    def test_double_resolution_is_a_loud_error(self):
        flight = Flight("k")
        flight.resolve(1)
        with pytest.raises(RuntimeError):
            flight.resolve(2)

    def test_concurrent_acquires_elect_exactly_one_leader(self):
        flights = SingleFlight()
        outcomes = []
        acquired = threading.Barrier(8)

        def contend():
            flight, leader = flights.acquire("hot")
            # Hold every contender on the same flight: nobody resolves (and
            # thus nobody can re-probe a fresh flight) until all acquired.
            acquired.wait(timeout=10)
            if leader:
                flights.release("hot")
                flight.resolve("computed")
                outcomes.append(("led", "computed"))
            else:
                outcomes.append(("followed", flight.wait(timeout=5.0)))

        threads = [threading.Thread(target=contend) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(outcomes) == 8
        assert sum(1 for role, _ in outcomes if role == "led") == 1
        assert all(value == "computed" for _, value in outcomes)
