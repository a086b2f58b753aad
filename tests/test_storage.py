"""Tests for the out-of-core storage layer (repro.petri.storage).

Two contracts matter here.  First, the storage primitives: an
:class:`ArrayStore` must hold exactly the rows written to it whether the
backing lives in RAM or on an unlinked memmap, the pool must convert every
store at once the moment the budget is crossed, and spill files must never
outlive the exploration -- on success, on an exception, and when a
supervised worker is killed mid-flight.  Second, the engine contract:
a disk-backed exploration is the *same* exploration, bit for bit --
states, edges, parents, frontier and truncation all identical to the
in-RAM graph.
"""

import glob
import os
import time

import numpy as np
import pytest

from repro.campaign.jobs import VerificationJob, build_pipeline_model
from repro.campaign.runner import run_campaign
from repro.campaign.scenario import ScenarioSpec, generate_scenarios
from repro.dfs.examples import conditional_comp_dfs, linear_pipeline, token_ring
from repro.dfs.translation import to_petri_net
from repro.exceptions import ConfigurationError, SafenessOverflowError
from repro.parallel.supervisor import run_supervised
from repro.petri.batch import explore_batch
from repro.petri.compiled import CompiledNet
from repro.petri.net import PetriNet
from repro.petri.reachability import build_reachability_graph, explore
from repro.petri.storage import (
    ArrayStore,
    HashIndex,
    SpillConfig,
    SpillPool,
    probe_slots,
)
from repro.verification.verifier import Verifier
from test_petri_batch import HAZARD_NETS, assert_identical, ring_hazard_net

from oracles.compiled import explore_compiled


def _spill_files(directory):
    return sorted(glob.glob(os.path.join(str(directory), "repro-spill-*")))


# -- configuration resolution -------------------------------------------------


class TestSpillConfig:
    def test_disabled_when_nothing_is_set(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPILL_DIR", raising=False)
        monkeypatch.delenv("REPRO_SPILL_BYTES", raising=False)
        assert SpillConfig.resolve() is None

    def test_directory_alone_means_spill_from_the_start(self, monkeypatch,
                                                        tmp_path):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_SPILL_BYTES", raising=False)
        config = SpillConfig.resolve()
        assert config.directory == str(tmp_path)
        assert config.budget_bytes == 0

    def test_budget_alone_uses_the_system_temp_dir(self, monkeypatch):
        import tempfile
        monkeypatch.delenv("REPRO_SPILL_DIR", raising=False)
        monkeypatch.setenv("REPRO_SPILL_BYTES", str(1 << 20))
        config = SpillConfig.resolve()
        assert config.budget_bytes == 1 << 20
        assert config.directory == tempfile.gettempdir()

    def test_environment_sets_both(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SPILL_BYTES", "4096")
        config = SpillConfig.resolve()
        assert config.directory == str(tmp_path)
        assert config.budget_bytes == 4096

    def test_garbage_byte_count_is_rejected_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_BYTES", "lots")
        with pytest.raises(ConfigurationError, match="is not a byte count"):
            SpillConfig.resolve()

    def test_negative_byte_count_is_rejected_not_clamped(self, monkeypatch):
        # Clamping to 0 would silently select the slowest mode: spill
        # every array from the first row.
        monkeypatch.delenv("REPRO_SPILL_DIR", raising=False)
        monkeypatch.setenv("REPRO_SPILL_BYTES", "-7")
        with pytest.raises(ConfigurationError, match="is not a byte count"):
            SpillConfig.resolve()


# -- the storage primitives ---------------------------------------------------


class TestArrayStore:
    def test_ram_append_and_geometric_growth(self):
        pool = SpillPool()
        store = ArrayStore(pool, "t", np.int64, capacity=2)
        for chunk in range(10):
            store.append(np.arange(chunk * 7, chunk * 7 + 7, dtype=np.int64))
        assert len(store) == 70
        assert not store.spilled
        np.testing.assert_array_equal(store.data, np.arange(70))
        # Geometric: capacity is a power-of-two multiple of the start, and
        # trim() exposes exactly the rows written.
        assert len(store._backing) >= 70
        trimmed = store.trim()
        assert len(trimmed) == 70
        np.testing.assert_array_equal(trimmed, np.arange(70))

    def test_trim_is_a_view_of_the_backing(self):
        """No copy at the finish, so old and new buffers never coexist; the
        slack stays accounted to the pool until the store is released."""
        pool = SpillPool()
        store = ArrayStore(pool, "t", np.int64, capacity=2)
        store.append(np.arange(70, dtype=np.int64))
        held = pool._ram_bytes
        trimmed = store.trim()
        assert np.shares_memory(trimmed, store._backing)
        assert pool._ram_bytes == held == store._backing_nbytes()
        store.release()
        assert pool._ram_bytes == 0
        np.testing.assert_array_equal(trimmed, np.arange(70))

    @pytest.mark.parametrize("shape,max_states,names", [
        ((2, 2, ()), 300, ("words", "parents", "frontier")),
        ((3, 1, (2,)), 200000, ("words", "parents", "dead")),
    ], ids=["cut", "deadlock"])
    def test_finished_graph_arrays_are_views_of_the_stores(
            self, shape, max_states, names):
        """Every store a graph keeps rows of backs its array (a cut run
        keeps frontier rows, a deadlocking one dead rows)."""
        stages, prefix, holes = shape
        compiled = CompiledNet.compile(to_petri_net(build_pipeline_model(
            stages, static_prefix=prefix, holes=list(holes))))
        graph = explore_batch(compiled, max_states=max_states)
        backings = {store.name: store._backing
                    for store in graph._spill_pool._stores}
        arrays = {"words": graph._words, "parents": graph._fired_arr,
                  "dead": graph._dead_arr, "frontier": graph._frontier_arr}
        for name in names:
            assert np.shares_memory(arrays[name], backings[name]), name
        assert_identical(explore_compiled(compiled, max_states=max_states),
                         graph)

    def test_two_dimensional_rows(self):
        pool = SpillPool()
        store = ArrayStore(pool, "w", np.uint64, columns=3, capacity=1)
        rows = np.arange(30, dtype=np.uint64).reshape(10, 3)
        store.append(rows)
        assert store.data.shape == (10, 3)
        np.testing.assert_array_equal(store.data, rows)

    def test_budget_zero_spills_from_the_first_row(self, tmp_path):
        pool = SpillPool(SpillConfig(str(tmp_path), 0))
        store = ArrayStore(pool, "t", np.int64, capacity=4)
        assert pool.spilled and store.spilled
        store.append(np.arange(100, dtype=np.int64))
        np.testing.assert_array_equal(store.data, np.arange(100))
        assert isinstance(store._backing, np.memmap)

    def test_crossing_the_budget_converts_every_store_at_once(self, tmp_path):
        budget = 8 * 64  # room for the initial capacities, not for growth
        pool = SpillPool(SpillConfig(str(tmp_path), budget))
        a = ArrayStore(pool, "a", np.int64, capacity=4)
        b = ArrayStore(pool, "b", np.int64, capacity=4)
        a.append(np.arange(4, dtype=np.int64))
        b.append(np.arange(4, dtype=np.int64))
        assert not pool.spilled
        a.append(np.arange(4, 4096, dtype=np.int64))  # blows the budget
        assert pool.spilled and a.spilled and b.spilled
        np.testing.assert_array_equal(a.data, np.arange(4096))
        np.testing.assert_array_equal(b.data, np.arange(4))
        # A store registered after the spill is born disk-backed.
        c = ArrayStore(pool, "c", np.int64)
        assert c.spilled

    def test_spill_files_are_unlinked_immediately(self, tmp_path):
        pool = SpillPool(SpillConfig(str(tmp_path), 0))
        store = ArrayStore(pool, "t", np.int64)
        store.append(np.arange(1000, dtype=np.int64))
        assert pool.file_count >= 1
        assert _spill_files(tmp_path) == []
        pool.close()
        assert _spill_files(tmp_path) == []

    def test_traffic_counters_only_tick_once_spilled(self, tmp_path):
        ram = SpillPool()
        store = ArrayStore(ram, "t", np.int64)
        store.append(np.arange(10, dtype=np.int64))
        assert ram.stats()["write_bytes"] == 0
        assert ram.stats() == {
            "enabled": False, "spilled": False, "budget_bytes": None,
            "directory": None, "checkpoint": None,
            "write_bytes": 0, "read_bytes": 0, "files": 0}
        disk = SpillPool(SpillConfig(str(tmp_path), 0))
        spilled = ArrayStore(disk, "t", np.int64)
        spilled.append(np.arange(10, dtype=np.int64))
        disk.note_read(spilled.data.nbytes)
        stats = disk.stats()
        assert stats["enabled"] and stats["spilled"]
        assert stats["write_bytes"] == 80 and stats["read_bytes"] == 80
        assert stats["files"] >= 1

    @pytest.mark.parametrize("budget", [None, 0, 4 * 32])
    def test_refill_drops_the_rows_and_fills_the_new_ones(self, tmp_path,
                                                          budget):
        """In RAM, on disk, and when the refill itself crosses the budget
        (room for the 16 rows, not the 64): every row holds the value and
        the pool accounts exactly the new backing while in RAM."""
        config = None if budget is None else SpillConfig(str(tmp_path),
                                                         budget)
        pool = SpillPool(config)
        store = ArrayStore(pool, "t", np.int32, capacity=4)
        store.append(np.arange(16, dtype=np.int32))
        store.refill(64, -1)
        assert len(store) == 64 and (store.data == -1).all()
        assert store.spilled == (budget is not None)
        if not pool.spilled:
            assert pool._ram_bytes == store._backing_nbytes() == 64 * 4
        store.data[:3] = 5
        store.refill(128, 0)
        assert len(store) == 128 and not store.data.any()

    def test_disk_trim_never_truncates_the_file(self, tmp_path):
        pool = SpillPool(SpillConfig(str(tmp_path), 0))
        store = ArrayStore(pool, "t", np.int64, capacity=2)
        store.append(np.arange(5, dtype=np.int64))
        trimmed = store.trim()
        assert len(trimmed) == 5
        # The over-allocated mapping is still valid (no downward ftruncate,
        # so touching the old view cannot SIGBUS).
        assert len(store._backing) >= 5
        np.testing.assert_array_equal(trimmed, np.arange(5))

    def test_pool_context_manager_closes_on_error_only(self, tmp_path):
        with SpillPool(SpillConfig(str(tmp_path), 0)) as pool:
            ArrayStore(pool, "t", np.int64).append(np.arange(3, dtype=np.int64))
        assert not pool.closed  # success: the graph owns the arrays now
        with pytest.raises(RuntimeError):
            with SpillPool(SpillConfig(str(tmp_path), 0)) as doomed:
                ArrayStore(doomed, "t", np.int64)
                raise RuntimeError("mid-exploration failure")
        assert doomed.closed
        assert _spill_files(tmp_path) == []


def _mixed_hash(rows):
    return rows[:, 0] * np.uint64(0x9E3779B97F4A7C15) ^ rows[:, 1]


def _equal_hash(rows):
    return np.zeros(len(rows), dtype=np.uint64)


class TestHashIndex:
    @pytest.mark.parametrize("budget", [None, 0])
    @pytest.mark.parametrize("hash_rows", [_mixed_hash, _equal_hash])
    def test_lookup_across_growth_boundaries(self, tmp_path, monkeypatch,
                                             budget, hash_rows):
        # A 1024-slot first table: 2500 rows then cross three growths, at
        # 513, 1025 and 2049 states (all-equal hashes probe quadratically).
        monkeypatch.setattr(HashIndex, "_MIN_BITS", 10)
        config = None if budget is None else SpillConfig(str(tmp_path), budget)
        pool = SpillPool(config)
        states = ArrayStore(pool, "words", np.uint64, columns=2)
        index = HashIndex(pool, "hash", states, hash_rows)
        assert index.slots.dtype == np.int32
        rng = np.random.default_rng(7)
        values = rng.choice(1 << 20, size=2500, replace=False)
        rows = np.stack([values % 977, values // 977], axis=1).astype(np.uint64)
        absent = rows + np.uint64(1 << 21)
        capacities = set()
        for start in range(0, len(rows), 250):
            batch = rows[start:start + 250]
            states.append(batch)
            index.extend(hash_rows(batch))
            capacities.add(len(index.slots))
            assert 2 * index.count <= len(index.slots)
            known = rows[:start + len(batch)]
            np.testing.assert_array_equal(
                index.lookup(known, hash_rows(known)), np.arange(len(known)))
        assert len(capacities) >= 4  # 1024, then >= 3 doublings
        assert (index.lookup(absent, hash_rows(absent)) == -1).all()
        slots = index.slots
        assert sorted(slots[slots >= 0].tolist()) == list(range(len(rows)))
        assert (probe_slots(slots, states.data, rows, hash_rows(rows))
                == np.arange(len(rows))).all()
        pool.close()

    def test_wide_index_holds_int64_slots(self):
        pool = SpillPool(None)
        states = ArrayStore(pool, "words", np.uint64, columns=2)
        index = HashIndex(pool, "hash", states, _mixed_hash, wide=True)
        assert index.slots.dtype == np.int64


# -- disk-backed exploration is the same exploration --------------------------


def _example_models():
    return [
        ("conditional", conditional_comp_dfs()),
        ("ring", token_ring()),
        ("linear", linear_pipeline()),
        ("ope2", build_pipeline_model(2, static_prefix=1)),
        ("ope3-hole2", build_pipeline_model(3, static_prefix=1, holes=[2])),
    ]


class TestSpilledGraphIdentity:
    def test_batch_disk_backed_is_bit_identical(self, tmp_path):
        for name, dfs in _example_models():
            compiled = CompiledNet.compile(to_petri_net(dfs))
            for max_states in (1, 7, 200000):
                reference = explore_compiled(compiled, max_states=max_states)
                spilled = explore_batch(
                    compiled, max_states=max_states,
                    spill=SpillConfig(str(tmp_path), 0))
                assert_identical(reference, spilled,
                                 "{} max_states={}".format(name, max_states))
                stats = spilled.exploration_stats["spill"]
                assert stats["spilled"] and stats["write_bytes"] > 0
                spilled.close()
        assert _spill_files(tmp_path) == []

    def test_mid_run_budget_crossing_is_bit_identical(self, tmp_path):
        """A graph that *starts* in RAM and spills partway stays identical."""
        dfs = build_pipeline_model(3, static_prefix=1, holes=[2])
        compiled = CompiledNet.compile(to_petri_net(dfs))
        reference = explore_compiled(compiled)
        spilled = explore_batch(compiled,
                                spill=SpillConfig(str(tmp_path), 1 << 12))
        assert_identical(reference, spilled, "mid-run spill")
        assert spilled.exploration_stats["spill"]["spilled"]

    def test_disk_backed_persistence_matches_ram(self, tmp_path, monkeypatch):
        """The scan's enabled table lives in the graph's spill pool: a
        disk-backed (or checkpointed) graph answers exactly like the in-RAM
        one and leaves no file behind."""
        monkeypatch.delenv("REPRO_SPILL_DIR", raising=False)
        monkeypatch.delenv("REPRO_SPILL_BYTES", raising=False)
        seed, shape = HAZARD_NETS[-1]
        compiled = CompiledNet.compile(ring_hazard_net(seed, **shape))
        checkpoint = tmp_path / "checkpoint"
        for max_states in (4000, 200000):
            ram = explore_batch(compiled, max_states=max_states)
            spilled = explore_batch(compiled, max_states=max_states,
                                    spill=SpillConfig(str(tmp_path), 0))
            named = explore_batch(compiled, max_states=max_states,
                                  checkpoint=str(checkpoint))
            for allow_conflicts in (True, False):
                expected = _traced_persistence(ram, allow_conflicts)
                assert expected[0] > 0
                for graph in (spilled, named):
                    assert _traced_persistence(graph, allow_conflicts) == \
                        expected
            assert spilled.exploration_stats["spill"]["spilled"]
            spilled.close()
            named.close()
            assert _spill_files(tmp_path) == []
            assert os.listdir(str(checkpoint)) == []

    def test_build_reachability_graph_env_knobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SPILL_BYTES", "1024")
        net = to_petri_net(token_ring())
        reference = explore_compiled(CompiledNet.compile(net))
        spilled = build_reachability_graph(net)
        assert_identical(reference, spilled, "env knobs")
        assert spilled.exploration_stats["spill"]["spilled"]
        assert spilled.exploration_stats["spill"]["directory"] == str(tmp_path)


    def test_marking_queries_on_a_spilled_graph(self, tmp_path):
        """The marking-level API reads the memmap-backed arrays directly:
        every answer equals the explicit graph's, and nothing is copied
        into the base class's dict structures."""
        for name, dfs in _example_models()[:3]:
            net = to_petri_net(dfs)
            explicit = explore(net)
            spilled = explore_batch(CompiledNet.compile(net),
                                    spill=SpillConfig(str(tmp_path), 0))
            assert spilled.exploration_stats["spill"]["spilled"], name
            for marking in explicit.states:
                assert marking in spilled, name
                assert spilled.successors(marking) == \
                    explicit.successors(marking), name
                assert spilled.predecessors(marking) == \
                    explicit.predecessors(marking), name
                assert spilled.enabled(marking) == explicit.enabled(marking)
                assert spilled.trace_to(marking) == explicit.trace_to(marking)
            assert spilled._successors == {}, name
            spilled.close()
        assert _spill_files(tmp_path) == []


# -- lifecycle: exceptions, kills -----------------------------------------------


class TestSpillLifecycle:
    def test_exception_mid_exploration_leaves_no_files(self, tmp_path):
        # An unsafe net blows up *during* batch exploration -- after the
        # spill pool has already opened disk backings.
        net = PetriNet("unsafe")
        net.add_place("src", tokens=1)
        net.add_place("mid", tokens=1)
        net.add_place("sink")
        net.add_transition("a")
        net.add_arc("src", "a")
        net.add_arc("a", "sink")
        net.add_transition("b")
        net.add_arc("mid", "b")
        net.add_arc("b", "sink")
        compiled = CompiledNet.compile(net)
        with pytest.raises(SafenessOverflowError):
            explore_batch(compiled, spill=SpillConfig(str(tmp_path), 0))
        assert _spill_files(tmp_path) == []

    def test_supervised_kill_leaves_no_files(self, tmp_path, monkeypatch):
        """A worker SIGKILLed mid-exploration reclaims its spill space.

        The spill files are unlinked at creation, so even a hard kill --
        no atexit, no finally -- cannot leak disk space into the spill
        directory."""
        # The worker inherits the environment, spill settings included.
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SPILL_BYTES", "0")
        outcomes = run_supervised([("doomed", _spill_then_hang, ())],
                                  parallelism=1, timeout=3.0)
        assert outcomes[0].status == "timeout"
        assert _spill_files(tmp_path) == []


def _traced_persistence(graph, allow_conflicts):
    """The persistence scan of *graph*, each witness with its trace."""
    violations, witnesses = graph.persistence_scan(
        allow_conflicts=allow_conflicts)
    traces = [graph.trace_to(witness["marking"]) for witness in witnesses]
    return violations, witnesses, traces, graph.truncated


def _spill_then_hang():
    """Supervised task: build a disk-backed graph, then outlive the deadline."""
    net = to_petri_net(build_pipeline_model(3, static_prefix=1))
    graph = build_reachability_graph(net)
    assert graph.exploration_stats["spill"]["spilled"]
    time.sleep(60)


# -- stats plumbing: jobs, campaigns, schedulers ------------------------------


class TestExplorationStatsPlumbing:
    def test_batch_stats_shape(self, monkeypatch, tmp_path):
        # An ambient spill budget (the tests-spill CI job sets one) must
        # not leak into this in-RAM baseline check.
        monkeypatch.delenv("REPRO_SPILL_DIR", raising=False)
        monkeypatch.delenv("REPRO_SPILL_BYTES", raising=False)
        compiled = CompiledNet.compile(to_petri_net(token_ring()))
        batch = explore_batch(compiled)
        stats = batch.exploration_stats
        assert stats["engine"] == "batch"
        assert set(stats) == {"engine", "levels", "states", "edges",
                              "fired", "phases", "spill", "checkpoint"}
        assert stats["states"] == len(batch)
        assert isinstance(stats["phases"], dict)
        assert stats["spill"]["spilled"] is False

    def test_verifier_surfaces_exploration_stats(self):
        dfs = build_pipeline_model(2, static_prefix=1)
        summary = Verifier(dfs).verify_all()
        assert summary.exploration is not None
        assert summary.exploration["engine"] == "batch"

    def test_job_attaches_stats_on_cold_runs_only(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SPILL_BYTES", "0")
        job = VerificationJob("j1", "pipeline",
                              kwargs={"stages": 2, "static_prefix": 1})
        cold = job.run(cache=str(tmp_path / "cache"))
        assert cold["cache"] == "miss"
        assert cold["exploration"]["spill"]["spilled"]
        assert cold["exploration"]["spill"]["write_bytes"] > 0
        warm = job.run(cache=str(tmp_path / "cache"))
        assert warm["cache"] == "hit"
        assert "exploration" not in warm
        assert warm["verdict"] == cold["verdict"]

    def test_scheduler_aggregates_spill_totals_for_the_service(self, tmp_path,
                                                               monkeypatch):
        from repro.campaign.scheduler import CampaignScheduler
        scheduler = CampaignScheduler(parallelism=0)
        try:
            assert scheduler.stats()["spill"] == {
                "write_bytes": 0, "read_bytes": 0, "spilled_jobs": 0}
            monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
            monkeypatch.setenv("REPRO_SPILL_BYTES", "0")
            job = VerificationJob("s1", "pipeline",
                                  kwargs={"stages": 2, "static_prefix": 1})
            scheduler.submit(job).wait(60)
            totals = scheduler.stats()["spill"]
            assert totals["spilled_jobs"] == 1
            assert totals["write_bytes"] > 0
        finally:
            scheduler.shutdown()

    def test_campaign_report_aggregates_spill_totals(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SPILL_BYTES", "0")
        spec = ScenarioSpec(depths=(2,))
        jobs, skipped = generate_scenarios(spec)
        report = run_campaign(jobs, parallelism=0, cache_dir=None,
                              spec=spec, skipped=skipped)
        totals = report.spill_totals
        assert totals["spilled_jobs"] == len(jobs)
        assert totals["write_bytes"] > 0
        assert report.summary()["spill"] == totals
        assert _spill_files(tmp_path) == []
