"""Tests for the columnar storage layer (repro.petri.storage).

Two contracts matter here.  First, the storage primitives: an
:class:`ArrayStore` must hold exactly the rows written to it whether it
lives in RAM or in a file, and the hash index must answer exactly across
its doublings.  Second, the engine contract: a checkpointed exploration,
whose stores live in memmap files, is the *same* exploration, bit for
bit -- states, parents, dead states, frontier and truncation identical to
the in-RAM graph, and every marking-level answer equal -- and a completed
one leaves nothing behind.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.campaign.jobs import VerificationJob, build_pipeline_model
from repro.dfs.examples import token_ring
from repro.dfs.translation import to_petri_net
from repro.petri import batch as batch_module
from repro.petri.batch import explore_batch
from repro.petri.compiled import CompiledNet
from repro.petri.storage import ArrayStore, HashIndex, probe_slots
from repro.reach.ast import Marked, Not, conjunction, disjunction
from repro.verification.verifier import Verifier
from test_checkers import MODEL_FAMILY
from test_petri_batch import HAZARD_NETS, assert_identical, ring_hazard_net

from oracles.compiled import explore_compiled, graph_columns

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")


def _store(home, tmp_path, name, dtype, columns=0, capacity=256):
    """A new, empty store in RAM or in a new file under *tmp_path*."""
    handle = None
    if home == "file":
        handle = open(str(tmp_path / "{}.bin".format(name)), "w+b")
    return ArrayStore(name, dtype, columns=columns, capacity=capacity,
                      handle=handle)


# -- the storage primitives ---------------------------------------------------


HOMES = pytest.mark.parametrize("home", ["ram", "file"])


class TestArrayStore:
    @HOMES
    def test_append_and_geometric_growth(self, tmp_path, home):
        store = _store(home, tmp_path, "t", np.int64, capacity=2)
        for chunk in range(10):
            store.append(np.arange(chunk * 7, chunk * 7 + 7, dtype=np.int64))
        assert len(store) == 70
        assert isinstance(store._backing, np.memmap) == (home == "file")
        np.testing.assert_array_equal(store.data, np.arange(70))
        # Geometric: capacity is the power of two above the rows, and
        # trim() exposes exactly the rows written.
        assert len(store._backing) == 128
        trimmed = store.trim()
        assert len(trimmed) == 70
        np.testing.assert_array_equal(trimmed, np.arange(70))

    @HOMES
    def test_trim_is_a_view_of_the_backing(self, tmp_path, home):
        """No copy at the finish, so old and new buffers never coexist; the
        view outlives the store's release (and, in a file, its handle)."""
        store = _store(home, tmp_path, "t", np.int64, capacity=2)
        store.append(np.arange(70, dtype=np.int64))
        trimmed = store.trim()
        assert np.shares_memory(trimmed, store._backing)
        store.release()
        assert store._handle is None and len(store) == 0
        np.testing.assert_array_equal(trimmed, np.arange(70))

    @pytest.mark.parametrize("shape,max_states,names", [
        ((2, 2, ()), 300, ("words", "parents", "frontier")),
        ((3, 1, (2,)), 200000, ("words", "parents", "dead")),
    ], ids=["cut", "deadlock"])
    def test_finished_graph_arrays_are_views_of_the_stores(
            self, monkeypatch, shape, max_states, names):
        """Every store a graph keeps rows of backs its array (a cut run
        keeps frontier rows, a deadlocking one dead rows)."""
        created = []
        fresh_stores = batch_module.fresh_stores

        def recording(specs):
            created.append(fresh_stores(specs))
            return created[-1]

        monkeypatch.setattr(batch_module, "fresh_stores", recording)
        stages, prefix, holes = shape
        compiled = CompiledNet.compile(to_petri_net(build_pipeline_model(
            stages, static_prefix=prefix, holes=list(holes))))
        graph = explore_batch(compiled, max_states=max_states)
        (stores,) = created
        arrays = {"words": graph._words, "parents": graph._fired_arr,
                  "dead": graph._dead_arr, "frontier": graph._frontier_arr}
        for name in names:
            assert np.shares_memory(arrays[name], stores[name]._backing), name
        assert_identical(explore_compiled(compiled, max_states=max_states),
                         graph)

    @HOMES
    def test_two_dimensional_rows(self, tmp_path, home):
        store = _store(home, tmp_path, "w", np.uint64, columns=3, capacity=1)
        rows = np.arange(30, dtype=np.uint64).reshape(10, 3)
        store.append(rows)
        assert store.data.shape == (10, 3)
        np.testing.assert_array_equal(store.data, rows)

    @HOMES
    def test_refill_drops_the_rows_and_fills_the_new_ones(self, tmp_path,
                                                          home):
        store = _store(home, tmp_path, "t", np.int32, capacity=4)
        store.append(np.arange(16, dtype=np.int32))
        store.refill(64, -1)
        assert len(store) == 64 and (store.data == -1).all()
        assert len(store._backing) == 64
        store.data[:3] = 5
        store.refill(128, 0)
        assert len(store) == 128 and not store.data.any()
        assert isinstance(store._backing, np.memmap) == (home == "file")

    def test_disk_trim_never_truncates_the_file(self, tmp_path):
        store = _store("file", tmp_path, "t", np.int64, capacity=2)
        store.append(np.arange(5, dtype=np.int64))
        trimmed = store.trim()
        assert len(trimmed) == 5
        # The over-allocated mapping is still valid (no downward ftruncate,
        # so touching the old view cannot SIGBUS).
        assert len(store._backing) == 8
        assert os.path.getsize(str(tmp_path / "t.bin")) == 8 * 8
        np.testing.assert_array_equal(trimmed, np.arange(5))

    def test_reopened_file_exposes_its_first_rows(self, tmp_path):
        """A store opened on an existing file maps its first *rows* rows
        and cuts the file to their geometric capacity."""
        store = _store("file", tmp_path, "t", np.int64, capacity=2)
        store.append(np.arange(100, dtype=np.int64))
        store.release()
        path = str(tmp_path / "t.bin")
        reopened = ArrayStore("t", np.int64, capacity=1,
                              handle=open(path, "r+b"), rows=5)
        assert len(reopened) == 5
        np.testing.assert_array_equal(reopened.data, np.arange(5))
        assert os.path.getsize(path) == 8 * 8
        reopened.append(np.arange(5, 9, dtype=np.int64))
        np.testing.assert_array_equal(reopened.data, np.arange(9))
        reopened.release()


def _mixed_hash(rows):
    return rows[:, 0] * np.uint64(0x9E3779B97F4A7C15) ^ rows[:, 1]


def _equal_hash(rows):
    return np.zeros(len(rows), dtype=np.uint64)


class TestHashIndex:
    @pytest.mark.parametrize("hash_rows", [_mixed_hash, _equal_hash])
    def test_lookup_across_growth_boundaries(self, monkeypatch, hash_rows):
        # A 1024-slot first table: 2500 rows then cross three growths, at
        # 513, 1025 and 2049 states (all-equal hashes probe quadratically).
        monkeypatch.setattr(HashIndex, "_MIN_BITS", 10)
        states = ArrayStore("words", np.uint64, columns=2)
        index = HashIndex(states, hash_rows)
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

    def test_wide_index_holds_int64_slots(self):
        states = ArrayStore("words", np.uint64, columns=2)
        index = HashIndex(states, _mixed_hash, wide=True)
        assert index.slots.dtype == np.int64


# -- a checkpointed exploration is the same exploration -----------------------


def _identity_nets():
    """The hazard nets and the models of the golden transcripts."""
    nets = [pytest.param(lambda seed=seed, shape=shape: ring_hazard_net(
        seed, **shape), id="hazard-{}".format(seed))
        for seed, shape in HAZARD_NETS]
    nets += [pytest.param(lambda name=name: to_petri_net(MODEL_FAMILY[name]()),
                          id=name)
             for name in sorted(MODEL_FAMILY)]
    return nets


def _queries(graph, sample=40):
    """Every marking-level answer of *graph* this contract covers.

    Successors, predecessors and traces of a spread of *sample* states;
    two Reach scans; persistence with and without conflicts, each witness
    with its trace; the deadlocks; the truncation.
    """
    indices = range(0, len(graph), max(1, len(graph) // sample))
    markings = [graph._marking_at(index) for index in indices]
    places = sorted(graph.compiled.place_names)
    scans = [conjunction([Marked(places[0]), Not(Marked(places[-1]))]),
             disjunction([Marked(place) for place in places[1:4]])]
    persistence = []
    for allow_conflicts in (True, False):
        violations, witnesses = graph.persistence_scan(
            allow_conflicts=allow_conflicts)
        persistence.append((violations, witnesses, [
            graph.trace_to(witness["marking"]) for witness in witnesses]))
    return {
        "successors": [graph.successors(marking) for marking in markings],
        "predecessors": [graph.predecessors(marking) for marking in markings],
        "traces": [graph.trace_to(marking) for marking in markings],
        "scans": [list(graph.scan(expression)) for expression in scans],
        "persistence": persistence,
        "deadlocks": graph.deadlocks(),
        "truncated": graph.truncated,
    }


class TestCheckpointedGraphIdentity:
    @pytest.mark.parametrize("make_net", _identity_nets())
    def test_checkpointed_graph_is_the_ram_graph(self, tmp_path, make_net):
        """Complete checkpointed runs, uncut and cut: every column is
        bit-identical to the in-RAM run's, every query answers the same,
        and the checkpoint directory ends up empty."""
        compiled = CompiledNet.compile(make_net())
        checkpoint = str(tmp_path / "ckpt")
        for max_states in (200000, 40):
            ram = explore_batch(compiled, max_states=max_states)
            named = explore_batch(compiled, max_states=max_states,
                                  checkpoint=checkpoint)
            assert isinstance(named._words, np.memmap)
            assert named.exploration_stats["checkpoint"] == {
                "directory": checkpoint, "resumed_from_level": None}
            for left, right in zip(graph_columns(ram) + (ram._dead_arr,),
                                   graph_columns(named) + (named._dead_arr,)):
                assert left.dtype == right.dtype
                assert np.array_equal(left, right), max_states
            assert _queries(named) == _queries(ram), max_states
            assert os.listdir(checkpoint) == []

    def test_resumed_verify_prints_the_golden_transcript(self, tmp_path):
        """``repro-dfs verify --resume DIR`` prints the committed transcript
        byte for byte and leaves ``DIR`` empty."""
        checkpoint = tmp_path / "ckpt"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.pop("REPRO_FAULTS", None)
        completed = subprocess.run(
            [sys.executable, "-m", "repro.workcraft.cli", "verify",
             "--example", "ring", "--resume", str(checkpoint)],
            capture_output=True, text=True, env=env, timeout=120)
        assert completed.returncode == 0, completed.stderr
        with open(os.path.join(TESTS_DIR, "golden", "ring.exhaustive.txt"),
                  encoding="utf-8") as handle:
            assert completed.stdout == handle.read()
        assert os.listdir(str(checkpoint)) == []


# -- stats plumbing: jobs and the verifier ------------------------------------


class TestExplorationStatsPlumbing:
    def test_batch_stats_shape(self):
        compiled = CompiledNet.compile(to_petri_net(token_ring()))
        batch = explore_batch(compiled)
        stats = batch.exploration_stats
        assert stats["engine"] == "batch"
        assert set(stats) == {"engine", "levels", "states", "edges",
                              "fired", "phases", "checkpoint"}
        assert stats["states"] == len(batch)
        assert isinstance(stats["phases"], dict)

    def test_verifier_surfaces_exploration_stats(self):
        dfs = build_pipeline_model(2, static_prefix=1)
        summary = Verifier(dfs).verify_all()
        assert summary.exploration is not None
        assert summary.exploration["engine"] == "batch"

    def test_job_attaches_stats_on_cold_runs_only(self, tmp_path):
        job = VerificationJob("j1", "pipeline",
                              kwargs={"stages": 2, "static_prefix": 1})
        cold = job.run(cache=str(tmp_path / "cache"))
        assert cold["cache"] == "miss"
        assert cold["exploration"]["engine"] == "batch"
        warm = job.run(cache=str(tmp_path / "cache"))
        assert warm["cache"] == "hit"
        assert "exploration" not in warm
        assert warm["verdict"] == cold["verdict"]
