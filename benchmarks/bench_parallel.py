"""The parallel verification path: batch engine, racing, invariants.

Three claims of the parallel/array-native engine work are measured and gated
here:

* **Whole-frontier batch exploration** (the NumPy engine of
  :mod:`repro.petri.batch`) produces a graph bit-identical to the
  pure-int sequential BFS (the test oracle of ``tests/oracles/compiled.py``)
  while expanding entire BFS levels per step, and must beat it outright on
  the 300k-state 4-stage exploration, with states/sec and per-state RSS in
  the BENCH JSON.  ``check_regression.py`` gates the batch run's cost in
  in-process calibration-kernel runs, so a >30% throughput regression of
  the batch path fails CI.
* **Racing portfolios** answer beyond-horizon queries with the same verdict
  as the budgeted rotation while cancelling the losing engines mid-flight.
* **Semiflow derivation** stays cheap enough to need no cache: the Farkas
  elimination works one incidence component at a time, so an 18-stage
  OPE pipeline's basis takes well under a second.  Its cost in
  calibration-kernel runs is gated too.
"""

import time

import numpy as np

from repro.campaign.jobs import build_pipeline_model
from repro.dfs.translation import to_petri_net
from repro.petri.batch import _pack_bits, explore_batch
from repro.petri.compiled import CompiledNet
from repro.petri.invariants import compute_semiflows
from repro.verification.verifier import Verifier

from oracles.compiled import explore_compiled, graph_columns

from .conftest import best_of, print_table, throughput_metrics, timed


def _compiled_pipeline():
    dfs = build_pipeline_model(4, static_prefix=1)
    return CompiledNet.compile(to_petri_net(dfs))


#: The acceptance horizon of the batch-engine comparison: the 300k-state
#: 4-stage exploration the PR-4 baseline clocked at 2.67s sequential.
BATCH_HORIZON = 300000


def test_batch_exploration_bit_identical_and_gated():
    """Whole-frontier batch expansion vs the per-transition oracle loop."""
    compiled = _compiled_pipeline()
    start = time.perf_counter()
    sequential = explore_compiled(compiled, max_states=BATCH_HORIZON)
    sequential_seconds = time.perf_counter() - start
    # Best of three: the first batch run pays NumPy's lazy-init warmup.
    batch_seconds, batch, kernel_runs = best_of(3, lambda: timed(
        lambda: explore_batch(compiled, max_states=BATCH_HORIZON)))
    # The batch graph keeps neither edges nor enabled sets: its edges are
    # regenerated from enabled sets recomputed from its rows.
    for name, left, right in zip(("words", "edges", "offsets", "parents",
                                  "frontier"), graph_columns(batch),
                                 sequential.columns()):
        assert np.array_equal(left, right), name
    assert np.array_equal(batch.tables.enabled_bits(batch._words), _pack_bits(
        batch.tables.enabled_matrix(batch._words)))
    assert batch.truncated == sequential.truncated
    states = len(sequential.states)
    rows = [
        dict({"engine": "sequential", "states": states,
              "edges": sum(map(len, sequential.edges)),
              "seconds": sequential_seconds, "speedup": 1.0},
             **throughput_metrics(states, sequential_seconds,
                                  graph=sequential)),
        dict({"engine": "batch", "states": len(batch),
              "edges": batch.edge_count(), "seconds": batch_seconds,
              "speedup": sequential_seconds / batch_seconds,
              "kernel_runs": kernel_runs},
             **throughput_metrics(len(batch), batch_seconds, graph=batch)),
    ]
    print_table(
        "batch exploration comparison (4-stage OPE, max_states={})".format(
            BATCH_HORIZON), rows)
    # The batch engine must beat the per-transition loop outright on this
    # workload; its throughput is gated by check_regression.py against the
    # committed baseline, in calibration-kernel runs.
    assert batch_seconds < sequential_seconds


def test_portfolio_racing_consistent_and_cancels():
    holey = build_pipeline_model(4, static_prefix=1, holes=[3])
    rows = []
    results = {}
    for label, options in (
            ("rotation", {}),
            ("racing", {"portfolio": {"race": True}})):
        start = time.perf_counter()
        result = Verifier(holey, max_states=50000, checker="portfolio",
                          checker_options=options).verify_deadlock_freedom()
        results[label] = result
        rows.append({
            "mode": label, "verdict": {True: "holds", False: "violated",
                                       None: "inconclusive"}[result.holds],
            "method": result.method or "-",
            "seconds": time.perf_counter() - start,
        })
    print_table("portfolio racing vs rotation (ope4s hole@3, deadlock)", rows)
    # First-conclusive-verdict semantics must agree between the modes; the
    # racing run additionally reports the losers' fate.
    assert results["rotation"].holds is False
    assert results["racing"].holds is False
    assert "won the race" in results["racing"].details


def test_semiflow_derivation():
    """Cold place-invariant derivation, component by component."""
    rows = []
    for stages, prefix in ((4, 1), (18, 2)):
        net = to_petri_net(build_pipeline_model(stages, static_prefix=prefix))
        seconds, semiflows, kernel_runs = best_of(
            3, lambda: timed(lambda: compute_semiflows(net)))
        rows.append({"model": "ope{}s_p{}".format(stages, prefix),
                     "places": len(net.places),
                     "transitions": len(net.transitions),
                     "semiflows": len(semiflows), "seconds": seconds,
                     "kernel_runs": kernel_runs})
    print_table("semiflow derivation (cold compute_semiflows, OPE)", rows)
    assert {row["model"]: row["semiflows"] for row in rows} == {
        "ope4s_p1": 138, "ope18s_p2": 768}
