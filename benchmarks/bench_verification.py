"""E5 / Section III-A: formal verification of the (reconfigurable) OPE pipeline.

The paper reports that "several cases of deadlock and non-persistent
behaviour (mostly due to incorrect initialisation of control registers) were
identified, analysed and corrected during the design process".  This bench
runs that evaluation as a **campaign** (:mod:`repro.campaign`): a scenario
grid over pipeline depth x injected configuration holes, fanned out over
worker processes.  Correctly initialised scenarios pass every check; every
mis-initialised one is caught with a deadlock counterexample trace.
"""

import os
import time

from repro.campaign import ScenarioSpec, generate_scenarios, run_campaign
from repro.campaign.jobs import build_pipeline_model
from repro.dfs.translation import to_petri_net
from repro.petri.batch import explore_batch
from repro.petri.compiled import CompiledNet
from repro.pipelines.generic import build_generic_pipeline
from repro.verification.verifier import Verifier

from oracles.reachability import explore

from .conftest import best_of, print_table, timed


def _run_campaign():
    spec = ScenarioSpec(depths=(2, 3), holes=(0, 1), max_states=500000)
    jobs, skipped = generate_scenarios(spec)
    return run_campaign(jobs, parallelism=2, timeout=300,
                        spec=spec, skipped=skipped)


def _verify_once():
    """One timed ``verify_all`` of the 2-stage OPE.

    The DFS-to-Petri-net translation is identical for both engines and is
    built outside the timed region, so the comparison isolates the
    explore-dominated work the engines actually differ on.
    """
    pipeline = build_generic_pipeline(2, static_prefix_stages=1, name="ope_ok")
    verifier = Verifier(pipeline.dfs, max_states=500000)
    verifier.net  # translate up front
    seconds, summary = timed(lambda: verifier.verify_all(include_persistence=False))
    assert summary.passed
    return seconds, summary


def _time_persistence():
    """Best-of-3 seconds of exploring the 4-stage OPE and of its persistence scan.

    The graph is cut at 300k states (prefix 1), so the frontier is large and
    the scan pays for its recomputed frontier rows too.
    """
    compiled = CompiledNet.compile(to_petri_net(build_pipeline_model(4, static_prefix=1)))
    explore = persistence = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        graph = explore_batch(compiled, max_states=300000)
        explore = min(explore, time.perf_counter() - start)
        start = time.perf_counter()
        violations, _ = graph.persistence_scan()
        persistence = min(persistence, time.perf_counter() - start)
        # Truncated and violation-free: inconclusive, never a false hazard.
        assert graph.truncated and violations == 0, violations
    return {"explore": explore, "persistence": persistence}


def _explicit_graph(net, max_states=200000, **_):
    """The explicit oracle engine in place of the batch engine."""
    return explore(net, max_states=max_states)


def test_verification_of_ope_pipeline_configurations(benchmark, monkeypatch):
    report = _run_campaign()
    print_table("Section III-A -- verification campaign over OPE configurations",
                report.rows())

    # Every scenario ran to completion and behaved as the grid predicted:
    # clean configurations verify, hole configurations deadlock.
    assert report.ok
    assert all(result.status == "ok" for result in report.results)
    hole_results = [result for result in report.results
                    if result.job.expect == "deadlock"]
    clean_results = [result for result in report.results
                     if result.job.expect == "pass"]
    assert hole_results and clean_results
    for result in clean_results:
        assert result.verdict["passed"]
    for result in hole_results:
        deadlock = next(record for record in result.verdict["properties"]
                        if record["property"] == "deadlock")
        assert deadlock["holds"] is False
        assert deadlock["trace"]
        print("{}: counterexample trace length {}".format(
            result.job.job_id, len(deadlock["trace"])))
    # The invalid grid point (a hole in a 2-stage pipeline leaves no stage
    # behind it) is reported, not silently dropped.
    assert len(report.skipped) == 1

    with monkeypatch.context() as patch:
        patch.setattr("repro.verification.checkers.base."
                      "build_reachability_graph", _explicit_graph)
        explicit, explicit_summary, _ = best_of(5, _verify_once)
    # The explicit engine keeps no exploration stats: the swap took effect.
    assert explicit_summary.exploration is None
    batch, _, kernel_runs = best_of(5, _verify_once)
    speedup = explicit / batch
    print_table("reachability engine comparison (verify_all, 2-stage OPE)", [
        {"engine": "explicit (hash-dict multisets)", "seconds": explicit},
        {"engine": "batch (bitmask states)", "seconds": batch,
         "kernel_runs": kernel_runs},
        {"engine": "speedup", "seconds": speedup},
    ])

    # The bitmask engine is the point of this subsystem: it must stay well
    # ahead of the explicit explorer on explore-dominated workloads.  The
    # floor is relaxed on shared CI runners, where the ~10-20ms batch
    # timing absorbs scheduler noise.
    assert speedup >= (3.0 if os.environ.get("CI") else 5.0)

    scan = _time_persistence()
    print_table("persistence scan comparison (4-stage OPE, prefix 1, 300k states)", [
        {"step": "explore", "seconds": scan["explore"]},
        {"step": "persistence", "seconds": scan["persistence"]},
        {"step": "ratio", "seconds": scan["persistence"] / scan["explore"]},
    ])

    benchmark(_run_campaign)
