"""Tests of the parallel subsystem: supervisor, racing, caches.

The central contracts under test: racing portfolios must never contradict
sequential ones, and warm semiflow-cache hits must equal cold derivations
element for element.
"""

import os
import time

import pytest

from repro.campaign.jobs import VerificationJob, build_pipeline_model
from repro.dfs.examples import conditional_comp_dfs, linear_pipeline, token_ring
from repro.dfs.translation import to_petri_net
from repro.exceptions import ConfigurationError
from repro.parallel.context import mp_context, start_method
from repro.parallel.supervisor import TaskOutcome, run_supervised
from repro.petri.compiled import CompiledNet
from repro.petri.fingerprint import net_fingerprint
from repro.petri.invariants import (
    InvariantBudgetExceeded,
    SemiflowCache,
    compute_semiflows,
    compute_semiflows_cached,
)
from repro.verification.verifier import Verifier


def _example_models():
    return [
        ("conditional", conditional_comp_dfs()),
        ("ring", token_ring()),
        ("linear", linear_pipeline()),
        ("ope2", build_pipeline_model(2, static_prefix=1)),
        ("ope3-hole2", build_pipeline_model(3, static_prefix=1, holes=[2])),
    ]


def _quick_task(value):
    return value * 2


def _slow_task(seconds):
    time.sleep(seconds)
    return "done"


def _failing_task():
    raise RuntimeError("boom")


def _crashing_task():
    os._exit(17)


class TestSupervisor:
    def test_runs_tasks_and_returns_payloads_in_order(self):
        outcomes = run_supervised(
            [("a", _quick_task, (1,)), ("b", _quick_task, (2,))],
            parallelism=2)
        assert [outcome.task_id for outcome in outcomes] == ["a", "b"]
        assert [outcome.payload for outcome in outcomes] == [2, 4]
        assert all(outcome.ok for outcome in outcomes)

    def test_error_timeout_and_crash_containment(self):
        outcomes = run_supervised(
            [("err", _failing_task, ()),
             ("slow", _slow_task, (60,)),
             ("dead", _crashing_task, ())],
            parallelism=3, timeout=1.5)
        by_id = {outcome.task_id: outcome for outcome in outcomes}
        assert by_id["err"].status == "error"
        assert "boom" in by_id["err"].error
        assert by_id["slow"].status == "timeout"
        assert by_id["dead"].status == "crashed"
        assert "exit code 17" in by_id["dead"].error

    def test_stop_when_cancels_the_losers(self):
        outcomes = run_supervised(
            [("fast", _quick_task, (21,)), ("slow", _slow_task, (60,))],
            parallelism=2,
            stop_when=lambda outcome: outcome.ok and outcome.payload == 42)
        by_id = {outcome.task_id: outcome for outcome in outcomes}
        assert by_id["fast"].payload == 42
        assert by_id["slow"].status == "cancelled"

    def test_inline_mode_honours_stop_when(self):
        outcomes = run_supervised(
            [("first", _quick_task, (21,)), ("second", _quick_task, (5,))],
            parallelism=0,
            stop_when=lambda outcome: outcome.ok and outcome.payload == 42)
        assert outcomes[0].payload == 42
        assert outcomes[1].status == "cancelled"

    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            run_supervised([("x", _quick_task, (1,)), ("x", _quick_task, (2,))],
                           parallelism=0)

    def test_outcome_repr_and_start_method(self):
        assert "cancelled" in repr(TaskOutcome("t", "cancelled"))
        assert start_method() in ("fork", "spawn", "forkserver")
        assert mp_context().get_start_method() == start_method()


# -- the racing portfolio -----------------------------------------------------


class TestRacingPortfolio:
    def test_race_never_contradicts_rotation(self):
        """Across the example family, racing and rotation verdicts agree."""
        for name, dfs in _example_models():
            rotation = Verifier(dfs, max_states=50000, checker="portfolio")
            racing = Verifier(
                dfs, max_states=50000, checker="portfolio",
                checker_options={"portfolio": {"race": True}})
            for check in ("verify_deadlock_freedom", "verify_safeness",
                          "verify_value_mutual_exclusion"):
                left = getattr(rotation, check)()
                right = getattr(racing, check)()
                assert left.holds == right.holds, (name, check)

    def test_race_finds_the_injected_hole_deadlock(self):
        holey = build_pipeline_model(4, static_prefix=1, holes=[3])
        result = Verifier(
            holey, max_states=50000, checker="portfolio",
            checker_options={"portfolio": {"race": True}},
        ).verify_deadlock_freedom()
        assert result.holds is False
        assert result.witnesses[0]["trace"]
        assert "won the race" in result.details

    def test_race_cancels_losers(self):
        """A conclusive winner reports the fate of every other member."""
        holey = build_pipeline_model(4, static_prefix=1, holes=[3])
        result = Verifier(
            holey, max_states=2000000, checker="portfolio",
            checker_options={"portfolio": {
                "race": True,
                "walk": {"walks": 64, "steps": 4096},
            }},
        ).verify_deadlock_freedom()
        assert result.holds is False
        # The exhaustive engine cannot finish >2M states before the walker
        # finds the hole; the race must have put it out of its misery.
        assert "exhaustive cancelled" in result.details


# -- the semiflow cache -------------------------------------------------------


class TestSemiflowCache:
    def test_warm_hit_is_bit_identical_to_cold(self, tmp_path):
        net = to_petri_net(build_pipeline_model(3, static_prefix=1))
        cache = SemiflowCache(str(tmp_path))
        cold = compute_semiflows_cached(net, cache=cache)
        assert len(cache) == 1
        warm = compute_semiflows_cached(net, cache=cache)
        direct = compute_semiflows(net)
        assert warm == cold == direct
        assert [s.to_payload() for s in warm] == [s.to_payload() for s in direct]

    def test_cache_accepts_directory_path(self, tmp_path):
        net = to_petri_net(token_ring())
        first = compute_semiflows_cached(net, cache=str(tmp_path))
        second = compute_semiflows_cached(net, cache=str(tmp_path))
        assert first == second

    def test_budget_exceeded_is_cached_and_replayed(self, tmp_path):
        net = to_petri_net(build_pipeline_model(2, static_prefix=1))
        cache = SemiflowCache(str(tmp_path))
        with pytest.raises(InvariantBudgetExceeded):
            compute_semiflows_cached(net, max_rows=1, cache=cache)
        assert len(cache) == 1  # the blow-up is remembered...
        with pytest.raises(InvariantBudgetExceeded):
            compute_semiflows_cached(net, max_rows=1, cache=cache)
        # ...and a different budget is a different cache entry.
        basis = compute_semiflows_cached(net, max_rows=20000, cache=cache)
        assert basis and len(cache) == 2

    def test_verifier_threads_the_cache_through(self, tmp_path):
        dfs = build_pipeline_model(2, static_prefix=1)
        cached = Verifier(dfs, checker="inductive",
                          semiflow_cache=str(tmp_path))
        summary = cached.verify_properties(("safeness", "exclusion"))
        assert summary.passed
        assert len(SemiflowCache(str(tmp_path))) == 1
        plain = Verifier(dfs, checker="inductive")
        warm = Verifier(dfs, checker="inductive",
                        semiflow_cache=str(tmp_path))
        left = plain.verify_properties(("safeness", "exclusion"))
        right = warm.verify_properties(("safeness", "exclusion"))
        for a, b in zip(left.results, right.results):
            assert a.holds == b.holds
            assert a.details == b.details

    def test_campaign_job_populates_semiflow_namespace(self, tmp_path):
        job = VerificationJob("j1", "pipeline",
                              kwargs={"stages": 2, "static_prefix": 1},
                              properties=("safeness", "exclusion"),
                              checker="inductive")
        cold = job.run(cache=str(tmp_path))
        semiflow_dir = tmp_path / "semiflows"
        assert semiflow_dir.is_dir() and len(SemiflowCache(str(semiflow_dir))) == 1
        warm = job.run(cache=str(tmp_path))
        assert warm["cache"] == "hit"
        assert warm["verdict"] == cold["verdict"]


# -- cache identity ----------------------------------------------------------


class TestCacheIdentity:
    def test_fingerprint_reexports_stay_stable(self):
        net = to_petri_net(token_ring())
        from repro.campaign.cache import net_fingerprint as campaign_fingerprint
        assert campaign_fingerprint(net) == net_fingerprint(net)


# -- counterexample-guided walk restarts -------------------------------------


class TestWalkRestarts:
    def test_restarting_walker_still_finds_the_hole(self):
        holey = build_pipeline_model(3, static_prefix=1, holes=[2])
        result = Verifier(
            holey, checker="walk",
            checker_options={"walk": {"walks": 16, "steps": 256,
                                      "restarts": 4}},
        ).verify_deadlock_freedom()
        assert result.holds is False
        assert result.witnesses[0]["trace"]

    def test_restart_traces_replay_to_the_witness(self):
        """Witness traces from restarted walks must actually reach the state."""
        holey = build_pipeline_model(3, static_prefix=1, holes=[2])
        verifier = Verifier(
            holey, checker="walk",
            checker_options={"walk": {"walks": 16, "steps": 256,
                                      "restarts": 4}})
        result = verifier.verify_deadlock_freedom()
        compiled = CompiledNet.compile(verifier.net)
        for witness in result.witnesses:
            state = compiled.encode(verifier.net.initial_marking())
            for name in witness["trace"]:
                index = compiled.transition_index[name]
                assert compiled.is_enabled(index, state)
                state = compiled.fire(index, state)
            assert compiled.decode(state) == witness["marking"]

    def test_deterministic_per_seed(self):
        holey = build_pipeline_model(3, static_prefix=1, holes=[2])

        def run(seed):
            return Verifier(
                holey, checker="walk",
                checker_options={"walk": {"walks": 8, "steps": 128,
                                          "restarts": 4, "seed": seed}},
            ).verify_deadlock_freedom()

        first, second = run(0xBEEF), run(0xBEEF)
        assert first.holds == second.holds
        assert [w["trace"] for w in first.witnesses] == \
            [w["trace"] for w in second.witnesses]

    def test_restarts_zero_restores_prerestart_behaviour(self):
        holey = build_pipeline_model(3, static_prefix=1, holes=[2])
        result = Verifier(
            holey, checker="walk",
            checker_options={"walk": {"walks": 16, "steps": 256,
                                      "restarts": 0}},
        ).verify_deadlock_freedom()
        assert result.holds is False
