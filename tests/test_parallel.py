"""Tests of the parallel subsystem: supervisor, racing, cache identity.

The central contract under test: racing portfolios must never contradict
sequential ones.
"""

import os
import threading
import time

import pytest

from repro.campaign.jobs import VerificationJob, build_pipeline_model
from repro.dfs.examples import conditional_comp_dfs, linear_pipeline, token_ring
from repro.dfs.translation import to_petri_net
from repro.exceptions import ConfigurationError
from repro.parallel.context import mp_context, start_method
from repro.parallel import supervisor
from repro.parallel.supervisor import SupervisorPool, TaskOutcome, run_supervised
from repro.petri.compiled import CompiledNet
from repro.petri.fingerprint import net_fingerprint
from repro.verification.verifier import Verifier

from oracles.compiled import is_enabled


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


def _large_task(size):
    return b"x" * size


def _recorder():
    """An outcomes dict and the ``on_outcome`` callback that fills it."""
    outcomes = {}

    def record(outcome):
        outcomes[outcome.task_id] = outcome

    return outcomes, record


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

    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            run_supervised([("x", _quick_task, (1,)), ("x", _quick_task, (2,))],
                           parallelism=1)

    def test_outcome_repr_and_start_method(self):
        assert "cancelled" in repr(TaskOutcome("t", "cancelled"))
        assert start_method() in ("fork", "spawn", "forkserver")
        assert mp_context().get_start_method() == start_method()


class TestSupervisorPool:
    def test_starts_by_priority_then_fifo(self):
        pool = SupervisorPool(1)
        started = []
        outcomes, record = _recorder()

        def submit(task_id, target, args, priority):
            pool.submit(task_id, target, args, priority=priority,
                        on_start=started.append, on_outcome=record)

        # The blocker outranks everything, so it runs first whether or not
        # the supervisor has picked it up before the rest are queued.
        submit("blocker", _slow_task, (0.5,), 10)
        for task_id, priority in (("low-1", 0), ("high-1", 5), ("low-2", 0),
                                  ("high-2", 5), ("mid", 1)):
            submit(task_id, _quick_task, (1,), priority)
        pool.shutdown(wait=True, cancel_pending=False)
        assert started == ["blocker", "high-1", "high-2", "mid", "low-1",
                           "low-2"]
        assert all(outcome.ok for outcome in outcomes.values())

    def test_per_task_none_timeout_overrides_the_pool_deadline(self):
        pool = SupervisorPool(2, timeout=0.5)
        outcomes, record = _recorder()
        pool.submit("bounded", _slow_task, (1.5,), on_outcome=record)
        pool.submit("unbounded", _slow_task, (1.5,), timeout=None,
                    on_outcome=record)
        pool.shutdown(wait=True, cancel_pending=False)
        assert outcomes["bounded"].status == "timeout"
        assert outcomes["unbounded"].status == "ok"

    def test_crash_is_contained_and_the_pool_goes_on(self):
        pool = SupervisorPool(1)
        outcomes, record = _recorder()
        pool.submit("dead", _crashing_task, on_outcome=record)
        pool.submit("alive", _quick_task, (21,), on_outcome=record)
        pool.shutdown(wait=True, cancel_pending=False)
        assert outcomes["dead"].status == "crashed"
        assert "exit code 17" in outcomes["dead"].error
        assert outcomes["alive"].payload == 42

    def test_worker_that_cannot_start_is_an_error_not_a_dead_pool(
            self, monkeypatch):
        pool = SupervisorPool(1)
        process_class = pool.context.Process
        original_start = process_class.start
        calls = []

        def start(process):
            calls.append(process)
            if len(calls) == 1:
                raise OSError(12, "cannot allocate memory")
            return original_start(process)

        monkeypatch.setattr(process_class, "start", start)
        outcomes, record = _recorder()
        pool.submit("unstartable", _quick_task, (1,), on_outcome=record)
        pool.submit("double", _quick_task, (21,), on_outcome=record)
        pool.shutdown(wait=True, cancel_pending=False)
        assert outcomes["unstartable"].status == "error"
        assert "cannot allocate memory" in outcomes["unstartable"].error
        assert outcomes["double"].payload == 42

    def test_shutdown_cancels_or_drains(self):
        pool = SupervisorPool(1)
        outcomes, record = _recorder()
        running = threading.Event()
        pool.submit("slow", _slow_task, (60,), on_outcome=record,
                    on_start=lambda _: running.set())
        pool.submit("queued", _quick_task, (1,), on_outcome=record)
        assert running.wait(30)
        started = time.monotonic()
        pool.shutdown(wait=True, cancel_pending=True)
        assert time.monotonic() - started < 10
        assert outcomes["slow"].status == "cancelled"
        assert outcomes["queued"].status == "cancelled"
        with pytest.raises(ConfigurationError):
            pool.submit("late", _quick_task, (1,))

        pool = SupervisorPool(1)
        outcomes.clear()
        for index in range(3):
            pool.submit(index, _quick_task, (index,), on_outcome=record)
        pool.shutdown(wait=True, cancel_pending=False)
        assert [outcomes[index].payload for index in range(3)] == [0, 2, 4]

    def test_raising_callback_is_counted_not_fatal(self):
        pool = SupervisorPool(1)
        outcomes, record = _recorder()

        def explode(outcome):
            raise RuntimeError("callback bug")

        pool.submit("first", _quick_task, (1,), on_outcome=explode)
        pool.submit("second", _quick_task, (2,), on_outcome=record)
        pool.shutdown(wait=True, cancel_pending=False)
        assert pool.callback_errors == 1
        assert outcomes["second"].payload == 4

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_result_larger_than_a_pipe_buffer_is_ok(self, method,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_MP_START_METHOD", method)
        outcomes = run_supervised([("big", _large_task, (1 << 20,))],
                                  parallelism=1, timeout=60)
        assert outcomes[0].status == "ok"
        assert len(outcomes[0].payload) == 1 << 20

    def test_idle_pool_and_scheduler_never_wake(self, monkeypatch):
        from repro.campaign.scheduler import CampaignScheduler

        calls = []
        real_wait = supervisor.wait

        def counting_wait(*args, **kwargs):
            calls.append(time.monotonic())
            return real_wait(*args, **kwargs)

        monkeypatch.setattr(supervisor, "wait", counting_wait)
        threads_before = set(threading.enumerate())
        pool = SupervisorPool(1)
        scheduler = CampaignScheduler(parallelism=1)
        try:
            time.sleep(0.2)  # start-up: each loop enters its first wait
            settled = len(calls)
            time.sleep(2.0)
            assert len(calls) == settled, "an idle supervisor woke up"
            helpers = set(threading.enumerate()) - threads_before
            assert sorted(thread.name for thread in helpers) == [
                "supervisor-pool", "supervisor-pool"]
            # Still live: a submission wakes the blocked wait at once.
            outcomes, record = _recorder()
            pool.submit("wake", _quick_task, (21,), on_outcome=record)
            pool.shutdown(wait=True, cancel_pending=False)
            assert outcomes["wake"].payload == 42
        finally:
            pool.shutdown()
            scheduler.shutdown()


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

    def test_race_reports_the_states_its_exhaustive_member_explored(self):
        """The header of a raced run counts the member's states, not 0.

        The walk member never proves "holds", so the exhaustive member
        wins deadlock freedom and its graph lives in its worker only.
        """
        verifier = Verifier(
            conditional_comp_dfs(), checker="portfolio",
            checker_options={"portfolio": {"race": True,
                                           "order": ("walk", "exhaustive")}})
        summary = verifier.verify_properties(["deadlock"])
        (result,) = summary.results
        assert result.holds is True and result.method == "exhaustive"
        assert summary.state_count == 39
        assert summary.truncated is False
        assert summary.exploration is not None

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


# -- cache identity ----------------------------------------------------------


class TestCacheIdentity:
    def test_fingerprint_reexports_stay_stable(self):
        net = to_petri_net(token_ring())
        from repro.campaign.cache import net_fingerprint as campaign_fingerprint
        assert campaign_fingerprint(net) == net_fingerprint(net)


# -- walk hole hunts ----------------------------------------------------------


class TestWalkHoleHunt:
    def test_walker_finds_the_hole(self):
        holey = build_pipeline_model(3, static_prefix=1, holes=[2])
        result = Verifier(
            holey, checker="walk",
            checker_options={"walk": {"walks": 16, "steps": 256}},
        ).verify_deadlock_freedom()
        assert result.holds is False
        assert result.witnesses[0]["trace"]

    def test_witness_traces_replay_to_the_witness(self):
        """Every witness trace must actually reach its deadlocked state."""
        holey = build_pipeline_model(3, static_prefix=1, holes=[2])
        verifier = Verifier(
            holey, checker="walk",
            checker_options={"walk": {"walks": 16, "steps": 256}})
        result = verifier.verify_deadlock_freedom()
        compiled = CompiledNet.compile(verifier.net)
        for witness in result.witnesses:
            state = compiled.encode(verifier.net.initial_marking())
            for name in witness["trace"]:
                index = compiled.transition_index[name]
                assert is_enabled(compiled, index, state)
                state = compiled.fire(index, state)
            assert compiled.decode(state) == witness["marking"]

    def test_deterministic_per_seed(self):
        holey = build_pipeline_model(3, static_prefix=1, holes=[2])

        def run(seed):
            return Verifier(
                holey, checker="walk",
                checker_options={"walk": {"walks": 8, "steps": 128,
                                          "seed": seed}},
            ).verify_deadlock_freedom()

        first, second = run(0xBEEF), run(0xBEEF)
        assert first.holds == second.holds
        assert [w["trace"] for w in first.witnesses] == \
            [w["trace"] for w in second.witnesses]

    def test_restarts_option_is_refused(self):
        """Walks have no restart pool, so its option is an unknown one."""
        options = {"walk": {"restarts": 0}}
        holey = build_pipeline_model(3, static_prefix=1, holes=[2])
        with pytest.raises(ConfigurationError, match="restarts"):
            Verifier(holey, checker="walk", checker_options=options)
        with pytest.raises(ConfigurationError, match="restarts"):
            VerificationJob("j", "pipeline",
                            kwargs={"stages": 3, "holes": [2]},
                            checker="walk", checker_options=options)
