"""Tests for the verification-campaign subsystem (repro.campaign)."""

import json
import os
import time

import pytest

from repro.campaign import (
    ResultCache,
    ScenarioSpec,
    VerificationJob,
    generate_scenarios,
    net_fingerprint,
    options_digest,
    register_factory,
    run_campaign,
    start_method,
)
from repro.dfs.translation import to_petri_net
from repro.verification.verifier import Verifier
from repro.workcraft.cli import main as cli_main


# Worker-failure factories.  They are registered at import time, so forked
# campaign worker processes inherit them; the tests that rely on this skip on
# platforms without the fork start method.
def _sleepy_factory(**kwargs):
    time.sleep(60)


def _crashy_factory(**kwargs):
    os._exit(3)


def _raisy_factory(**kwargs):
    raise ValueError("intentional factory failure")


register_factory("_test_sleepy", _sleepy_factory)
register_factory("_test_crashy", _crashy_factory)
register_factory("_test_raisy", _raisy_factory)

needs_fork = pytest.mark.skipif(
    start_method() != "fork",
    reason="registry factories only reach worker processes under the fork start method")


class TestScenarioGeneration:
    def test_grid_expansion_and_expectations(self):
        spec = ScenarioSpec(depths=(2, 3, 4), holes=(0, 1))
        jobs, skipped = generate_scenarios(spec)
        ids = [job.job_id for job in jobs]
        assert ids == ["pipeline-d2-p1-h0", "pipeline-d3-p1-h0", "pipeline-d3-p1-h1",
                       "pipeline-d4-p1-h0", "pipeline-d4-p1-h1"]
        by_id = {job.job_id: job for job in jobs}
        assert by_id["pipeline-d3-p1-h1"].expect == "deadlock"
        assert by_id["pipeline-d3-p1-h1"].kwargs["holes"] == [2]
        assert by_id["pipeline-d4-p1-h0"].expect == "pass"
        # depth 2 with one hole leaves no included stage behind the hole.
        assert len(skipped) == 1
        assert skipped[0]["axes"]["depth"] == 2
        assert "no included stage" in skipped[0]["reason"]

    def test_invalid_prefix_is_skipped_not_dropped_silently(self):
        spec = ScenarioSpec(depths=(2,), static_prefixes=(3,), holes=(0,))
        jobs, skipped = generate_scenarios(spec)
        assert jobs == []
        assert len(skipped) == 1
        assert "exceeds" in skipped[0]["reason"]

    def test_hole_without_deadlock_check_carries_no_prediction(self):
        spec = ScenarioSpec(depths=(3,), holes=(1,), properties=("safeness",))
        jobs, _ = generate_scenarios(spec)
        assert jobs[0].expect is None
        report = run_campaign(jobs, parallelism=0)
        # The reduced sweep passes and, with no prediction, still counts as
        # matched instead of poisoning the campaign's exit status.
        assert report.results[0].matched is True
        assert report.ok

    def test_duplicate_seed_and_voltage_values_are_deduped(self):
        spec = ScenarioSpec(depths=(2,), lfsr_seeds=(1, 1), voltages=(1.2, 1.2))
        jobs, _ = generate_scenarios(spec)
        assert len(jobs) == 1

    def test_negative_axis_values_are_skipped_with_reasons(self):
        jobs, skipped = generate_scenarios(ScenarioSpec(depths=(3,), holes=(-1,)))
        assert jobs == []
        assert "negative" in skipped[0]["reason"]
        jobs, skipped = generate_scenarios(
            ScenarioSpec(depths=(3,), static_prefixes=(-1,)))
        assert jobs == []
        assert "negative" in skipped[0]["reason"]

    def test_jobs_are_picklable(self):
        import pickle

        jobs, _ = generate_scenarios(ScenarioSpec(depths=(2,)))
        clone = pickle.loads(pickle.dumps(jobs[0]))
        assert clone.job_id == jobs[0].job_id
        assert clone.kwargs == jobs[0].kwargs


class TestEmptyCampaign:
    def test_empty_grid_yields_clean_empty_report(self, tmp_path):
        report = run_campaign([], parallelism=4, cache_dir=str(tmp_path / "cache"))
        assert len(report) == 0
        assert report.ok
        assert report.cache_hits == 0
        assert report.summary()["jobs"] == 0
        payload = json.loads(report.render_json())
        assert payload["results"] == []
        assert "| scenario |" in report.to_markdown()
        assert "0 job(s)" in report.render_text()


class TestInlineCampaign:
    def test_outcomes_match_grid_expectations(self):
        clean, skipped = generate_scenarios(ScenarioSpec(depths=(2,), holes=(0, 1)))
        holey, _ = generate_scenarios(ScenarioSpec(depths=(3,), holes=(1,)))
        report = run_campaign(clean + holey, parallelism=0)
        assert len(skipped) == 1
        assert report.ok
        assert [result.outcome for result in report.results] == ["pass", "fail"]
        deadlock = next(record for record in report.results[1].verdict["properties"]
                        if record["property"] == "deadlock")
        assert deadlock["holds"] is False
        assert deadlock["trace"], "deadlock witness must carry a trace"
        assert report.results[1].matched

    def test_factory_error_is_an_error_result(self):
        report = run_campaign([VerificationJob("bad", "_test_raisy")], parallelism=0)
        result = report.results[0]
        assert result.status == "error"
        assert "intentional factory failure" in result.error
        assert not result.matched
        assert not report.ok

    def test_unknown_factory_is_an_error_result(self):
        report = run_campaign([VerificationJob("bad", "no-such-factory")],
                              parallelism=0)
        assert report.results[0].status == "error"
        assert "unknown model factory" in report.results[0].error

    def test_duplicate_job_ids_are_rejected(self):
        from repro.exceptions import ConfigurationError

        jobs = [VerificationJob("dup", "conditional", kwargs={"comp_stages": 1}),
                VerificationJob("dup", "conditional", kwargs={"comp_stages": 2})]
        with pytest.raises(ConfigurationError):
            run_campaign(jobs, parallelism=0)


class TestCache:
    def _job(self, job_id="cache-job"):
        return VerificationJob(job_id, "conditional", kwargs={"comp_stages": 1},
                               properties=("safeness", "deadlock"))

    def test_fingerprint_is_stable_and_structure_sensitive(self):
        job = self._job()
        first = net_fingerprint(to_petri_net(job.build_model()))
        second = net_fingerprint(to_petri_net(job.build_model()))
        assert first == second
        other = VerificationJob("other", "conditional", kwargs={"comp_stages": 2})
        assert net_fingerprint(to_petri_net(other.build_model())) != first

    def test_warm_run_returns_bit_identical_verdict(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = self._job().run(cache=cache_dir)
        warm = self._job().run(cache=cache_dir)
        assert cold["cache"] == "miss"
        assert warm["cache"] == "hit"
        assert warm["verdict"] == cold["verdict"]

    def test_warm_run_skips_verification_entirely(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        self._job().run(cache=cache_dir)

        def _boom(self, *args, **kwargs):
            raise AssertionError("verification ran despite a warm cache")

        monkeypatch.setattr(Verifier, "verify_properties", _boom)
        warm = self._job().run(cache=cache_dir)
        assert warm["cache"] == "hit"
        assert warm["verdict"]["passed"] is True

    def test_option_changes_invalidate_the_key(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._job().run(cache=cache_dir)
        varied = VerificationJob("varied", "conditional", kwargs={"comp_stages": 1},
                                 properties=("safeness",))
        assert varied.run(cache=cache_dir)["cache"] == "miss"

    @pytest.mark.parametrize("checker_options,digest", [
        (None,
         "d6fa1389e10c2ebe972ab2c4dd163050cbb2d553aebd5fddb2a564babd7c41df"),
        ({"walk": {"walks": 64}},
         "573c69c4bf3370c046c25abe81fcb4772cd37e6230c83de38538a69c0aa0d79b"),
    ], ids=["default", "walks-64"])
    def test_walk_job_digests_are_pinned(self, checker_options, digest):
        """Cache keys of walk jobs survive engine refactors unchanged: these
        are the digests of releases that still had two walk engines."""
        job = VerificationJob("w", "pipeline", {"stages": 2}, checker="walk",
                              checker_options=checker_options)
        assert options_digest(job.options()) == digest

    def test_exhaustive_job_digest_is_pinned(self):
        """The digest of a release whose jobs still chose an engine: the
        constant ``"engine": "auto"`` keeps it valid."""
        job = VerificationJob("e", "pipeline", {"stages": 2})
        assert options_digest(job.options()) == (
            "1fd8cbd5f55236c57194934828d83ff811e75225403f71e8d46c275f14443397")

    def test_digest_orders_keys_canonically(self):
        assert options_digest({"a": 1, "b": 2}) == options_digest({"b": 2, "a": 1})

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache.key("f" * 64, "0" * 64)
        with open(cache.path(key), "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert cache.get(key) is None


class TestWorkerPool:
    @needs_fork
    def test_timeout_surfaces_as_failed_result_not_hung_pool(self):
        jobs = [VerificationJob("slow", "_test_sleepy"),
                VerificationJob("fast", "conditional", kwargs={"comp_stages": 1})]
        started = time.perf_counter()
        report = run_campaign(jobs, parallelism=2, timeout=1.0)
        elapsed = time.perf_counter() - started
        assert elapsed < 30, "the pool must not wait for the sleeping worker"
        by_id = {result.job.job_id: result for result in report.results}
        assert by_id["slow"].status == "timeout"
        assert "deadline" in by_id["slow"].error
        assert not by_id["slow"].matched
        assert by_id["fast"].status == "ok"
        assert by_id["fast"].matched
        assert not report.ok

    @needs_fork
    def test_crash_surfaces_as_failed_result(self):
        report = run_campaign([VerificationJob("boom", "_test_crashy")],
                              parallelism=1, timeout=30)
        result = report.results[0]
        assert result.status == "crashed"
        assert "exit code 3" in result.error
        assert result.outcome == "crashed"
        assert not report.ok

    @needs_fork
    def test_parallel_results_keep_job_order(self):
        jobs, _ = generate_scenarios(ScenarioSpec(depths=(2,), holes=(0,),
                                                  lfsr_seeds=(1, 2, 3)))
        report = run_campaign(jobs, parallelism=3, timeout=120)
        assert [result.job.job_id for result in report.results] == \
            [job.job_id for job in jobs]
        assert report.ok


class TestCampaignCli:
    @needs_fork
    def test_grid_cli_parallel_with_warm_cache_second_run(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        report_path = str(tmp_path / "report.json")
        argv = ["campaign", "--grid", "depth=2..3", "--holes", "0,1",
                "--jobs", "2", "--cache-dir", cache_dir, "--json", report_path,
                "--quiet"]
        assert cli_main(argv) == 0
        cold = json.load(open(report_path, encoding="utf-8"))
        assert cold["summary"]["jobs"] == 3
        assert cold["summary"]["mismatched"] == 0
        assert cold["summary"]["cache_hits"] == 0
        assert cold["campaign"]["grid"]["depths"] == [2, 3]

        assert cli_main(argv) == 0
        warm = json.load(open(report_path, encoding="utf-8"))
        # The warm run answers every job from the verdict cache...
        assert warm["summary"]["cache_hits"] == warm["summary"]["jobs"] == 3
        # ...with verdicts bit-identical to the cold run.
        cold_verdicts = [result["verdict"] for result in cold["results"]]
        warm_verdicts = [result["verdict"] for result in warm["results"]]
        assert warm_verdicts == cold_verdicts
        capsys.readouterr()

    @needs_fork
    def test_crashed_job_exits_with_infrastructure_code(self, tmp_path):
        """A crashed worker is an infrastructure failure: exit 2, not 0/1."""
        report_path = str(tmp_path / "report.json")
        argv = ["campaign", "--grid", "depth=2", "--family", "_test_crashy",
                "--jobs", "1", "--timeout", "30", "--no-cache",
                "--json", report_path, "--quiet"]
        assert cli_main(argv) == 2
        payload = json.load(open(report_path, encoding="utf-8"))
        assert payload["summary"]["outcomes"]["crashed"] == 1
        assert payload["summary"]["ok"] is False

    @needs_fork
    def test_timed_out_job_exits_with_infrastructure_code(self, tmp_path):
        report_path = str(tmp_path / "report.json")
        argv = ["campaign", "--grid", "depth=3", "--jobs", "1",
                "--timeout", "0.05", "--no-cache", "--json", report_path,
                "--quiet"]
        assert cli_main(argv) == 2
        payload = json.load(open(report_path, encoding="utf-8"))
        assert payload["summary"]["outcomes"]["timeout"] == 1

    def test_bad_grid_axis_is_rejected(self, capsys):
        assert cli_main(["campaign", "--grid", "bogus=1"]) == 2
        assert "invalid --grid entry 'bogus=1'" in capsys.readouterr().err

    def test_malformed_axis_values_are_clean_cli_errors(self, capsys):
        assert cli_main(["campaign", "--grid", "depth=x"]) == 2
        assert "invalid axis value 'x'" in capsys.readouterr().err
        assert cli_main(["campaign", "--grid", "depth=2", "--holes", "x"]) == 2
        assert "invalid axis value 'x'" in capsys.readouterr().err
        assert cli_main(["campaign", "--grid", "depth=2",
                         "--voltages", "0.9..1.2"]) == 2
        assert "only supported for integer axes" in capsys.readouterr().err

    def test_unknown_property_name_is_a_parse_time_error(self, capsys):
        assert cli_main(["campaign", "--grid", "depth=2",
                         "--properties", "deadlok"]) == 2
        assert "unknown property 'deadlok'" in capsys.readouterr().err
        assert cli_main(["campaign", "--grid", "depth=2",
                         "--properties", ","]) == 2
        assert "--properties names no check" in capsys.readouterr().err

    def test_custom_name_shadowing_a_builtin_is_refused(self, capsys):
        assert cli_main(["campaign", "--grid", "depth=2", "--no-cache",
                         "--custom", "deadlock=true"]) == 2
        assert "shadow built-in checks" in capsys.readouterr().err

    def test_report_directories_are_created_up_front(self, tmp_path):
        report_path = str(tmp_path / "nested" / "dir" / "report.json")
        argv = ["campaign", "--grid", "depth=2", "--jobs", "0", "--no-cache",
                "--json", report_path, "--quiet"]
        assert cli_main(argv) == 0
        assert json.load(open(report_path, encoding="utf-8"))["summary"]["jobs"] == 1

    @needs_fork
    def test_simulation_and_voltage_axes_annotate_verdicts(self, tmp_path):
        report_path = str(tmp_path / "report.json")
        argv = ["campaign", "--grid", "depth=2", "--seeds", "0xACE1",
                "--voltages", "1.2", "--simulate-steps", "25", "--jobs", "1",
                "--no-cache", "--json", report_path, "--quiet"]
        assert cli_main(argv) == 0
        payload = json.load(open(report_path, encoding="utf-8"))
        verdict = payload["results"][0]["verdict"]
        assert verdict["simulation"]["lfsr_seed"] == 0xACE1
        assert verdict["simulation"]["fired"] > 0
        assert verdict["voltage"]["operational"] is True
