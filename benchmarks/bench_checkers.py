"""Checker portfolio: conclusive verdicts beyond the truncation horizon.

The pre-refactor verification path had exactly one answer for a state space
larger than ``max_states``: "inconclusive (truncated)".  This bench runs the
acceptance scenario of the pluggable-checker refactor on a 4-stage OPE
pipeline whose reachable state space (>2M states) exceeds the exploration
bound many times over:

* the **inductive** checker proves 1-safeness and token-value exclusion
  conclusively, from place invariants alone, without building any state
  space;
* the **walk** checker finds the injected-hole deadlock (the paper's
  Section III-A bug class) tens of firings deep, where breadth-first
  exploration drowns;
* the **portfolio** checker delivers both through one interface; its
  overhead over the plain exhaustive engine in the *conclusive* regime is
  reported and bounded here, and its cost in calibration-kernel runs is
  gated by ``benchmarks/check_regression.py``.

Campaign cache keys include the checker choice, so verdicts produced by
different checkers never shadow each other on disk.
"""

import time

from repro.campaign import ScenarioSpec, generate_scenarios, options_digest
from repro.campaign.jobs import build_pipeline_model
from repro.verification.verifier import Verifier

from .conftest import best_of, print_table, timed

#: Exploration bound of the bench: far below the 4-stage pipeline's >2M states.
HORIZON = 50000


def _timed_battery(dfs, checker, properties, max_states=HORIZON):
    start = time.perf_counter()
    summary = Verifier(dfs, max_states=max_states,
                       checker=checker).verify_properties(properties)
    return summary, time.perf_counter() - start


def test_conclusive_verdicts_beyond_the_truncation_horizon():
    clean = build_pipeline_model(4, static_prefix=1)
    holey = build_pipeline_model(4, static_prefix=1, holes=[3])

    rows = []
    verdict_label = {True: "holds", False: "violated", None: "inconclusive"}
    by_checker = {}
    for checker in ("exhaustive", "inductive", "portfolio"):
        summary, seconds = _timed_battery(clean, checker,
                                          ("safeness", "exclusion"))
        by_checker[checker] = summary
        for result in summary.results:
            rows.append({
                "model": "ope4s clean", "checker": checker,
                "property": result.property_name,
                "verdict": verdict_label[result.holds],
                "method": result.method or "-",
                "states": summary.state_count, "seconds": seconds,
            })
    deadlock_by_checker = {}
    for checker in ("exhaustive", "walk", "portfolio"):
        start = time.perf_counter()
        result = Verifier(holey, max_states=HORIZON,
                          checker=checker).verify_deadlock_freedom()
        seconds = time.perf_counter() - start
        deadlock_by_checker[checker] = result
        rows.append({
            "model": "ope4s hole@3", "checker": checker,
            "property": result.property_name,
            "verdict": verdict_label[result.holds],
            "method": result.method or "-",
            "states": "-", "seconds": seconds,
        })
    print_table(
        "checker conclusiveness beyond the truncation horizon "
        "(4-stage OPE, max_states={})".format(HORIZON), rows)

    # The pre-refactor answer: exhaustive truncates and shrugs.
    assert by_checker["exhaustive"].truncated
    assert all(result.holds is None
               for result in by_checker["exhaustive"].results)
    assert deadlock_by_checker["exhaustive"].holds is None

    # The refactor's point: conclusive verdicts with no state-space bound.
    for checker in ("inductive", "portfolio"):
        assert all(result.holds is True
                   for result in by_checker[checker].results)
        assert all(result.method == "inductive"
                   for result in by_checker[checker].results)
        assert by_checker[checker].state_count == 0
    for checker in ("walk", "portfolio"):
        result = deadlock_by_checker[checker]
        assert result.holds is False
        assert result.method == "walk"
        assert result.witnesses[0]["trace"]


def _battery_sample(checker):
    """Time the verify battery where every checker is conclusive.

    A sample times *three* full batteries on fresh verifiers, and the
    reported number is the best of five samples: a single battery takes
    only tens of milliseconds, so the measurement needs this aggregation
    to keep run-to-run scheduler noise well inside the gate's tolerance.
    """
    verifiers = []
    for _ in range(3):
        verifier = Verifier(build_pipeline_model(2, static_prefix=1),
                            max_states=HORIZON, checker=checker)
        verifier.net  # translate up front
        verifiers.append(verifier)

    def batteries():
        for verifier in verifiers:
            summary = verifier.verify_properties(
                ("safeness", "deadlock", "mismatch", "exclusion"))
            assert summary.passed

    return timed(batteries)


def test_portfolio_overhead_in_the_conclusive_regime(benchmark):
    exhaustive, _, _ = best_of(5, lambda: _battery_sample("exhaustive"))
    portfolio, _, kernel_runs = best_of(5, lambda: _battery_sample("portfolio"))
    ratio = portfolio / exhaustive
    print_table("checker portfolio comparison (verify battery, 2-stage OPE)", [
        {"checker": "exhaustive (graph scan)", "seconds": exhaustive},
        {"checker": "portfolio (inductive+walk+exhaustive)",
         "seconds": portfolio, "kernel_runs": kernel_runs},
        {"checker": "ratio", "seconds": ratio},
    ])
    # The portfolio spends extra work (invariants, walk budget) to buy
    # conclusiveness beyond the horizon; in the conclusive regime that
    # overhead must stay bounded.  check_regression.py gates drift of the
    # portfolio's cost in calibration-kernel runs against the baseline.
    assert ratio < 20.0

    benchmark(lambda: _timed_battery(
        build_pipeline_model(2, static_prefix=1), "portfolio",
        ("safeness", "deadlock", "mismatch", "exclusion")))


def test_portfolio_campaign_with_checker_aware_cache_keys():
    spec = ScenarioSpec(depths=(4,), holes=(0, 1), max_states=HORIZON,
                        properties=("safeness", "deadlock", "exclusion"),
                        checker="portfolio")
    jobs, _ = generate_scenarios(spec)

    # The checker choice is part of the verdict cache identity: the same
    # grid swept by a different checker can never collide on disk.
    exhaustive_jobs, _ = generate_scenarios(
        ScenarioSpec(depths=(4,), holes=(0, 1), max_states=HORIZON,
                     properties=("safeness", "deadlock", "exclusion"),
                     checker="exhaustive"))
    for portfolio_job, exhaustive_job in zip(jobs, exhaustive_jobs):
        assert options_digest(portfolio_job.options()) != \
            options_digest(exhaustive_job.options())

    rows = []
    records = {}
    for job in jobs:
        payload = job.run()
        records[job.job_id] = {record["property"]: record
                               for record in payload["verdict"]["properties"]}
        for record in payload["verdict"]["properties"]:
            rows.append({
                "scenario": job.job_id, "property": record["property"],
                "holds": record["holds"], "method": record["method"] or "-",
            })
    print_table("portfolio campaign on a beyond-horizon grid (per-property "
                "methods)", rows)

    clean = records["pipeline-d4-p1-h0"]
    assert clean["safeness"]["holds"] is True
    assert clean["exclusion"]["holds"] is True
    assert clean["safeness"]["method"] == "inductive"
    assert clean["exclusion"]["method"] == "inductive"
    holey = records["pipeline-d4-p1-h1"]
    assert holey["deadlock"]["holds"] is False
    assert holey["deadlock"]["method"] == "walk"
    assert holey["deadlock"]["trace"]
