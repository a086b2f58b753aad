"""Vectorised walk swarms: falsification throughput, scalar oracle vs swarm.

The walk swarm and its test oracle, the pure-int scalar walker of
``tests/oracles/walk.py``, share one semantics (counter-based RNG, guidance
ranks, restart pool -- ``walk_core``), so the swarm may only ever change
*throughput*.  This bench measures that throughput on the deadlock hunt
over a **clean** 4-stage OPE pipeline: with no deadlock to find, every walk
exhausts its full step budget and the run is a pure firing-rate measurement
(the differential tests cover verdicts; this file covers speed).

Each row hunts with the same per-walk budget (256 steps) and reports
``seconds_per_kstep`` -- wall-clock seconds per thousand committed firings,
taken from the checker's ``last_hunt_stats``, best of three runs.  The
swarm rows advance 1k / 8k walks as rows of one uint64 matrix per pass on
the batch firing primitive; the scalar row fires one transition at a time
in pure-int Python.

``benchmarks/check_regression.py`` gates the ``swarm-8k`` hunt's cost in
in-process calibration-kernel runs against the committed baseline, and
the assertion below pins the acceptance floor of the vectorisation: at 8k
rows the swarm must fire at least **5x** the scalar oracle's rate.
"""

from repro.campaign.jobs import build_pipeline_model
from repro.dfs.translation import to_petri_net
from repro.verification.checkers import (
    CheckerContext,
    DeadlockQuery,
    create_checker,
)

from oracles.walk import ScalarWalkChecker

from .conftest import best_of, print_table, timed

#: Per-walk step budget of every row (the walk checker default).
STEPS = 256

#: row label -> (walks, swarm width); the ``scalar`` row runs the oracle.
#: The scalar walker gets a smaller walk count -- the metric is normalised
#: per kstep, and 64 x 256 pure-int firings already time robustly.
CONFIGS = (
    ("scalar", 64, 1),
    ("swarm-1k", 1024, 1024),
    ("swarm-8k", 8192, 8192),
)


def _hunt_once(net, label, walks, swarm):
    """One timed deadlock hunt; returns (seconds, committed steps)."""
    options = {"walks": walks, "swarm": swarm, "steps": STEPS}
    if label == "scalar":
        checker = ScalarWalkChecker(CheckerContext(net), **options)
    else:
        checker = create_checker("walk", CheckerContext(net), options)
    seconds, outcome = timed(lambda: checker.check(DeadlockQuery()))
    assert outcome.holds is None, "the clean pipeline has no deadlock"
    return seconds, checker.last_hunt_stats["steps"]


def test_swarm_throughput_over_the_scalar_walker():
    net = to_petri_net(build_pipeline_model(4, static_prefix=1))

    rows = []
    per_kstep = {}
    for label, walks, swarm in CONFIGS:
        seconds, steps, kernel_runs = best_of(
            3, lambda: _hunt_once(net, label, walks, swarm))
        # Every walk of the clean model exhausts its full budget.
        assert steps == walks * STEPS
        per_kstep[label] = seconds / (steps / 1000.0)
        rows.append({
            "backend": label, "walks": walks, "steps": steps,
            "seconds": seconds, "seconds_per_kstep": per_kstep[label],
            "speedup": "{:.1f}x".format(
                per_kstep["scalar"] / per_kstep[label]),
            "kernel_runs": kernel_runs,
        })
    print_table(
        "vectorised walk throughput (clean 4-stage OPE deadlock hunt, "
        "{} steps/walk)".format(STEPS), rows)

    # The acceptance floor of the vectorisation: the 8k-row swarm fires at
    # least 5x faster per step than the pure-int scalar oracle.
    assert per_kstep["scalar"] / per_kstep["swarm-8k"] >= 5.0, (
        "swarm-8k is only {:.1f}x the scalar firing rate".format(
            per_kstep["scalar"] / per_kstep["swarm-8k"]))
    # Width pays: the wider swarm amortises per-pass overhead at least as
    # well as the narrow one (allowing a little measurement jitter).
    assert per_kstep["swarm-8k"] <= per_kstep["swarm-1k"] * 1.25
