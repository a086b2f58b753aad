"""Vectorised walk swarms: falsification throughput, scalar oracle vs swarm.

The walk swarm and its test oracle, the pure-int scalar walker of
``tests/oracles/walk.py``, share one semantics (counter-based RNG and
guidance ranks -- ``walk_core``), so the swarm may only ever change
*throughput*.  This bench measures that throughput on the deadlock hunt
over a **clean** 4-stage OPE pipeline: with no deadlock to find, every walk
exhausts its full step budget and the run is a pure firing-rate measurement
(the differential tests cover verdicts; this file covers speed).

Each row hunts with the same per-walk budget (256 steps) and reports
``seconds_per_kstep`` -- wall-clock seconds per thousand committed firings,
taken from the checker's ``last_hunt_stats``, best of :data:`ROUNDS` runs.
The swarm rows advance 1k / 8k walks as rows of one uint64 matrix per pass
on the batch firing primitive; the scalar row fires one transition at a
time in pure-int Python.

``benchmarks/check_regression.py`` gates the ``swarm-8k`` hunt's cost in
in-process calibration-kernel runs against the committed baseline, and
the assertions below pin the acceptance floor of the vectorisation: at 8k
rows the swarm must fire at least **5x** the scalar oracle's rate, and
per step no slower than 1.25x the 1k swarm.

The rows are timed round-robin, one run of each per round, and each
assertion takes the median over the rounds of the two rows' ratio within
a round.  A shared host's speed drifts in phases that can favour one row.
On a 2-core shared host, in the CI bench-smoke order, ten runs that timed
each row's best of three one row after the other read the 8k / 1k ratio
from 0.87 to 1.23 for the same code, and best-of-five figures taken from
the rounds below read up to 1.29; the median paired ratio read 1.05-1.19.
"""

import statistics

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

#: Measurement rounds; each round times every row once.
ROUNDS = 5


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

    # label -> per round, best_of(1, ...)'s (seconds, steps, kernel runs).
    runs = {label: [] for label, _, _ in CONFIGS}
    for _ in range(ROUNDS):
        for label, walks, swarm in CONFIGS:
            runs[label].append(best_of(
                1, lambda: _hunt_once(net, label, walks, swarm)))
    # label -> per round, seconds per thousand committed steps.
    per_kstep = {}
    rows = []
    for label, walks, _ in CONFIGS:
        # Every walk of the clean model exhausts its full budget.
        assert all(steps == walks * STEPS for _, steps, _ in runs[label])
        per_kstep[label] = [seconds / (walks * STEPS / 1000.0)
                            for seconds, _, _ in runs[label]]
        rows.append({
            "backend": label, "walks": walks, "steps": walks * STEPS,
            "seconds": min(seconds for seconds, _, _ in runs[label]),
            "seconds_per_kstep": min(per_kstep[label]),
            "speedup": "{:.1f}x".format(
                min(per_kstep["scalar"]) / min(per_kstep[label])),
            # best_of's estimator over every round: the median cost.
            "kernel_runs": statistics.median(
                kernel_runs for _, _, kernel_runs in runs[label]),
        })
    print_table(
        "vectorised walk throughput (clean 4-stage OPE deadlock hunt, "
        "{} steps/walk)".format(STEPS), rows)

    def paired(slow, fast):
        """Median over the rounds of *slow*'s per-step cost over *fast*'s."""
        return statistics.median(
            a / b for a, b in zip(per_kstep[slow], per_kstep[fast]))

    speedup = paired("scalar", "swarm-8k")
    ratio = paired("swarm-8k", "swarm-1k")
    print_table("median paired per-step cost ratios over {} rounds".format(
        ROUNDS), [{"ratio": "scalar / swarm-8k", "median": speedup},
                  {"ratio": "swarm-8k / swarm-1k", "median": ratio}])

    # The acceptance floor of the vectorisation: the 8k-row swarm fires at
    # least 5x faster per step than the pure-int scalar oracle.
    assert speedup >= 5.0, (
        "swarm-8k is only {:.1f}x the scalar firing rate".format(speedup))
    # Width pays: the wider swarm amortises per-pass overhead at least as
    # well as the narrow one (allowing a little measurement jitter).
    assert ratio <= 1.25, (
        "swarm-8k costs {:.2f}x swarm-1k per step".format(ratio))
