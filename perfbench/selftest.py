#!/usr/bin/env python3
"""Quick self-test of the benchmark at toy size (about five minutes).

Checks, for every workload:

* the untraced run emits exactly the ``end_to_end`` metrics of
  ``BENCHMARK.json`` and the traced run exactly its ``per_layer`` metrics,
  each with its declared unit, and both runs pass their correctness gate;
* with deliberately wrong expected verdicts the gate trips
  (``correct`` false, ``failed`` > 0);

and, on ``serve-mix``, that the exact-count channel repeats for one seed
and keeps its shape on a second seed.

Usage (from the repository root)::

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ope-verify", "cli-small", "serve-mix")
SECONDS = "2"

#: Per-layer counts that must repeat exactly for one seed.
EXACT = ("petri.states", "petri.edges", "petri.levels",
         "campaign.cold_submissions", "campaign.warm_submissions",
         "campaign.cache_hits", "campaign.coalesced", "campaign.completed")


def run(workload, trace, seed=1, *extra):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
         "--toy"] + list(extra),
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    if completed.returncode != 0:
        raise AssertionError("{} exited {}: {}".format(
            workload, completed.returncode, completed.stderr[-2000:]))
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    expected = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
                1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    failures = []

    def check(condition, message):
        print("{} {}".format("ok  " if condition else "FAIL", message))
        if not condition:
            failures.append(message)

    traced = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(workload, trace)
            units = {name: entry["unit"]
                     for name, entry in result["metrics"].items()}
            check(units == expected[trace],
                  "{} trace={} emits every declared metric with its unit".format(
                      workload, trace))
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  "{} trace={} passes its correctness gate".format(
                      workload, trace))
            if trace:
                traced[workload] = result
        broken = run(workload, 0, 1, "--break-expectations")
        check(not broken["correct"] and broken["failed"] > 0,
              "{} gate trips on wrong expected verdicts ({}/{} failed)".format(
                  workload, broken["failed"], broken["attempted"]))

    def counts(result):
        return {name: result["metrics"][name]["value"] for name in EXACT}

    again = run("serve-mix", 1)
    check(counts(again) == counts(traced["serve-mix"]),
          "serve-mix exact counts repeat for one seed: {}".format(
              counts(again)))
    other = counts(run("serve-mix", 1, 2))
    cold_share = other["campaign.cold_submissions"] / other["campaign.completed"]
    check(abs(cold_share - 0.25) < 0.05 and other["campaign.coalesced"] == 0
          and other["campaign.cache_hits"] == other["campaign.warm_submissions"],
          "serve-mix keeps its shape on a second seed: {}".format(other))
    print("{} failure(s)".format(len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
