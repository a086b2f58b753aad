#!/usr/bin/env python
"""Bench-regression gate: compare fresh ``BENCH_*.json`` against baselines.

CI runs the benchmarks with ``BENCH_JSON=<dir>`` (see
``benchmarks/conftest.py``), then calls this script to compare the fresh
results against the committed baselines in ``benchmarks/baselines/``.

The gates are listed in :data:`GATES`.  Absolute seconds are
meaningless across runner generations, so each gate normalises a timing by
a second timing measured in the same process on the same machine.  There
are two kinds of reference, and neither is another engine:

* a **calibrated** gate (no ``"reference"`` key) reads the gated row's
  ``kernel_runs`` column: the row's cost in runs of the fixed NumPy +
  pure-Python kernel of ``benchmarks/conftest.py``, each repeat divided by
  the kernel timed right before it, e.g. the **batch-engine verify path**
  (``bench_verification``)::

      relative = median(batch_seconds[i] / kernel_seconds[i])

* a **ratio** gate divides by another row of the same table when the ratio
  itself is the claim: a phase of the same run, a mode of the same engine,
  or a scaling step, e.g. the **persistence scan** (``bench_verification``)::

      relative = persistence_seconds / explore_seconds

A gate fails when the fresh relative cost exceeds the baseline's by more
than its tolerance: ``--tolerance`` (default 0.30, i.e. a >30% slowdown of
the gated path relative to its in-process reference) unless the gate
declares its own in :data:`GATES` -- gates over small timings carry wider
bands.

Exit codes: 0 = within tolerance, 1 = regression detected, 2 = missing or
malformed data.
"""

import argparse
import json
import os
import sys

#: The column of a gated row that holds its cost in calibration-kernel runs.
CALIBRATED = "kernel_runs"

#: The gated metrics: a bench file matches a gate when it contains the
#: gate's table with the gated row and -- for a ratio gate -- the named
#: "reference" row.  A gate's optional "tolerance" overrides the CLI default
#: (gates over small timings carry wider bands; the depth-scaling slopes
#: are a deterministic model output, so theirs is tight), its optional
#: "value" names the gated column (default "seconds", or "kernel_runs" for
#: a calibrated gate), and "two_sided" also fails on drift *below* the
#: baseline band.
GATES = [
    {
        "table": "reachability engine comparison",
        "key": "engine",
        "gated": "batch",
        "label": "batch verify path",
    },
    {
        # The persistence scan is one pass over the edges: it must stay a
        # fraction of the exploration that built the graph (~0.35), not
        # creep back toward the old pair scan's ~1.2.
        "table": "persistence scan comparison",
        "key": "step",
        "reference": "explore",
        "gated": "persistence",
        "label": "persistence scan",
    },
    {
        "table": "checker portfolio comparison",
        "key": "checker",
        "gated": "portfolio",
        "label": "portfolio verify path",
        "tolerance": 0.60,
    },
    {
        # Seconds per calibration kernel are the (inverse) throughput: a
        # >30% drop of the batch engine's states/sec fails this gate.
        "table": "batch exploration comparison",
        "key": "engine",
        "gated": "batch",
        "label": "batch exploration throughput",
    },
    {
        # The price of spilling: disk-backed seconds over in-RAM seconds,
        # both measured in fresh subprocesses on the same machine.  The
        # memmap engine is expected to sit within a few percent of RAM;
        # the band allows I/O jitter, not a structural slowdown.
        "table": "out-of-core exploration comparison",
        "key": "mode",
        "reference": "in-ram",
        "gated": "disk-backed",
        "label": "out-of-core exploration throughput",
        "tolerance": 0.60,
    },
    {
        # The memory win of spilling: disk-backed peak RSS over in-RAM
        # peak RSS.  The bench also asserts the absolute ceiling (in-RAM
        # exceeds it, disk-backed stays under); this gate catches the
        # *ratio* eroding -- e.g. a level-streaming regression that keeps
        # the whole graph resident despite the memmap backing.
        "table": "out-of-core exploration comparison",
        "key": "mode",
        "reference": "in-ram",
        "gated": "disk-backed",
        "label": "out-of-core peak RSS",
        "value": "peak_rss_kb",
        "tolerance": 0.30,
    },
    {
        # The vectorised walk swarm: the cost of the 8k-row swarm's fixed
        # 2M-step hunt.  The bench itself pins the acceptance floor over
        # the scalar test oracle (>=5x); this gate catches the swarm slowing
        # down -- e.g. a per-pass Python detour creeping into the hot loop.
        "table": "vectorised walk throughput",
        "key": "backend",
        "gated": "swarm-8k",
        "label": "vectorised walk throughput",
        "tolerance": 0.60,
    },
    {
        # The price of crash-safe exploration: checkpointed seconds over
        # the plain in-RAM run, both in-process on the same machine.  The
        # bench pins the absolute ceiling; this gate catches the overhead
        # ratio creeping up -- e.g. a whole-mapping msync sneaking back
        # into the per-level path.
        "table": "checkpointed exploration comparison",
        "key": "mode",
        "reference": "no-checkpoint",
        "gated": "checkpointed",
        "label": "checkpointed exploration overhead",
        "tolerance": 0.30,
    },
    {
        # Cold place-invariant derivation at 18 stages: well under a
        # second, so the band is wide; the gate catches the elimination
        # falling back to whole-net rounds (two orders of magnitude).
        "table": "semiflow derivation",
        "key": "model",
        "gated": "ope18s_p2",
        "label": "semiflow derivation (18 stages)",
        "tolerance": 3.00,
    },
    {
        # The service's content-addressed reuse: a warm key answered at
        # submit time.  A warm submission is about a millisecond, so the
        # band is wide -- the gate exists to catch the warm path regressing
        # toward a re-verification, not millisecond drift.
        "table": "service result reuse",
        "key": "mode",
        "gated": "warm",
        "label": "service warm-key reuse",
        "tolerance": 3.00,
    },
    {
        # The no-solver answer of the SMT proving tier: a cold
        # minimal-siphon enumeration plus trap/semiflow witnesses.  It takes
        # milliseconds, so the band is wide; the gate catches the
        # enumeration regressing toward its exponential corner.
        "table": "structural deadlock proof",
        "key": "method",
        "gated": "siphon-trap",
        "label": "siphon/trap structural proof",
        "tolerance": 3.00,
    },
    {
        "table": "time slope vs voltage",
        "key": "voltage_V",
        "reference": "1.6",
        "gated": "0.5",
        "label": "depth-scaling voltage slopes",
        "value": "slope_s_per_stage",
        "tolerance": 0.05,
        # A deterministic model output must not drift in either direction:
        # a collapsed 0.5 V slope is as much a regression as an inflated one.
        "two_sided": True,
    },
]


def load_bench(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def gate_seconds(bench, gate):
    """Extract ``(reference, gated)`` metric values for *gate*, or ``None``.

    The reference is the gate's "reference" row; a calibrated gate's value
    is already in kernel runs, so its reference is ``1.0``.
    """
    reference = gate.get("reference")
    value_key = gate.get("value", "seconds" if reference else CALIBRATED)
    for table in bench.get("tables", []):
        if gate["table"] not in table.get("title", ""):
            continue
        seconds = {}
        for row in table.get("rows", []):
            name = str(row.get(gate["key"], ""))
            if reference is not None and name.startswith(reference):
                seconds["reference"] = float(row[value_key])
            elif name.startswith(gate["gated"]) and value_key in row:
                seconds["gated"] = float(row[value_key])
                if reference is None:
                    seconds["reference"] = 1.0
        if "reference" in seconds and "gated" in seconds:
            return seconds["reference"], seconds["gated"]
    return None


def compare(fresh_path, baseline_path, tolerance):
    """Compare one bench file; return report lines and a regression flag."""
    fresh_bench = load_bench(fresh_path)
    baseline_bench = load_bench(baseline_path)
    lines = ["{}:".format(os.path.basename(fresh_path))]
    regressed = False
    gates_applied = 0
    ratio_line = "  {:<9} {} = {:.4f} ({:.4g} / {:.4g})"
    verdict_line = "  {} slowdown: {:+.1%} (tolerance {:+.0%}) -> {}"
    missing = "error: baseline {} has a '{}' table but the fresh result {} does not"
    incomplete = "error: baseline {} has a '{}' table without the rows gate '{}' needs"
    for gate in GATES:
        baseline = gate_seconds(baseline_bench, gate)
        if baseline is None:
            titles = [table.get("title", "") for table in baseline_bench.get("tables", [])]
            if any(gate["table"] in title for title in titles):
                raise SystemExit(incomplete.format(baseline_path, gate["table"], gate["label"]))
            continue
        fresh = gate_seconds(fresh_bench, gate)
        if fresh is None:
            raise SystemExit(missing.format(baseline_path, gate["table"], fresh_path))
        gates_applied += 1
        gate_tolerance = gate.get("tolerance", tolerance)
        base_ref, base_gated = baseline
        fresh_ref, fresh_gated = fresh
        base_relative = base_gated / base_ref
        fresh_relative = fresh_gated / fresh_ref
        slowdown = fresh_relative / base_relative - 1.0
        bad = slowdown > gate_tolerance
        if gate.get("two_sided") and -slowdown > gate_tolerance:
            bad = True
        regressed = regressed or bad
        status = "REGRESSION" if bad else "ok"
        name = "{}/{}".format(gate["gated"], gate.get("reference", "kernel"))
        row = ratio_line.format("baseline:", name, base_relative, base_gated, base_ref)
        lines.append(row)
        row = ratio_line.format("fresh:", name, fresh_relative, fresh_gated, fresh_ref)
        lines.append(row)
        verdict = verdict_line.format(gate["label"], slowdown, gate_tolerance, status)
        lines.append(verdict)
    if gates_applied == 0:
        tables = " / ".join("'{}'".format(gate["table"]) for gate in GATES)
        raise SystemExit("error: no gated table ({}) in {}".format(tables, baseline_path))
    return lines, regressed


def main(argv=None):
    default_baselines = os.path.join(os.path.dirname(__file__), "baselines")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh",
        required=True,
        metavar="DIR",
        help="directory of freshly produced BENCH_*.json files",
    )
    parser.add_argument(
        "--baselines",
        default=default_baselines,
        metavar="DIR",
        help="directory of committed baselines",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed relative slowdown (default 0.30)",
    )
    args = parser.parse_args(argv)

    if not os.path.isdir(args.fresh):
        print("error: fresh directory {!r} does not exist".format(args.fresh))
        return 2
    names = sorted(os.listdir(args.baselines)) if os.path.isdir(args.baselines) else []
    baselines = [n for n in names if n.startswith("BENCH_") and n.endswith(".json")]
    if not baselines:
        print("error: no BENCH_*.json baselines in {!r}".format(args.baselines))
        return 2

    regressed = False
    compared = 0
    for name in baselines:
        fresh_path = os.path.join(args.fresh, name)
        if not os.path.exists(fresh_path):
            print("warning: no fresh result for baseline {} -- skipped".format(name))
            continue
        try:
            lines, bad = compare(fresh_path, os.path.join(args.baselines, name), args.tolerance)
        except SystemExit as error:
            print(error)
            return 2
        print("\n".join(lines))
        compared += 1
        regressed = regressed or bad
    if compared == 0:
        print("error: no baseline had a matching fresh result")
        return 2
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
