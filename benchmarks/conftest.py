"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation and
prints its rows (run pytest with ``-s`` to see them); the assertions encode
the *shape* of the paper's results (who wins, by roughly what factor, where
the crossovers are), not the absolute silicon numbers.

Machine-readable results
------------------------

Passing ``--json DIR`` (or setting the ``BENCH_JSON`` environment variable)
makes the session write one ``BENCH_<name>.json`` per benchmark module into
*DIR*, containing every table the module printed (timings, state counts,
speedups -- whatever the rows held) plus per-test call durations and the
session's resource footprint (``peak_rss_kb``).  Exploration benches report
throughput through :func:`throughput_metrics` (states/sec and peak RSS
amortised per state).  CI uploads these files as artifacts and feeds them
to ``benchmarks/check_regression.py``.

Calibrated rows
---------------

Absolute seconds mean nothing across machines, and dividing one engine by
another quotes a speedup against whichever path happens to be slowest.  A
gated row therefore carries a ``kernel_runs`` column: its cost in runs of
:func:`calibration_kernel`, a fixed NumPy + pure-Python workload that no
change to this repository can make faster or slower, timed in the same
process right before each repeat of the row's own measurement
(:func:`best_of`).  The regression gate compares that column with the
committed baseline.
"""

import json
import os
import statistics
import sys
import time

try:
    import resource
except ImportError:  # pragma: no cover - Windows
    resource = None

# The benches compare against the reference engines kept as test oracles
# (``tests/oracles``); ``--import-mode=importlib`` leaves sys.path alone, so
# the tests directory is put on it here.
TESTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "tests")
if TESTS_DIR not in sys.path:
    sys.path.append(TESTS_DIR)

#: module name -> list of {"title": ..., "rows": [...]} in print order.
_TABLES = {}
#: module name -> {test name: call duration in seconds}.
_DURATIONS = {}


def _caller_module(depth=2):
    """Best-effort name of the benchmark module calling :func:`print_table`."""
    frame = sys._getframe(depth)
    name = frame.f_globals.get("__name__", "unknown")
    return name.rpartition(".")[2]


def print_table(title, rows, columns=None):
    """Print a list of row dictionaries as an aligned text table.

    The table is also recorded for the ``--json`` / ``BENCH_JSON`` report of
    the calling benchmark module.
    """
    _TABLES.setdefault(_caller_module(), []).append(
        {"title": title, "rows": [dict(row) for row in rows]})
    print("\n== {} ==".format(title))
    if not rows:
        print("(no rows)")
        return
    columns = columns or list(rows[0].keys())
    widths = {column: max(len(str(column)),
                          max(len(_format(row.get(column))) for row in rows))
              for column in columns}
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(_format(row.get(column)).ljust(widths[column]) for column in columns))


def _format(value):
    if isinstance(value, float):
        return "{:.4g}".format(value)
    return str(value)


def calibration_kernel():
    """A fixed NumPy + pure-Python workload: the gates' yardstick (~25 ms).

    The mix mirrors what the gated paths spend their time on: a uint64 row
    dedup (``numpy.unique`` over a matrix, like a BFS level) and an
    int-keyed dict fill (like a Python-side index or cache).  It imports
    nothing from ``repro``.
    """
    import numpy

    rows = numpy.random.default_rng(7).integers(
        0, 1 << 62, size=(1 << 14, 2), dtype=numpy.uint64)
    numpy.unique(rows, axis=0)
    seen = {}
    for value in range(30000):
        seen[value * 2654435761 % 1000003] = str(value)
    return len(seen)


def calibration_seconds(repeats=3):
    """Best-of-*repeats* wall seconds of :func:`calibration_kernel`."""
    best = float("inf")
    for _ in range(repeats):
        seconds, _ = timed(calibration_kernel)
        best = min(best, seconds)
    return best


def timed(call):
    """``(seconds, call())``: one wall-clock timing of *call*."""
    start = time.perf_counter()
    value = call()
    return time.perf_counter() - start, value


def best_of(repeats, measure):
    """Run ``measure() -> (seconds, value)`` *repeats* times beside the kernel.

    Returns ``(seconds, value, kernel_runs)``: the fastest run's seconds and
    value, and the run's cost in calibration-kernel runs -- the median, over
    the repeats, of a run's seconds divided by the :func:`calibration_seconds`
    sample taken right before it.  The host's speed drifts in phases, so a
    run is only ever divided by a kernel timed next to it, and the median
    discards the repeats where the phase changed in between.
    """
    best = None
    ratios = []
    for _ in range(repeats):
        calibration = calibration_seconds()
        seconds, value = measure()
        ratios.append(seconds / calibration)
        if best is None or seconds < best[0]:
            best = (seconds, value)
    return best[0], best[1], statistics.median(ratios)


def peak_rss_kb():
    """Peak resident-set size of this process in KiB (0 when unavailable).

    Reads ``VmHWM`` from ``/proc/self/status``: Linux carries ``ru_maxrss``
    across ``exec`` from the parent's peak, ``VmHWM`` starts afresh.
    ``ru_maxrss`` is the fallback where ``/proc`` does not exist.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    if resource is None:
        return 0
    peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":
        peak //= 1024  # ru_maxrss is bytes on macOS, KiB elsewhere
    return peak


def graph_bytes(graph):
    """Resident bytes of a reachability graph's core storage.

    Columnar graphs (``repro.petri.batch``) report the exact ``nbytes`` of
    their arrays; the list-based ``explore_compiled`` oracle record sums
    ``sys.getsizeof`` over its state/edge/parent lists.  Unlike peak RSS (a
    process-wide monotonic high-water mark), this is a per-graph measure, so the
    sequential and batch rows of one bench genuinely differ by the
    columnar storage win.
    """
    arrays = [getattr(graph, name, None)
              for name in ("_words", "_fired_arr", "_dead_arr",
                           "_frontier_arr", "_slots")]
    if arrays[0] is not None:
        return sum(array.nbytes for array in arrays if array is not None)
    states, edges, parents = graph.states, graph.edges, graph.parents
    total = (sys.getsizeof(states) + sys.getsizeof(edges)
             + sys.getsizeof(parents))
    total += sum(sys.getsizeof(state) for state in states)
    total += sum(sys.getsizeof(edge_list)
                 + sum(sys.getsizeof(edge) for edge in edge_list)
                 for edge_list in edges)
    total += sum(sys.getsizeof(parent) for parent in parents
                 if parent is not None)
    return total


def throughput_metrics(states, seconds, graph=None):
    """Throughput/memory columns shared by the exploration benches.

    ``states_per_sec`` is the wall-clock exploration rate; with *graph*
    given, ``graph_bytes_per_state`` amortises the graph's core storage
    (:func:`graph_bytes`) over its states -- the per-state memory the
    columnar storage is meant to cut.  The session-wide peak RSS lands in
    the BENCH JSON as ``peak_rss_kb``.
    """
    metrics = {"states_per_sec": states / seconds if seconds else 0.0}
    if graph is not None and states:
        metrics["graph_bytes_per_state"] = graph_bytes(graph) / states
    return metrics


# -- machine-readable session report ----------------------------------------


def pytest_addoption(parser):
    group = parser.getgroup("bench")
    group.addoption(
        "--json", dest="bench_json", default=os.environ.get("BENCH_JSON"),
        metavar="DIR",
        help="write BENCH_<name>.json files (tables + durations) into DIR "
             "(also honoured from the BENCH_JSON environment variable)")


def _module_of(nodeid):
    path = nodeid.split("::", 1)[0]
    return os.path.splitext(os.path.basename(path))[0]


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    module = _module_of(report.nodeid)
    if not module.startswith("bench"):
        return
    test = report.nodeid.rpartition("::")[2]
    _DURATIONS.setdefault(module, {})[test] = report.duration


def pytest_sessionfinish(session):
    directory = session.config.getoption("bench_json", default=None)
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    for module in sorted(set(_TABLES) | set(_DURATIONS)):
        payload = {
            "bench": module,
            "tables": _TABLES.get(module, []),
            "durations": _DURATIONS.get(module, {}),
            "peak_rss_kb": peak_rss_kb(),
        }
        path = os.path.join(directory, "BENCH_{}.json".format(module))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
