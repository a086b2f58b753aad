"""Out-of-core exploration: disk-backed columnar graphs vs in-RAM.

The claim of the spill layer (:mod:`repro.petri.storage`) is that moving
the columnar arrays onto unlinked ``np.memmap`` files -- and streaming
each completed BFS level out of memory with ``madvise(MADV_DONTNEED)`` --
lets an exploration's peak resident set track the *frontier*, not the
graph, at a small throughput cost.

Both modes build the same ~855k-state prefix-2 OPE graph in a **fresh
subprocess each** (peak RSS is a process-wide monotonic high-water mark,
so the two measurements cannot share an interpreter).  Two gates ride on
the committed baseline via ``check_regression.py``:

* **throughput** -- the disk-backed/in-RAM seconds ratio (the price of
  spilling must not creep up);
* **peak RSS** -- the disk-backed/in-RAM ``peak_rss_kb`` ratio (the
  memory win must not erode).

On top of the relative gates, :data:`RSS_CEILING_KB` asserts the absolute
shape of the result on every run: the in-RAM exploration *exceeds* the
ceiling and the disk-backed one stays *under* it -- i.e. the disk-backed
engine genuinely explores a graph that would not fit the budget.
"""

import json
import os
import subprocess
import sys

from .conftest import print_table

#: Exploration bound; the prefix-2 4-stage OPE completes below it (~855k
#: states over ~144 narrow levels -- a small frontier over a big graph,
#: exactly the shape the spill layer is built for).
MAX_STATES = 1000000

#: The absolute peak-RSS ceiling (KiB) separating the modes: measured
#: ~141 MB in-RAM vs ~91 MB disk-backed (a graph that keeps enabled sets,
#: not edges; 2-core x86-64, NumPy 2.4), so 116 MB sits mid-gap with ~20%
#: margin on both sides.
RSS_CEILING_KB = 116000

_CHILD = r'''
import json, resource, sys, time
mode, max_states, spill_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
from repro.campaign.jobs import build_pipeline_model
from repro.dfs.translation import to_petri_net
from repro.petri.batch import explore_batch
from repro.petri.compiled import CompiledNet
from repro.petri.storage import SpillConfig
compiled = CompiledNet.compile(
    to_petri_net(build_pipeline_model(4, static_prefix=2)))
spill = SpillConfig(spill_dir, 0) if mode == "disk-backed" else None
started = time.perf_counter()
graph = explore_batch(compiled, max_states=max_states, spill=spill)
seconds = time.perf_counter() - started
stats = graph.exploration_stats
# VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec from the
# parent's peak, so a child of a big pytest process would inherit it.
try:
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:"))
except OSError:
    peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":
        peak //= 1024  # ru_maxrss is bytes on macOS, KiB elsewhere
print(json.dumps({
    "mode": mode, "states": len(graph), "edges": stats["edges"],
    "levels": stats["levels"], "seconds": seconds, "peak_rss_kb": peak,
    "spill_write_bytes": stats["spill"]["write_bytes"],
    "spill_read_bytes": stats["spill"]["read_bytes"],
}))
'''


def _explore_in_subprocess(mode, spill_dir):
    """Run one exploration in a fresh interpreter; return its metrics row."""
    import repro
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    # The child's spill behaviour is decided by *this* bench, not by
    # whatever REPRO_SPILL_* the surrounding session exported.
    env.pop("REPRO_SPILL_DIR", None)
    env.pop("REPRO_SPILL_BYTES", None)
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, str(MAX_STATES), str(spill_dir)],
        env=env, capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_outofcore_rss_ceiling_and_throughput(tmp_path):
    """Disk-backed exploration: same graph, frontier-sized resident set."""
    rows = []
    for mode in ("in-ram", "disk-backed"):
        row = _explore_in_subprocess(mode, tmp_path)
        row["states_per_sec"] = (row["states"] / row["seconds"]
                                 if row["seconds"] else 0.0)
        row["spill_write_mb"] = row.pop("spill_write_bytes") / 1e6
        row["spill_read_mb"] = row.pop("spill_read_bytes") / 1e6
        rows.append(row)
    print_table(
        "out-of-core exploration comparison (prefix-2 OPE, max_states={}, "
        "rss ceiling {} kB)".format(MAX_STATES, RSS_CEILING_KB), rows)
    by_mode = {row["mode"]: row for row in rows}
    ram, disk = by_mode["in-ram"], by_mode["disk-backed"]
    # Same exploration (the bit-level identity contract lives in
    # tests/test_storage.py; at bench scale the aggregate shape must agree).
    assert disk["states"] == ram["states"]
    assert disk["edges"] == ram["edges"]
    assert disk["levels"] == ram["levels"]
    assert disk["spill_write_mb"] > 0
    # The ceiling: the graph does not fit the budget in RAM, yet the
    # disk-backed engine explores it without ever holding it resident.
    assert ram["peak_rss_kb"] > RSS_CEILING_KB, ram
    assert disk["peak_rss_kb"] < RSS_CEILING_KB, disk
    # No spill files survive the children (unlinked at creation).
    leftovers = [name for name in os.listdir(str(tmp_path))
                 if name.startswith("repro-spill-")]
    assert leftovers == []
