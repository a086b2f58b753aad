"""Crash-safe exploration: the overhead of per-level checkpointing.

`build_reachability_graph(resume=...)` makes the batch engine keep its
checkpointed stores in named memmap files and commit a small chained-CRC manifest
after every BFS level, so a run killed mid-level resumes from the last
complete level (see ``tests/test_recovery.py`` for the kill/resume
proofs).  Durability has a price -- one manifest write + fsync per level
plus named (not unlinked) store files -- and this bench pins it: the same
truncated prefix-2 OPE exploration runs with and without a checkpoint
directory in the same process, and the checkpointed/no-checkpoint
seconds ratio is gated against the committed baseline by
``check_regression.py``.

The decomposed cost on a 1-core dev box (~50 levels, ~40 MB of graph):
~15% for the named file-backed stores themselves (every row of a
checkpointed store goes through a memmap page instead of a RAM array),
~5% for the chained CRCs, and the rest for the per-level syncs
(range ``msync`` of each store's appended pages, manifest fsync +
directory fsync), for a measured total of ~1.4-1.6x.
:data:`OVERHEAD_CEILING` asserts the absolute shape on every run:
durability must stay a bounded surcharge, never a second exploration;
the regression gate catches the *ratio* creeping beyond run-to-run
noise.
"""

import os
import time

from repro.campaign.jobs import build_pipeline_model
from repro.dfs.translation import to_petri_net
from repro.petri.reachability import build_reachability_graph

from oracles.compiled import graph_columns

from .conftest import print_table, throughput_metrics

#: Exploration bound: deep enough for a real level count (the per-level
#: manifest is the cost being measured), small enough for bench budgets.
MAX_STATES = 200000

#: Absolute ceiling on the checkpointed/no-checkpoint seconds ratio.
OVERHEAD_CEILING = 1.80


def test_checkpoint_overhead_is_bounded(tmp_path):
    """Per-level durability must stay a surcharge, not a second run."""
    net = to_petri_net(build_pipeline_model(4, static_prefix=2))
    modes = {"no-checkpoint": None, "checkpointed": str(tmp_path / "ckpt")}
    seconds = dict.fromkeys(modes, float("inf"))
    graphs = {}
    # Best of three, the two modes interleaved: the host's speed drifts in
    # phases, and timing every plain run before every checkpointed one
    # would let a phase change masquerade as (or mask) durability cost.
    # A completed run discards its checkpoint, so every checkpointed run
    # starts fresh.
    for _ in range(3):
        for mode, checkpoint in modes.items():
            started = time.perf_counter()
            graphs[mode] = build_reachability_graph(
                net, max_states=MAX_STATES, resume=checkpoint)
            seconds[mode] = min(seconds[mode], time.perf_counter() - started)
    rows = []
    for mode, graph in graphs.items():
        stats = graph.exploration_stats
        row = {"mode": mode, "states": len(graph), "edges": stats["edges"],
               "levels": stats["levels"], "seconds": seconds[mode]}
        row.update(throughput_metrics(len(graph), seconds[mode]))
        rows.append(row)
    print_table(
        "checkpointed exploration comparison (prefix-2 OPE, max_states={}, "
        "overhead ceiling {:.0%})".format(MAX_STATES, OVERHEAD_CEILING - 1),
        rows)
    plain, durable = rows
    # Same exploration either way (the bit-level identity proofs live in
    # tests/test_recovery.py; here the aggregate shape must agree).
    assert durable["states"] == plain["states"]
    assert durable["edges"] == plain["edges"]
    assert durable["levels"] == plain["levels"]
    plain_graph, durable_graph = graphs["no-checkpoint"], graphs["checkpointed"]
    for left, right in zip(
            graph_columns(durable_graph) + (durable_graph._dead_arr,),
            graph_columns(plain_graph) + (plain_graph._dead_arr,)):
        assert left.tobytes() == right.tobytes()
    # A completed run leaves nothing behind to clean up.
    assert os.listdir(str(tmp_path / "ckpt")) == []
    # The absolute overhead ceiling.
    ratio = durable["seconds"] / plain["seconds"]
    assert ratio < OVERHEAD_CEILING, (
        "checkpointing cost {:.1%} over the plain exploration".format(
            ratio - 1))
