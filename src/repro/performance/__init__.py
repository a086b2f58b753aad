"""Performance analysis of DFS pipelines (Fig. 5 of the paper).

Two complementary views are provided:

* **Analytic cycle analysis** (:mod:`repro.performance.cycles`,
  :mod:`repro.performance.analyzer`): every cycle of the dataflow graph is a
  token/bubble loop whose sustainable throughput is bounded by
  ``min(tokens, holes) / delay``; the slowest cycles limit the whole
  pipeline, and their highest-delay nodes are the bottleneck the tool
  highlights.
* **Timed token simulation** (:mod:`repro.performance.timed`): an
  event-driven simulation of the token game where each event takes the delay
  of its node, giving measured throughput and per-register activity.

The optimisation helpers suggest the same remedies the paper mentions:
adjusting the number of tokens, buffering with extra registers and wagging.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cycles": ["CycleMetrics", "dataflow_cycles"],
    ".analyzer": ["PerformanceAnalyzer", "PerformanceReport"],
    ".timed": ["TimedDfsSimulator", "TimedRun"],
    ".optimization": ["suggest_optimisations", "wagging_speedup"],
})
