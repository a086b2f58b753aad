"""The performance analyser: throughput of the slowest cycles and bottlenecks.

This is the programmatic counterpart of the Workcraft performance-analysis
pane shown in Fig. 5 of the paper: it "reports the throughput of the slowest
cycles and highlights the bottleneck nodes in each cycle".
"""

from repro.performance.cycles import cycle_bottlenecks, dataflow_cycles, slowest_cycles


class PerformanceReport:
    """Result of :meth:`PerformanceAnalyzer.analyse`."""

    def __init__(self, model_name, cycles, slowest, bottlenecks):
        self.model_name = model_name
        self.cycles = cycles
        self.slowest = slowest
        self.bottlenecks = bottlenecks

    @property
    def throughput(self):
        """Overall sustainable throughput: the minimum over all cycles.

        Models without cycles (pure feed-forward pipelines) are not
        throughput-limited by a ring; ``None`` is returned in that case.
        """
        if not self.cycles:
            return None
        return min(metric.throughput for metric in self.cycles)

    def table(self):
        """Return the analysis as a list of row dictionaries (one per slow cycle)."""
        rows = []
        for metric in self.slowest:
            rows.append({
                "cycle": " -> ".join(metric.nodes),
                "registers": metric.registers,
                "tokens": metric.tokens,
                "holes": metric.holes,
                "delay": metric.delay,
                "throughput": metric.throughput,
                "bottlenecks": ", ".join(self.bottlenecks.get(id(metric), [])),
            })
        return rows

    def render(self):
        """Return a human-readable report (similar to the tool's output pane)."""
        lines = ["Performance analysis of {!r}".format(self.model_name)]
        if not self.cycles:
            lines.append("  the model has no cycles; throughput is environment-limited")
            return "\n".join(lines)
        lines.append("  {} cycle(s); overall throughput {:.4g} tokens/unit".format(
            len(self.cycles), self.throughput))
        for index, metric in enumerate(self.slowest, start=1):
            lines.append("  #{} throughput {:.4g}  (registers={}, tokens={}, holes={}, delay={:.4g})".format(
                index, metric.throughput, metric.registers, metric.tokens,
                metric.holes, metric.delay))
            nodes = self.bottlenecks.get(id(metric), [])
            if nodes:
                lines.append("      bottleneck node(s): {}".format(", ".join(nodes)))
        return "\n".join(lines)

    def __repr__(self):
        return "PerformanceReport({!r}, cycles={}, throughput={!r})".format(
            self.model_name, len(self.cycles), self.throughput)


class PerformanceAnalyzer:
    """Analyses the cycle throughput of a dataflow structure."""

    def __init__(self, dfs, cycle_limit=2000):
        self.dfs = dfs
        self.cycle_limit = cycle_limit

    def analyse(self, slowest_count=5):
        """Run the analysis and return a :class:`PerformanceReport`."""
        cycles = dataflow_cycles(self.dfs, limit=self.cycle_limit)
        slowest = slowest_cycles(cycles, count=slowest_count)
        bottlenecks = {
            id(metric): cycle_bottlenecks(self.dfs, metric) for metric in slowest
        }
        return PerformanceReport(self.dfs.name, cycles, slowest, bottlenecks)

    # American-spelling alias, because both show up in downstream code.
    analyze = analyse
