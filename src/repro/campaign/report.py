"""Campaign reports: aggregation plus JSON and markdown renderers."""

import json
import os


class CampaignReport:
    """Aggregated outcome of a verification campaign.

    Wraps the ordered list of :class:`~repro.campaign.runner.CampaignResult`
    records together with the grid that produced them, and renders the whole
    campaign as machine-readable JSON (for CI artifacts and the regression
    gate) or as a markdown table (for humans and PR comments).
    """

    def __init__(self, results, spec=None, skipped=None, parallelism=1,
                 timeout=None, cache_dir=None, elapsed=0.0):
        self.results = list(results)
        self.spec = spec
        self.skipped = list(skipped or [])
        self.parallelism = parallelism
        self.timeout = timeout
        self.cache_dir = cache_dir
        self.elapsed = elapsed

    # -- aggregation ---------------------------------------------------------

    def __len__(self):
        return len(self.results)

    def count(self, *statuses):
        return sum(1 for result in self.results if result.status in statuses)

    @property
    def outcomes(self):
        """Outcome -> count over all results."""
        counts = {}
        for result in self.results:
            counts[result.outcome] = counts.get(result.outcome, 0) + 1
        return counts

    @property
    def cache_hits(self):
        return sum(1 for result in self.results if result.cache_status == "hit")

    @property
    def mismatched(self):
        """Results that definitely did not behave as their scenario predicted."""
        return [result for result in self.results if result.matched is False]

    @property
    def inconclusive(self):
        return [result for result in self.results
                if result.outcome == "inconclusive"]

    @property
    def ok(self):
        """True when no job definitely misbehaved (inconclusive is neutral)."""
        return not self.mismatched

    def summary(self):
        """The aggregate counters as a JSON-able mapping."""
        return {
            "jobs": len(self.results),
            "skipped_grid_points": len(self.skipped),
            "outcomes": self.outcomes,
            "matched": sum(1 for result in self.results if result.matched is True),
            "mismatched": len(self.mismatched),
            "inconclusive": len(self.inconclusive),
            "cache_hits": self.cache_hits,
            "elapsed": self.elapsed,
            "parallelism": self.parallelism,
            "ok": self.ok,
        }

    def rows(self):
        """Flat per-scenario rows (for text tables and benchmarks)."""
        rows = []
        for result in self.results:
            verdict = result.verdict or {}
            rows.append({
                "scenario": result.job.job_id,
                "expect": result.job.expect,
                "outcome": result.outcome,
                "matched": result.matched,
                "checker": getattr(result.job, "checker", "exhaustive"),
                "states": verdict.get("state_count", "-"),
                "cache": result.cache_status,
                "seconds": result.elapsed,
            })
        return rows

    # -- renderers -----------------------------------------------------------

    def to_dict(self):
        report = {"campaign": {
            "parallelism": self.parallelism,
            "timeout": self.timeout,
            "cache_dir": self.cache_dir,
            "elapsed": self.elapsed,
        }}
        if self.spec is not None:
            report["campaign"]["grid"] = self.spec.axes()
        if self.skipped:
            report["campaign"]["skipped"] = list(self.skipped)
        report["summary"] = self.summary()
        report["results"] = [result.to_dict() for result in self.results]
        return report

    def render_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write_json(self, path):
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render_json() + "\n")
        return path

    def to_markdown(self):
        """Render the campaign as a markdown summary plus a scenario table."""
        summary = self.summary()
        lines = [
            "# Verification campaign",
            "",
            "- jobs: **{}** ({} matched, {} mismatched, {} cache hit(s))".format(
                summary["jobs"], summary["matched"], summary["mismatched"],
                summary["cache_hits"]),
            "- outcomes: {}".format(
                ", ".join("{} {}".format(count, outcome) for outcome, count
                          in sorted(summary["outcomes"].items())) or "none"),
            "- wall clock: {:.3g}s at parallelism {}".format(
                summary["elapsed"], summary["parallelism"]),
            "",
            "| scenario | expect | outcome | matched | checker | states | cache | seconds |",
            "| --- | --- | --- | --- | --- | --- | --- | --- |",
        ]
        for row in self.rows():
            lines.append("| {} | {} | {} | {} | {} | {} | {} | {:.3g} |".format(
                row["scenario"], row["expect"], row["outcome"],
                {True: "yes", False: "NO", None: "?"}[row["matched"]],
                row["checker"], row["states"], row["cache"],
                row["seconds"]))
        if self.skipped:
            lines.append("")
            lines.append("Skipped grid points:")
            for entry in self.skipped:
                lines.append("- `{}`: {}".format(entry["axes"], entry["reason"]))
        return "\n".join(lines) + "\n"

    def render_text(self):
        """A compact plain-text summary for the CLI."""
        summary = self.summary()
        lines = ["campaign: {} job(s), {} matched, {} mismatched, "
                 "{} cache hit(s), {:.3g}s".format(
                     summary["jobs"], summary["matched"], summary["mismatched"],
                     summary["cache_hits"], summary["elapsed"])]
        for row in self.rows():
            lines.append("  [{}] {:<24} expect={:<8} outcome={:<12} "
                         "checker={:<10} states={:<8} cache={}".format(
                             {True: "ok", False: "!!", None: "??"}[row["matched"]],
                             row["scenario"],
                             str(row["expect"]), str(row["outcome"]),
                             row["checker"], str(row["states"]), row["cache"]))
        for entry in self.skipped:
            lines.append("  [--] skipped {}: {}".format(
                entry["axes"], entry["reason"]))
        return "\n".join(lines)

    def __repr__(self):
        return "CampaignReport(jobs={}, ok={})".format(len(self.results), self.ok)
