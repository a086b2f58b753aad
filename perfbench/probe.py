"""In-process probes of the verification stack, run as child processes.

``run.py`` never imports ``repro`` itself: the load generator stays light
and every probe starts from a fresh interpreter, so import cost and peak
RSS belong to the probe alone.  Each sub-command prints one JSON object
as its last line of standard output.

Sub-commands::

    probe.py models SPECS.json      # build models, write them as DFS JSON
    probe.py layers MODELS.json --repeat K --mode traced|plain
    probe.py service PLAN.json --daemon-cache DIR --daemon-state DIR \
        --work DIR

``layers --mode traced`` times one call into each layer's public function
per model (load, translate, compile, explore, the five property checks,
the report); ``--mode plain`` runs the same verification the way the CLI
does, as one ``Verifier.verify_all`` call, so the two totals differ only
by what the spans cost.  ``service`` times ``VerificationService.submit``
in-process and the journal replay of a daemon's state directory.
"""

import argparse
import json
import resource
import statistics
import time

#: Cold submissions ``service`` times in-process (each one runs a job).
MAX_COLD = 12


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _build(spec):
    """Build the DFS model a spec names (a campaign factory reference)."""
    from repro.campaign.jobs import resolve_factory
    return resolve_factory(spec["factory"])(**spec.get("kwargs", {}))


def command_models(args):
    from repro.dfs.serialization import dfs_to_json

    with open(args.specs, encoding="utf-8") as handle:
        specs = json.load(handle)
    for spec in specs:
        dfs_to_json(_build(spec), spec["path"])
    return {"written": len(specs)}


def _traced_verify(path, max_states):
    """One verification with a span around every layer call."""
    from repro.dfs.serialization import dfs_from_json
    from repro.dfs.translation import to_petri_net
    from repro.verification.checkers import CheckerContext
    from repro.verification.results import VerificationSummary
    from repro.verification.verifier import Verifier

    spans = {}

    def timed(name, call):
        start = time.perf_counter()
        value = call()
        spans[name] = time.perf_counter() - start
        return value

    started = time.perf_counter()
    dfs = timed("dfs.load_s", lambda: dfs_from_json(path))
    net = timed("dfs.translate_s", lambda: to_petri_net(dfs))
    verifier = Verifier(dfs, max_states=max_states, net=net)
    context = verifier.context
    graph = timed("petri.explore_s", lambda: context.graph)
    explore_rss = _rss_mb()
    results = [timed("checkers.{}_s".format(key), getattr(verifier, method))
               for key, method in Verifier.PROPERTY_CHECKS.items()]
    persistence_rss = _rss_mb()
    summary = VerificationSummary(
        dfs.name, results, state_count=len(graph), truncated=graph.truncated,
        exploration=context.exploration)
    report = timed("results.report_s", summary.report)
    total = time.perf_counter() - started
    # The exhaustive path compiles inside exploration; the compile layer
    # is timed on its own, outside the total, so the traced and plain
    # totals do the same work.
    timed("petri.compile_s", lambda: CheckerContext(net).compiled)
    stats = context.exploration or {}
    return {
        "total_s": total,
        "spans": spans,
        "states": len(graph),
        "edges": graph.edge_count(),
        "levels": int(stats.get("levels", 0)),
        "explore_rss_mb": explore_rss,
        "persistence_rss_mb": persistence_rss,
        "passed": summary.passed,
        "first_line": report.splitlines()[0],
    }


def _plain_verify(path, max_states):
    """The CLI's ``verify`` path in-process, with no spans inside it."""
    from repro.dfs.serialization import dfs_from_json
    from repro.verification.verifier import Verifier

    started = time.perf_counter()
    summary = Verifier(dfs_from_json(path), max_states=max_states).verify_all()
    report = summary.report()
    return {"total_s": time.perf_counter() - started,
            "states": summary.state_count, "passed": summary.passed,
            "first_line": report.splitlines()[0]}


def command_layers(args):
    with open(args.models, encoding="utf-8") as handle:
        models = json.load(handle)
    verify = _traced_verify if args.mode == "traced" else _plain_verify
    outcomes = []
    for model in models:
        runs = [verify(model["path"], model["max_states"])
                for _ in range(args.repeat)]
        outcome = dict(runs[-1])
        outcome["total_s"] = statistics.median(run["total_s"] for run in runs)
        if "spans" in outcome:
            outcome["spans"] = {
                name: statistics.median(run["spans"][name] for run in runs)
                for name in outcome["spans"]}
        outcomes.append(outcome)
    return {"models": outcomes}


def command_service(args):
    """Journal replay time and in-process submit latency per class."""
    from repro.service import VerificationService

    replays = []
    for _ in range(3):
        started = time.perf_counter()
        service = VerificationService(parallelism=1,
                                      cache_dir=args.daemon_cache,
                                      state_dir=args.daemon_state)
        replays.append(time.perf_counter() - started)
        service.close()

    with open(args.plan, encoding="utf-8") as handle:
        plan = json.load(handle)
    submit = {"cold": [], "warm": []}
    failed = 0
    service = VerificationService(parallelism=1,
                                  cache_dir=args.work + "/cache",
                                  state_dir=args.work + "/state")
    try:
        for stream in plan:
            for op in stream:
                cold = op["class"] == "cold"
                if cold and len(submit["cold"]) >= MAX_COLD:
                    break
                started = time.perf_counter()
                ticket = service.submit(op["job"])
                submit[op["class"]].append(time.perf_counter() - started)
                result = ticket.wait(120) if cold else ticket.result
                expected = "miss" if cold else "hit"
                if (result is None or result.status != "ok"
                        or result.cache_status != expected):
                    failed += 1
    finally:
        service.close()
    return {
        "replay_s": statistics.median(replays),
        "submit_cold_s": statistics.median(submit["cold"]),
        "submit_warm_s": statistics.median(submit["warm"]),
        "submissions": len(submit["cold"]) + len(submit["warm"]),
        "failed": failed,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    models = commands.add_parser("models")
    models.add_argument("specs")
    models.set_defaults(handler=command_models)
    layers = commands.add_parser("layers")
    layers.add_argument("models")
    layers.add_argument("--repeat", type=int, default=1)
    layers.add_argument("--mode", choices=("traced", "plain"), required=True)
    layers.set_defaults(handler=command_layers)
    service = commands.add_parser("service")
    service.add_argument("plan")
    service.add_argument("--daemon-cache", required=True)
    service.add_argument("--daemon-state", required=True)
    service.add_argument("--work", required=True)
    service.set_defaults(handler=command_service)
    args = parser.parse_args()
    print(json.dumps(args.handler(args), sort_keys=True))


if __name__ == "__main__":
    main()
