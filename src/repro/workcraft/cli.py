"""The ``repro-dfs`` command-line interface.

Sub-commands (each takes a DFS model file produced by
:func:`repro.dfs.serialization.dfs_to_json`, or ``--example`` to use a
built-in model):

* ``info``      -- node/edge statistics;
* ``validate``  -- structural checks;
* ``verify``    -- deadlock / mismatch / persistence verification;
* ``simulate``  -- a random token-game run;
* ``analyse``   -- cycle-throughput performance analysis;
* ``export``    -- export to dot / json / pn-dot / g / verilog.

``campaign`` takes no model file: it expands a scenario grid
(``--grid depth=2..5 prefix=1``, ``--holes 0,1``, ...) into verification
jobs, fans them out over worker processes, and writes JSON/markdown reports
(see :mod:`repro.campaign`).  With ``--server URL`` the jobs are submitted
to a running verification daemon instead of a local pool.

``serve`` starts that daemon: the stdlib HTTP/JSON verification service of
:mod:`repro.service` (submit, poll, stream events, fetch reports), with
single-flight result reuse, per-tenant cache namespaces, backpressure and
rate limits.
"""

import argparse
import os
import sys

# Module level holds only the version and the registries the parser renders
# (and what their modules load anyway); each handler imports what it runs.
# None of this loads NumPy: exploration imports it when it starts.
from repro._version import __version__
from repro.campaign.jobs import DEFAULT_PROPERTIES, FACTORIES
from repro.dfs.examples import conditional_comp_dfs, token_ring
from repro.exceptions import ConfigurationError, ReproError
from repro.verification.checkers import CHECKERS
from repro.verification.verifier import Verifier, check_properties
from repro.workcraft.export import available_formats

#: Default on-disk verdict cache of ``repro-dfs campaign``.
DEFAULT_CAMPAIGN_CACHE = ".repro-campaign-cache"

_EXAMPLES = {
    "conditional": lambda: conditional_comp_dfs(),
    "ring": lambda: token_ring(),
}


def _load_model(args):
    from repro.dfs.serialization import dfs_from_json

    if args.example:
        return _EXAMPLES[args.example]()
    if not args.model:
        raise ConfigurationError("either a model file or --example must be given")
    return dfs_from_json(args.model)


def _add_model_arguments(parser):
    parser.add_argument("model", nargs="?", help="path to a .json DFS model file")
    parser.add_argument("--example", choices=sorted(_EXAMPLES),
                        help="use a built-in example model instead of a file")


def _command_info(args):
    dfs = _load_model(args)
    stats = dfs.stats()
    print("model: {}".format(dfs.name))
    for key in ("nodes", "logic", "register", "control", "push", "pop", "edges"):
        print("  {:<10} {}".format(key, stats[key]))
    print("  inputs     {}".format(", ".join(dfs.input_registers()) or "-"))
    print("  outputs    {}".format(", ".join(dfs.output_registers()) or "-"))
    return 0


def _command_validate(args):
    from repro.dfs.validation import has_errors, validate_structure

    dfs = _load_model(args)
    issues = validate_structure(dfs)
    if not issues:
        print("no structural issues found")
        return 0
    for issue in issues:
        print("[{}] {}".format(issue.severity.value, issue.message))
    return 1 if has_errors(issues) else 0


def _checker_help(default="exhaustive"):
    """The ``--checker`` help text, generated from the registry.

    Hand-maintained checker lists rot the moment a checker is registered;
    this renders every entry's one-line ``summary`` instead.
    """
    entries = ("{}: {}".format(name, CHECKERS[name].summary or "no summary")
               for name in sorted(CHECKERS))
    return "verification engine (default {}) -- {}".format(
        default, "; ".join(entries))


def _resolve_checker(args):
    """The effective (checker, checker_options) of ``--checker``/``--race``.

    ``--race`` turns the portfolio's budgeted rotation into a true process
    race; it implies ``--checker portfolio`` when no checker was named and
    rejects any other explicit choice.  A checker that cannot work without
    the SMT solver fails here, up front, with the install hint and exit
    code 2 (infrastructure, not a verdict) instead of a per-property
    inconclusive crawl.
    """
    checker = args.checker
    options = {}
    if args.race:
        if checker not in (None, "portfolio"):
            raise ConfigurationError(
                "--race races the portfolio's members; it cannot be combined "
                "with --checker {}".format(checker))
        checker = "portfolio"
        options["portfolio"] = {"race": True}
    checker = checker or "exhaustive"
    if getattr(args, "walks", None):
        # Top-level walk options reach the walk checker standalone or as a
        # portfolio member (the Verifier routes them either way).
        options.setdefault("walk", {})["walks"] = args.walks
    cls = CHECKERS.get(checker)
    if cls is not None and cls.requires_solver:
        from repro.exceptions import SolverUnavailableError
        from repro.smt.solver import require_solver
        try:
            require_solver()
        except SolverUnavailableError as exc:
            raise ConfigurationError(
                "--checker {} needs an SMT solver: {}".format(checker, exc))
    return checker, options


def _command_verify(args):
    dfs = _load_model(args)
    checker, checker_options = _resolve_checker(args)
    verifier = Verifier(dfs, max_states=args.max_states, checker=checker,
                        checker_options=checker_options, resume=args.resume)
    summary = verifier.verify_all(include_persistence=not args.no_persistence)
    print(summary.report())
    return 0 if summary.passed else 1


def _command_simulate(args):
    from repro.dfs.simulation import DfsSimulator

    dfs = _load_model(args)
    simulator = DfsSimulator(dfs)
    fired = simulator.run_random(args.steps, seed=args.seed)
    print("fired {} event(s)".format(len(fired)))
    if args.trace:
        for name in fired:
            print("  {}".format(name))
    print("final state: {}".format(simulator.state.describe()))
    print("deadlocked: {}".format(simulator.is_deadlocked()))
    return 0


def _command_analyse(args):
    from repro.performance.analyzer import PerformanceAnalyzer

    dfs = _load_model(args)
    report = PerformanceAnalyzer(dfs).analyse(slowest_count=args.slowest)
    print(report.render())
    return 0


def _command_export(args):
    from repro.workcraft.export import export_model

    dfs = _load_model(args)
    text = export_model(dfs, args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print("written {}".format(args.output))
    else:
        sys.stdout.write(text)
    return 0


def _parse_axis_values(text, convert=int):
    """Parse an axis value list: ``"2..5"`` ranges and/or comma lists."""
    values = []
    for chunk in str(text).split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            if ".." in chunk:
                if convert is not int:
                    raise ConfigurationError(
                        "ranges like {!r} are only supported for integer axes".format(
                            chunk))
                low, _, high = chunk.partition("..")
                start, stop = int(low, 0), int(high, 0)
                if stop < start:
                    raise ConfigurationError("empty axis range: {!r}".format(chunk))
                values.extend(range(start, stop + 1))
            elif convert is int:
                values.append(int(chunk, 0))
            else:
                values.append(convert(chunk))
        except ValueError:
            raise ConfigurationError("invalid axis value {!r} in {!r}".format(chunk, text))
    if not values:
        raise ConfigurationError("empty axis value list: {!r}".format(text))
    return values


def _parse_grid(entries):
    """Parse repeated ``--grid key=values`` entries into axis lists."""
    axes = {}
    known = {"depth": "depths", "prefix": "static_prefixes"}
    for entry in entries or []:
        key, separator, value = entry.partition("=")
        key = key.strip()
        if not separator or key not in known:
            raise ConfigurationError(
                "invalid --grid entry {!r} (expected depth=... or prefix=...)".format(
                    entry))
        axes[known[key]] = _parse_axis_values(value)
    return axes


def _parse_custom_properties(entries):
    """Parse repeated ``--custom name=expression`` entries."""
    custom = {}
    for entry in entries or []:
        name, separator, expression = entry.partition("=")
        name, expression = name.strip(), expression.strip()
        if not separator or not name or not expression:
            raise ConfigurationError(
                "invalid --custom entry {!r} (expected name=reach-expression)"
                .format(entry))
        custom[name] = expression
    return custom


def _command_campaign(args):
    from repro.campaign.runner import run_campaign
    from repro.campaign.scenario import ScenarioSpec, generate_scenarios

    axes = _parse_grid(args.grid)
    custom = _parse_custom_properties(args.custom)
    properties = [name.strip() for name in args.properties.split(",") if name.strip()]
    if not properties:
        raise ConfigurationError("--properties names no check")
    check_properties(properties, custom)
    checker, checker_options = _resolve_checker(args)
    spec = ScenarioSpec(
        depths=axes.get("depths", (2, 3)),
        static_prefixes=axes.get("static_prefixes", (1,)),
        holes=_parse_axis_values(args.holes),
        lfsr_seeds=_parse_axis_values(args.seeds) if args.seeds else (None,),
        voltages=_parse_axis_values(args.voltages, float) if args.voltages else (None,),
        family=args.family,
        properties=properties,
        max_states=args.max_states,
        checker=checker,
        checker_options=checker_options,
        custom_properties=custom,
        simulate_steps=args.simulate_steps,
    )
    jobs, skipped = generate_scenarios(spec)
    # Fail on unwritable report locations *before* spending the campaign.
    for path in (args.json, args.markdown):
        if path:
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
    if args.timeout is not None and args.jobs <= 0 and not args.quiet:
        print("note: --timeout only applies to worker processes; "
              "--jobs 0 runs inline without deadlines")
    if args.server:
        report = _run_remote_campaign(args, jobs, spec, skipped)
    else:
        cache_dir = None if args.no_cache else args.cache_dir
        report = run_campaign(
            jobs, parallelism=args.jobs, timeout=args.timeout,
            cache_dir=cache_dir, spec=spec, skipped=skipped)
    if not args.quiet:
        print(report.render_text())
    if args.json:
        report.write_json(args.json)
        if not args.quiet:
            print("json report written to {}".format(args.json))
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(report.to_markdown())
        if not args.quiet:
            print("markdown report written to {}".format(args.markdown))
    # Infrastructure failures (a hung or dying worker) are not verdicts:
    # they exit 2 so CI can tell "the design is wrong" (1) from "the
    # campaign never actually ran to completion" (2).
    if report.count("crashed", "timeout", "cancelled"):
        return 2
    if not report.ok:
        return 1
    if args.strict and report.inconclusive:
        return 1
    return 0


def _run_remote_campaign(args, jobs, spec, skipped):
    """Submit *jobs* to a running daemon; rebuild a local report."""
    import time

    from repro.campaign.report import CampaignReport
    from repro.service.client import ServiceClient

    client = ServiceClient(args.server, tenant=args.tenant)
    started = time.perf_counter()
    results = client.run_jobs(jobs, timeout=args.timeout or 600.0)
    return CampaignReport(
        results, spec=spec, skipped=skipped, parallelism=0,
        timeout=args.timeout, cache_dir=None,
        elapsed=time.perf_counter() - started)


def _command_serve(args):
    from repro.service import VerificationService, run_daemon

    cache_dir = None if args.no_cache else args.cache_dir
    service = VerificationService(
        parallelism=max(1, args.jobs), timeout=args.timeout,
        cache_dir=cache_dir, max_depth=args.max_depth,
        rate=args.rate, burst=args.burst, state_dir=args.state_dir)

    def ready(daemon):
        print("serving verification on {}".format(daemon.address), flush=True)

    return run_daemon(service, host=args.host, port=args.port, ready=ready)


def build_parser():
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-dfs",
        description="Design and verification of reconfigurable asynchronous pipelines",
    )
    parser.add_argument("--version", action="version", version="repro-dfs " + __version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="show model statistics")
    _add_model_arguments(info)
    info.set_defaults(handler=_command_info)

    validate = subparsers.add_parser("validate", help="run structural checks")
    _add_model_arguments(validate)
    validate.set_defaults(handler=_command_validate)

    verify = subparsers.add_parser("verify", help="run formal verification")
    _add_model_arguments(verify)
    verify.add_argument("--max-states", type=int, default=200000)
    verify.add_argument("--checker", choices=sorted(CHECKERS), default=None,
                        help=_checker_help())
    verify.add_argument("--resume", default=None, metavar="DIR",
                        help="checkpoint directory for crash-safe "
                             "exploration: a manifest is committed after "
                             "every BFS level, and a leftover checkpoint "
                             "(from a killed run) is resumed from its last "
                             "complete level, bit-identical to an "
                             "uninterrupted run")
    verify.add_argument("--race", action="store_true",
                        help="race the portfolio members in separate "
                             "processes, first conclusive verdict wins "
                             "(implies --checker portfolio)")
    verify.add_argument("--walks", type=int, default=None, metavar="N",
                        help="total guided random walks of the walk "
                             "checker (standalone or as a portfolio "
                             "member)")
    verify.add_argument("--no-persistence", action="store_true",
                        help="skip the (slower) persistence check")
    verify.set_defaults(handler=_command_verify)

    simulate = subparsers.add_parser("simulate", help="run a random token-game simulation")
    _add_model_arguments(simulate)
    simulate.add_argument("--steps", type=int, default=100)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--trace", action="store_true", help="print the fired events")
    simulate.set_defaults(handler=_command_simulate)

    analyse = subparsers.add_parser("analyse", help="cycle-throughput performance analysis")
    _add_model_arguments(analyse)
    analyse.add_argument("--slowest", type=int, default=5)
    analyse.set_defaults(handler=_command_analyse)

    campaign = subparsers.add_parser(
        "campaign", help="verify a scenario grid in parallel (with a verdict cache)")
    campaign.add_argument("--grid", action="append", metavar="KEY=VALUES",
                          help="axis values, e.g. depth=2..5 or prefix=1,2 "
                               "(repeatable; defaults: depth=2..3 prefix=1)")
    campaign.add_argument("--holes", default="0",
                          help="comma list of injected-hole counts (default 0)")
    campaign.add_argument("--seeds", default=None,
                          help="comma list of LFSR stimulus seeds (e.g. 0xACE1)")
    campaign.add_argument("--voltages", default=None,
                          help="comma list of supply voltages (e.g. 1.2,0.5)")
    campaign.add_argument("--family", choices=sorted(FACTORIES), default="pipeline",
                          help="model family to sweep (default pipeline)")
    campaign.add_argument("--properties", default=",".join(DEFAULT_PROPERTIES),
                          help="comma list of checks (default {})".format(
                              ",".join(DEFAULT_PROPERTIES)))
    campaign.add_argument("--checker", choices=sorted(CHECKERS),
                          default=None,
                          help="per job: " + _checker_help())
    campaign.add_argument("--race", action="store_true",
                          help="race the portfolio members per job (implies "
                               "--checker portfolio; effective with --jobs 0, "
                               "pool workers fall back to rotation)")
    campaign.add_argument("--walks", type=int, default=None, metavar="N",
                          help="per job: total guided random walks of the "
                               "walk checker")
    campaign.add_argument("--custom", action="append", metavar="NAME=EXPR",
                          help="define a named custom Reach property "
                               "(repeatable); reference it in --properties")
    campaign.add_argument("--max-states", type=int, default=200000)
    campaign.add_argument("--simulate-steps", type=int, default=0,
                          help="run an LFSR-seeded token-game smoke of N steps per job")
    campaign.add_argument("--jobs", "-j", type=int, default=1,
                          help="worker processes (0 runs inline, without "
                               "timeout enforcement; default 1)")
    campaign.add_argument("--timeout", type=float, default=None,
                          help="per-job deadline in seconds (worker mode only)")
    campaign.add_argument("--cache-dir", default=DEFAULT_CAMPAIGN_CACHE,
                          help="verdict cache directory (default {})".format(
                              DEFAULT_CAMPAIGN_CACHE))
    campaign.add_argument("--no-cache", action="store_true",
                          help="disable the verdict cache")
    campaign.add_argument("--server", metavar="URL", default=None,
                          help="submit jobs to a running `repro-dfs serve` "
                               "daemon instead of a local worker pool "
                               "(caching and parallelism are then the "
                               "server's; --timeout bounds the wait)")
    campaign.add_argument("--tenant", default=None,
                          help="tenant namespace for --server submissions "
                               "(isolated verdict cache per tenant)")
    campaign.add_argument("--json", metavar="PATH", help="write a JSON report")
    campaign.add_argument("--markdown", metavar="PATH", help="write a markdown report")
    campaign.add_argument("--strict", action="store_true",
                          help="fail on inconclusive (truncated) verdicts too")
    campaign.add_argument("--quiet", action="store_true")
    campaign.set_defaults(handler=_command_campaign)

    serve = subparsers.add_parser(
        "serve", help="run the verification service daemon (HTTP/JSON API)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (0 picks an ephemeral port; default 8765)")
    serve.add_argument("--jobs", "-j", type=int, default=2,
                       help="worker processes of the verification pool "
                            "(default 2)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-job deadline in seconds")
    serve.add_argument("--cache-dir", default=DEFAULT_CAMPAIGN_CACHE,
                       help="verdict cache root; tenants get isolated "
                            "namespaces below it (default {})".format(
                                DEFAULT_CAMPAIGN_CACHE))
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the verdict cache (single-flight "
                            "coalescing still deduplicates concurrent work)")
    serve.add_argument("--max-depth", type=int, default=64,
                       help="in-flight job bound before submissions get "
                            "429 + Retry-After (default 64)")
    serve.add_argument("--rate", type=float, default=None,
                       help="per-tenant submissions/second budget "
                            "(default: unlimited)")
    serve.add_argument("--burst", type=float, default=None,
                       help="per-tenant burst size (default: max(1, rate))")
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       help="durability root: ticket transitions are "
                            "write-ahead journaled below it, and a "
                            "restarted daemon replays the journal -- "
                            "finished tickets answer under their old ids, "
                            "in-flight jobs are re-run (default: no "
                            "durability)")
    serve.set_defaults(handler=_command_serve)

    export = subparsers.add_parser("export", help="export the model")
    _add_model_arguments(export)
    export.add_argument("--format", choices=sorted(available_formats()), default="dot")
    export.add_argument("--output", "-o", help="output file (stdout when omitted)")
    export.set_defaults(handler=_command_export)

    return parser


def main(argv=None):
    """CLI entry point.

    A library or usage error (a malformed model file, a bad environment
    setting, a missing model, a bad ``--grid`` value) is a
    :class:`~repro.exceptions.ReproError`, reported in one line with exit
    code 2, like any other failure that is not a verdict; exit 1 stays
    reserved for violated properties.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print("repro-dfs: error: {}".format(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
