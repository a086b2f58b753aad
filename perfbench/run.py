#!/usr/bin/env python3
"""End-to-end benchmark of the DFS verification stack.

Every workload drives a real entry point from outside: ``repro-dfs
verify`` processes, or a ``repro-dfs serve`` daemon over HTTP.  The load
generator is this one process (at most two client threads) and never
imports ``repro``; in-process layer timings come from ``probe.py``
children.  See ``perfbench/README.md`` for why each workload exists and
which end-to-end metric each layer metric should move.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ope-verify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` runs the
traced pass and reports the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a human-readable summary goes to standard error.
``--workload all`` runs every workload both ways and prints one table.
"""

import argparse
import http.client
import json
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PYTHON = sys.executable
PROBE = os.path.join(HERE, "probe.py")
CLI = [PYTHON, "-m", "repro.workcraft.cli"]

WORKLOADS = ("ope-verify", "cli-small", "serve-mix")

# Nominal operation costs on a 2-core x86-64 box.  Plans are sized from
# --seconds with these constants, never from a clock reading, so a seed
# and a duration fix every count the benchmark reports.
OPE_VERIFY_S = 6.5
CLI_VERIFY_S = 0.7
SERVE_RATE = 28.0  # submissions per second of load

#: Fresh starts per set-up and start-up median, each next to a reference.
STARTS = 7
#: ``-X importtime`` probes per traced run.
IMPORT_PROBES = 3

#: Bound on a single child process or HTTP request, in seconds.
CHILD_TIMEOUT = 120.0

# The host's speed drifts by a fifth or more over minutes (other tenants),
# and start-up-bound work also jitters from one second to the next.  A run
# therefore times a fixed reference task -- a fresh interpreter that
# imports NumPy and computes briefly -- right next to its start-up-bound
# samples, and scales each sample by REFERENCE_S / (the reference run next
# to it).  No change to the repository can make the reference faster or
# slower.  It tracks short, start-up-bound work only: long computations (a
# 5 s verify, the daemon under load) drift differently, so their metrics
# are reported unscaled.
REFERENCE_TASK = (
    "import numpy\n"
    "rows = numpy.random.default_rng(7).integers("
    "0, 1 << 62, size=(1 << 18, 2), dtype=numpy.uint64)\n"
    "numpy.unique(rows, axis=0)\n"
    "seen = {}\n"
    "for value in range(150000):\n"
    "    seen[value * 2654435761 % 1000003] = str(value)\n")
#: The reference task's median wall time on the 2-core box of README.md.
REFERENCE_S = 0.5


def _pipeline(stages, prefix, holes=(), checker="exhaustive", states=0,
              **extra):
    config = {"factory": "pipeline",
              "kwargs": {"stages": stages, "static_prefix": prefix},
              "checker": checker, "states": states,
              "expect": "deadlock" if holes else "pass"}
    if holes:
        config["kwargs"]["holes"] = list(holes)
    config.update(extra)
    return config


#: The paper's 4-stage OPE pipeline with a static prefix of 2.
OPE = _pipeline(4, 2, states=855252, max_states=1000000)
#: A 3-stage stand-in used by ``--toy`` (the self-test).
TOY_OPE = _pipeline(3, 2, states=8916, max_states=1000000)

EXAMPLES = {
    "conditional": {"factory": "conditional", "kwargs": {}, "states": 39,
                    "checker": "exhaustive", "expect": "pass"},
    "ring": {"factory": "ring", "kwargs": {}, "states": 48,
             "checker": "exhaustive", "expect": "pass"},
}

# Hole configurations deadlock only when an included stage follows the
# hole; each is exercised by the exhaustive and the walk checker (the walk
# explores no graph, so it reports 0 states).
_HOLES = [((3, 1, (2,)), 1904), ((4, 1, (2,)), 11584),
          ((4, 1, (3,)), 119240), ((4, 2, (3,)), 10736)]
SERVE_CONFIGS = (
    [_pipeline(stages, prefix, states=states) for (stages, prefix), states in
     [((2, 1), 1932), ((2, 2), 588), ((3, 1), 191052), ((3, 2), 8916),
      ((3, 3), 2640), ((4, 3), 38904), ((4, 4), 11364)]]
    + list(EXAMPLES.values())
    + [_pipeline(*shape, states=states) for shape, states in _HOLES]
    + [_pipeline(*shape, checker="walk") for shape, _ in _HOLES])


# -- child processes -----------------------------------------------------------


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC, env.get("PYTHONPATH")) if path)
    return env


ENV = _child_env()


class Outcome:
    """A finished child process: wall time, exit code, output, peak RSS."""

    def __init__(self, wall, code, stdout, stderr, maxrss_kb):
        self.wall = wall
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.maxrss_kb = maxrss_kb

    def json(self):
        """The JSON object on the child's last output line (or ``None``)."""
        lines = self.stdout.strip().splitlines()
        if self.code != 0 or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except ValueError:
            return None


def run_child(argv, work, timeout=CHILD_TIMEOUT):
    """Run *argv* to completion; ``os.wait4`` gives its own peak RSS."""
    with tempfile.TemporaryFile(dir=work) as out, \
            tempfile.TemporaryFile(dir=work) as err:
        started = time.perf_counter()
        process = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV,
                                   cwd=ROOT)
        killer = threading.Timer(timeout, process.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(wall, process.returncode,
                       out.read().decode("utf-8", "replace"),
                       err.read().decode("utf-8", "replace"),
                       usage.ru_maxrss)


def run_probe(work, *args):
    return run_child([PYTHON, PROBE] + [str(arg) for arg in args], work)


def write_json(work, name, payload):
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


_VERIFY_LINE = re.compile(r"Verification of '([^']*)' \((\d+) reachable states")


def verify_ok(outcome, states):
    """Exit 0, the expected state count and all five properties OK."""
    match = _VERIFY_LINE.search(outcome.stdout)
    return (outcome.code == 0 and match is not None
            and int(match.group(2)) == states
            and outcome.stdout.count("[OK  ]") == 5)


# -- statistics ----------------------------------------------------------------


def percentile(values, share):
    """The *share* quantile, or ``None`` with fewer than 10 samples beyond."""
    values = sorted(values)
    if not values or len(values) * (1.0 - share) < 10:
        return None
    return values[min(len(values) - 1, int(share * len(values)))]


def median(values):
    return statistics.median(values) if values else float("nan")


# -- the daemon and its HTTP client ---------------------------------------------


def http_call(port, method, path, payload=None, timeout=30.0):
    """One request on a fresh connection (the daemon closes every one)."""
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def await_finished(port, ticket_id, timeout=60.0):
    """Follow the ticket's NDJSON event stream until ``job-finished``."""
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        connection.request("GET", "/jobs/{}/events".format(ticket_id))
        response = connection.getresponse()
        if response.status != 200:
            return False
        for line in response:
            if line.strip() and json.loads(line).get("event") == "job-finished":
                return True
        return False
    finally:
        connection.close()


class Daemon:
    """A ``repro-dfs serve --port 0 --jobs 1`` child process."""

    def __init__(self, run, cache_dir, state_dir):
        self.work = run.work
        run.daemons.append(self)
        self.argv = CLI + ["serve", "--port", "0", "--jobs", "1",
                           "--cache-dir", cache_dir, "--state-dir", state_dir]
        self.process = None
        self.port = None
        self._log = None

    def start(self, timeout=30.0):
        """Launch and wait until the daemon reports its bound address."""
        started = time.perf_counter()
        self._log = open(os.path.join(self.work, "daemon.log"), "ab")
        self.process = subprocess.Popen(self.argv, stdout=subprocess.PIPE,
                                        stderr=self._log, env=ENV, cwd=ROOT)
        line = b""
        deadline = started + timeout
        fd = self.process.stdout.fileno()
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise RuntimeError("daemon did not report its address")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("daemon exited before binding")
            line += chunk
        self.port = int(re.search(rb":(\d+)\s*$", line.strip()).group(1))

    def ready(self, path="/healthz", timeout=30.0):
        """Start, then poll *path* until it answers 200.

        Returns the seconds from launch to that answer, and its body.
        """
        started = time.perf_counter()
        self.start()
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            try:
                status, body = http_call(self.port, "GET", path)
                if status == 200:
                    return time.perf_counter() - started, json.loads(body)
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.005)
        raise RuntimeError("daemon never served {}".format(path))

    @property
    def running(self):
        return self.process is not None and self.process.poll() is None

    def stop(self):
        """SIGTERM and reap; return the daemon's own peak RSS in KiB."""
        peak_kb = 0
        try:
            with open("/proc/{}/status".format(self.process.pid)) as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak_kb = int(line.split()[1])
        except OSError:
            pass
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self._log.close()
        return peak_kb


# -- seeded inputs ---------------------------------------------------------------


def service_plan(seed, configs, submissions, connections, cold_share):
    """Per-connection submission streams: cold first-time keys, warm repeats.

    Each connection repeats only keys it submitted cold itself; with a
    closed loop those verdicts are cached before the repeat goes out, so
    every warm submission is a cache hit and none is coalesced -- the
    cold/warm split and the daemon's counters are exact for a seed.
    """
    rng = random.Random(seed)
    lfsr_seed = rng.randrange(1, 1 << 20)
    # Cold keys deal the configurations from reshuffled decks, so every
    # seed uses each configuration equally often and only the order and
    # positions vary: the seed must not change the work mix.
    deck = []
    streams = []
    for connection in range(connections):
        size = submissions // connections + (connection < submissions % connections)
        colds = max(1, round(size * cold_share))
        cold_at = {0} | set(rng.sample(range(1, size), colds - 1))
        ops, keys = [], []
        for index in range(size):
            if index in cold_at:
                if not deck:
                    deck = rng.sample(configs, len(configs))
                config = deck.pop()
                job = {"factory": config["factory"],
                       "kwargs": config["kwargs"],
                       "checker": config["checker"],
                       "expect": config["expect"], "lfsr_seed": lfsr_seed}
                if "max_states" in config:
                    job["max_states"] = config["max_states"]
                lfsr_seed += 1
                keys.append(({"key": "{}.{}".format(connection, len(keys)),
                              "expect": config["expect"],
                              "states": config["states"]}, job))
                op_class, (op, job) = "cold", keys[-1]
            else:
                op_class, (op, job) = "warm", rng.choice(keys)
            job = dict(job, job_id="c{}-{}".format(connection, index))
            ops.append(dict(op, job=job, **{"class": op_class}))
        streams.append(ops)
    return streams


def verdict_ok(op, verdict):
    if (not verdict or verdict.get("state_count") != op["states"]
            or verdict.get("truncated")):
        return False
    if op["expect"] == "pass":
        return verdict.get("passed") is True
    return any(record["property"] == "deadlock" and record["holds"] is False
               for record in verdict.get("properties", ()))


def submit(port, op):
    """Submit one op; cold ops wait on the event stream, then fetch the verdict."""
    started = time.perf_counter()
    status, body = http_call(port, "POST", "/jobs", op["job"])
    if status != 202:
        return time.perf_counter() - started, None
    record = json.loads(body)
    if op["class"] == "cold":
        if not await_finished(port, record["id"]):
            return time.perf_counter() - started, None
        status, body = http_call(port, "GET", "/jobs/" + record["id"])
        record = json.loads(body) if status == 200 else None
    return time.perf_counter() - started, record


def drive(port, plan, deadline):
    """Closed loop: one client thread per stream, each waits for its verdict."""
    samples = [[] for _ in plan]

    def client(index):
        cold_verdicts = {}
        for op in plan[index]:
            record = None
            latency = 0.0
            if time.perf_counter() < deadline:
                try:
                    latency, record = submit(port, op)
                except (OSError, http.client.HTTPException, ValueError):
                    record = None
            result = (record or {}).get("result") or {}
            verdict = json.dumps(result.get("verdict"), sort_keys=True)
            cold = op["class"] == "cold"
            ok = (record is not None and record.get("status") == "done"
                  and result.get("status") == "ok"
                  and result.get("cache") == ("miss" if cold else "hit"))
            if cold:
                ok = ok and verdict_ok(op, result.get("verdict"))
                cold_verdicts[op["key"]] = verdict
            else:
                ok = ok and verdict == cold_verdicts.get(op["key"])
            samples[index].append({"class": op["class"], "latency": latency,
                                   "ok": ok, "record": record})

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(len(plan))]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started, [s for stream in samples for s in stream]


def directory_bytes(path):
    total = 0
    for folder, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(folder, name))
                     for name in files)
    return total


def serve_session(run, plan, starts):
    """Set up a daemon, drive *plan*, then time journal-replaying restarts.

    Set-up and restart are each timed *starts* times, every start next to
    a run of the reference task.
    """
    cache_dir = os.path.join(run.work, "serve-cache")
    state_dir = os.path.join(run.work, "serve-state")
    daemon = Daemon(run, cache_dir, state_dir)
    for attempt in range(starts):
        seconds = daemon.ready()[0]
        run.reference()
        run.startup("setup_s", seconds)
        if attempt < starts - 1:
            daemon.stop()
    load_s, samples = drive(daemon.port, plan, time.perf_counter() + 100.0)
    _, body = http_call(daemon.port, "GET", "/stats")
    stats = json.loads(body)
    peak_kb = daemon.stop()
    session = {"load_s": load_s, "samples": samples,
               "stats": stats, "peak_kb": peak_kb,
               "cache_dir": cache_dir, "state_dir": state_dir,
               "cache_bytes": directory_bytes(cache_dir),
               "journal": [os.path.getsize(os.path.join(state_dir, "journal",
                                                        name))
                           for name in os.listdir(os.path.join(state_dir,
                                                               "journal"))]}
    cold = [s for s in samples if s["class"] == "cold"]
    warm = [s for s in samples if s["class"] == "warm"]
    run.count(len(samples), sum(not s["ok"] for s in samples))
    # The exact-count channel: the daemon's own counters must equal the plan.
    expected = {"submitted": len(samples), "completed": len(samples),
                "cache_hits": len(warm), "coalesced": 0}
    run.count(1, any(stats.get(key) != value
                     for key, value in expected.items()))
    old = next((s["record"]["id"] for s in cold if s["record"]), None)
    for _ in range(starts):
        try:
            seconds, record = daemon.ready("/jobs/{}".format(old))
            run.count(1, record.get("status") != "done")
        except RuntimeError:
            run.count(1, True)
            continue
        finally:
            if daemon.running:
                daemon.stop()
        run.reference()
        run.startup("start_s", seconds)
    session["cold"] = cold
    session["warm"] = warm
    return session


# -- runs ------------------------------------------------------------------------


class Run:
    """One benchmark run: its inputs, scratch space and tallies."""

    def __init__(self, workload, seed, seconds, toy=False, broken=False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.toy = toy
        #: Perturb every expected state count: the correctness gate must trip.
        self.broken = broken
        self.attempted = 0
        self.failed = 0
        self.daemons = []
        self.references = []
        #: Start-up samples by metric, each with the reference run next to it.
        self.startups = {}
        self.work = tempfile.mkdtemp(
            prefix="run-", dir=os.path.join(ROOT, ".perfbench_work"))

    def count(self, attempted, failed):
        self.attempted += attempted
        self.failed += int(failed)

    def reference(self):
        """Time one run of the reference task."""
        outcome = run_child([PYTHON, "-c", REFERENCE_TASK], self.work)
        self.count(1, outcome.code != 0)
        self.references.append(outcome.wall)

    def startup(self, name, seconds):
        """Record a start-up-bound sample next to the latest reference run."""
        self.startups.setdefault(name, []).append(
            (seconds, self.references[-1]))

    def scaled(self, name):
        """The samples of *name*, each scaled by the reference run next to it."""
        return [seconds * REFERENCE_S / reference
                for seconds, reference in self.startups.get(name, ())]

    def states(self, config):
        return config["states"] + (1 if self.broken else 0)

    def close(self):
        for daemon in self.daemons:
            if daemon.running:
                daemon.stop()
        shutil.rmtree(self.work, ignore_errors=True)


def _ope(run):
    return TOY_OPE if run.toy else OPE


def start_probe(run):
    outcome = run_child(CLI + ["--version"], run.work)
    run.count(1, outcome.code != 0)
    return outcome.wall


def ope_verify(run):
    config = _ope(run)
    # Set-up and start probes run before the verifies: right after a
    # 340 MB process exits, a fresh interpreter's start time is much
    # noisier.  Each set-up and start probe pair shares a reference run.
    for index in range(STARTS):
        path = os.path.join(run.work, "ope-{}.json".format(index))
        specs = write_json(run.work, "specs.json", [dict(config, path=path)])
        outcome = run_probe(run.work, "models", specs)
        run.count(1, outcome.json() is None)
        run.reference()
        run.startup("setup_s", outcome.wall)
        run.startup("start_s", start_probe(run))
    argv = CLI + ["verify", path, "--max-states", str(config["max_states"])]
    walls, peaks = [], []
    for _ in range(max(1, round(run.seconds / OPE_VERIFY_S))):
        outcome = run_child(argv, run.work)
        run.count(1, not verify_ok(outcome, run.states(config)))
        walls.append(outcome.wall)
        peaks.append(outcome.maxrss_kb)
    return {
        "setup_s": (median(run.scaled("setup_s")), "s"),
        "op_p50_s": (median(walls), "s"),
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "peak_rss_mb": (median(peaks) / 1024.0, "MB"),
        "start_s": (median(run.scaled("start_s")), "s"),
    }, {"verify_s": (median(walls), "s"), "verifies": (len(walls), "count")}


def cli_small(run):
    names = sorted(EXAMPLES)
    random.Random(run.seed).shuffle(names)

    def verify(name):
        outcome = run_child(CLI + ["verify", "--example", name], run.work)
        run.count(1, not verify_ok(outcome, run.states(EXAMPLES[name])))
        return outcome

    def start():
        run.reference()
        run.startup("start_s", start_probe(run))

    for index in range(STARTS):
        outcome = verify(names[index % 2])
        run.reference()
        run.startup("setup_s", outcome.wall)
    # Start probes are spread over the verifies, so every verify is timed
    # at most a few seconds after a reference run.
    verifies = max(2, round(run.seconds / CLI_VERIFY_S))
    probes = range(0, verifies, max(1, verifies // STARTS))[:STARTS]
    peaks = []
    for index in range(verifies):
        outcome = verify(names[index % 2])
        run.startup("verify_s", outcome.wall)
        peaks.append(outcome.maxrss_kb)
        if index in probes:
            start()
    for _ in range(STARTS - len(probes)):
        start()
    walls = run.scaled("verify_s")
    return {
        "setup_s": (median(run.scaled("setup_s")), "s"),
        "op_p50_s": (median(walls), "s"),
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "peak_rss_mb": (median(peaks) / 1024.0, "MB"),
        "start_s": (median(run.scaled("start_s")), "s"),
    }, {"verify_p50_s": (median(walls), "s"),
        "verify_p90_s": (percentile(walls, 0.9), "s"),
        "verifies": (len(walls), "count")}


def serve_plan_for(run):
    """The seeded serve-mix stream, sized from --seconds."""
    submissions = max(16, round(run.seconds * SERVE_RATE))
    plan = service_plan(run.seed, SERVE_CONFIGS, submissions, 2, 0.25)
    if run.broken:
        for stream in plan:
            for op in stream:
                op["states"] += 1
    return plan


def serve_mix(run):
    session = serve_session(run, serve_plan_for(run), STARTS)
    cold = [s["latency"] for s in session["cold"]]
    warm = [s["latency"] for s in session["warm"]]
    submissions = len(session["samples"])
    restart = median(run.scaled("start_s"))
    return {
        "setup_s": (median(run.scaled("setup_s")), "s"),
        "op_p50_s": (median(cold), "s"),
        "ops_per_s": (submissions / session["load_s"], "1/s"),
        "peak_rss_mb": (session["peak_kb"] / 1024.0, "MB"),
        "start_s": (restart, "s"),
    }, {"cold_p50_s": (median(cold), "s"),
        "cold_p90_s": (percentile(cold, 0.9), "s"),
        "warm_p50_s": (median(warm), "s"),
        "warm_p90_s": (percentile(warm, 0.9), "s"),
        "throughput_rps": (submissions / session["load_s"], "1/s"),
        "restart_s": (restart, "s"),
        "cold_submissions": (len(cold), "count"),
        "warm_submissions": (len(warm), "count")}


END_TO_END = {"ope-verify": ope_verify, "cli-small": cli_small,
              "serve-mix": serve_mix}


# -- the traced run ----------------------------------------------------------------


def layer_inputs(run):
    """(models verified in-process, service plan) of a workload's traced run."""
    if run.workload == "ope-verify":
        ope = _ope(run)
        return [ope], service_plan(run.seed, [ope], 8, 1, 1 / 8.0)
    if run.workload == "cli-small":
        examples = [EXAMPLES[name] for name in sorted(EXAMPLES)]
        return examples, service_plan(run.seed, examples, 16, 2, 0.25)
    exhaustive = [config for config in SERVE_CONFIGS
                  if config["checker"] == "exhaustive"]
    return exhaustive, serve_plan_for(run)


def startup_layers(run):
    """Bare interpreter start and ``-X importtime`` of the CLI module."""
    interpreter = [run_child([PYTHON, "-c", "pass"], run.work).wall
                   for _ in range(STARTS)]
    imports = {"repro.workcraft.cli": [], "networkx": [], "numpy": []}
    for _ in range(IMPORT_PROBES):
        outcome = run_child([PYTHON, "-X", "importtime", "-c",
                             "import repro.workcraft.cli"], run.work)
        run.count(1, outcome.code != 0)
        seen = {}
        for line in outcome.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for name, values in imports.items():
            values.append(seen.get(name, 0.0))
    return {
        "process.interpreter_s": (median(interpreter), "s"),
        "import.s": (median(imports["repro.workcraft.cli"]), "s"),
        "import.networkx_s": (median(imports["networkx"]), "s"),
        "import.numpy_s": (median(imports["numpy"]), "s"),
    }


def model_layers(run, models):
    """Traced and plain in-process verification of every model, summed."""
    specs = []
    for index, config in enumerate(models):
        specs.append(dict(config, path=os.path.join(
            run.work, "model-{}.json".format(index)),
            max_states=config.get("max_states", 200000)))
    outcome = run_probe(run.work, "models", write_json(run.work, "specs.json",
                                                        specs))
    run.count(1, outcome.json() is None)
    listing = write_json(run.work, "models.json", specs)
    # Tiny models are verified several times so their spans clear timer noise.
    repeat = 1 if max(spec["states"] for spec in specs) > 100000 else 5
    passes = {}
    for mode in ("traced", "plain"):
        outcome = run_probe(run.work, "layers", listing, "--repeat", repeat,
                            "--mode", mode)
        passes[mode] = (outcome.json() or {}).get("models")
        for spec, result in zip(specs, passes[mode] or [{}] * len(specs)):
            run.count(1, result.get("states") != run.states(spec)
                      or result.get("passed") != (spec["expect"] == "pass"))
    traced = passes["traced"] or []
    plain = passes["plain"] or []

    def total(name):
        return sum(result["spans"][name] for result in traced)

    states = sum(result["states"] for result in traced)
    metrics = {name: (total(name), "s") for name in (
        "dfs.load_s", "dfs.translate_s", "petri.compile_s", "petri.explore_s",
        "checkers.safeness_s", "checkers.deadlock_s", "checkers.mismatch_s",
        "checkers.exclusion_s", "checkers.persistence_s",
        "results.report_s")}
    metrics.update({
        "petri.states": (states, "count"),
        "petri.edges": (sum(r["edges"] for r in traced), "count"),
        "petri.levels": (sum(r["levels"] for r in traced), "count"),
        "petri.states_per_s": (states / max(total("petri.explore_s"), 1e-9),
                               "states/s"),
        "petri.explore_rss_mb": (max((r["explore_rss_mb"] for r in traced),
                                     default=0.0), "MB"),
        "checkers.persistence_rss_mb": (
            max((r["persistence_rss_mb"] for r in traced), default=0.0),
            "MB"),
        "trace.overhead_s": (sum(r["total_s"] for r in traced)
                             - sum(r["total_s"] for r in plain), "s"),
    })
    return metrics


def service_layers(run, plan):
    """Ticket timings, daemon counters, journal size, in-process submits."""
    session = serve_session(run, plan, 1)
    cold = [s for s in session["cold"] if s["record"]]
    tickets = [s["record"] for s in cold]
    queue_wait = [t["started"] - t["submitted"] for t in tickets]
    pool_run = [t["finished"] - t["started"] for t in tickets]
    job_run = [t["result"]["elapsed"] for t in tickets]
    notify = [s["latency"] - (s["record"]["finished"] - s["record"]["submitted"])
              for s in cold]
    stats = session["stats"]
    submissions = len(session["samples"])
    probe = run_probe(run.work, "service", write_json(run.work, "plan.json",
                                                       plan),
                      "--daemon-cache", session["cache_dir"],
                      "--daemon-state", session["state_dir"],
                      "--work", os.path.join(run.work, "inproc")).json() or {}
    run.count(probe.get("submissions", 1), probe.get("failed", 1))
    warm_http = median([s["latency"] for s in session["warm"]])
    return {
        "service.http_cold_p50_s": (median([s["latency"] for s in cold]), "s"),
        "service.http_warm_p50_s": (warm_http, "s"),
        "service.submit_cold_s": (probe.get("submit_cold_s", 0.0), "s"),
        "service.submit_warm_s": (probe.get("submit_warm_s", 0.0), "s"),
        "service.http_warm_overhead_s": (
            warm_http - probe.get("submit_warm_s", 0.0), "s"),
        "service.notify_delay_s": (median(notify), "s"),
        "service.replay_s": (probe.get("replay_s", 0.0), "s"),
        "campaign.queue_wait_s": (median(queue_wait), "s"),
        "campaign.job_run_s": (median(job_run), "s"),
        "parallel.run_s": (median(pool_run), "s"),
        "parallel.spawn_overhead_s": (
            median([r - j for r, j in zip(pool_run, job_run)]), "s"),
        "campaign.cold_submissions": (len(session["cold"]), "count"),
        "campaign.warm_submissions": (len(session["warm"]), "count"),
        "campaign.cache_hits": (stats.get("cache_hits", 0), "count"),
        "campaign.coalesced": (stats.get("coalesced", 0), "count"),
        "campaign.completed": (stats.get("completed", 0), "count"),
        "campaign.cache_hit_ratio": (
            stats.get("cache_hits", 0) / max(1, stats.get("submitted", 0)),
            "ratio"),
        "campaign.cache_bytes": (session["cache_bytes"], "bytes"),
        "utils.journal_bytes": (sum(session["journal"]), "bytes"),
        "utils.journal_bytes_per_submit": (
            sum(session["journal"]) / max(1, submissions), "bytes"),
        "utils.journal_segments": (len(session["journal"]), "count"),
    }


def traced(run):
    models, plan = layer_inputs(run)
    metrics = startup_layers(run)
    metrics.update(model_layers(run, models))
    metrics.update(service_layers(run, plan))
    return metrics, {}


# -- entry point -------------------------------------------------------------------


def measure(workload, seed, seconds, trace, toy=False, broken=False):
    """Run one workload; return (result JSON object, summary rows)."""
    run = Run(workload, seed, seconds, toy=toy, broken=broken)
    try:
        if trace:
            metrics, summary = traced(run)
        else:
            metrics, summary = END_TO_END[workload](run)
    finally:
        run.close()
    summary = dict(summary)
    summary["failed_frac"] = (run.failed / max(1, run.attempted), "ratio")
    if not trace:
        summary["reference_s"] = (median(run.references), "s")
        for name, pairs in run.startups.items():
            summary["raw." + name] = (median([s for s, _ in pairs]), "s")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    return result, summary


def format_rows(workload, trace, result, summary, stream):
    label = "{} ({})".format(workload, "traced" if trace else "end-to-end")
    print("{}: correct={} attempted={} failed={}".format(
        label, result["correct"], result["attempted"], result["failed"]),
        file=stream)
    rows = [(name, entry["value"], entry["unit"])
            for name, entry in result["metrics"].items()]
    rows += [(name, value, unit) for name, (value, unit) in sorted(summary.items())]
    for name, value, unit in rows:
        shown = "n/a (too few samples)" if value is None else "{:.6g}".format(value)
        print("  {:<34} {:>22} {}".format(name, shown, unit), file=stream)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="smallest inputs (a self-test, not a measurement)")
    parser.add_argument("--break-expectations", action="store_true",
                        help="expect wrong state counts: the correctness "
                             "gate must fail every verdict check")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: {} holds no repro package; run from a checkout of the "
              "repository".format(SRC), file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    if args.workload == "all":
        for workload in WORKLOADS:
            for trace in (0, 1):
                result, summary = measure(workload, args.seed, args.seconds,
                                          trace, toy=args.toy)
                format_rows(workload, trace, result, summary, sys.stdout)
        return 0
    result, summary = measure(args.workload, args.seed, args.seconds,
                              args.trace, toy=args.toy,
                              broken=args.break_expectations)
    format_rows(args.workload, args.trace, result, summary, sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
