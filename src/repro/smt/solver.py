"""The pipe-to-z3 solver interface: one process, line-oriented SMT-LIB 2.

:class:`PipeSolver` owns one external solver process (``z3 -in -smt2``) and
talks to it over stdin/stdout, the way SMPT and the Model Checking Contest
tools drive their solver portfolios.  One process serves a whole proof
session: the IC3 engine of :mod:`repro.smt.ic3` asserts formulas
incrementally and uses ``push``/``pop`` scopes, so the solver keeps its
learned clauses across queries.

Robustness rules the engines rely on:

* **Timeouts cannot hang the caller.**  Every query carries a soft
  solver-side limit (``:timeout``, the solver answers ``unknown``) and a
  hard wall-clock deadline enforced by a reader thread; when the hard
  deadline passes the process is killed and
  :class:`~repro.exceptions.SolverTimeoutError` is raised.
* **A crashed or misbehaving solver is an exception, not a wrong answer.**
  EOF mid-query, an ``(error ...)`` reply or an unparseable answer raise
  :class:`~repro.exceptions.SolverError`; the checkers convert that into an
  inconclusive verdict (containment, never unsoundness).
* **Teardown is clean and idempotent.**  :meth:`PipeSolver.close` sends
  ``(exit)``, waits briefly, then terminates; it is safe to call twice and
  runs from ``__exit__`` and ``__del__`` too, so no zombie solver outlives
  a verification run.

The solver is an optional extra: :func:`solver_available` is the
import-time detection, ``REPRO_NO_Z3`` forces it off (the CI job for the
no-solver path), and ``REPRO_SMT_Z3`` points at an alternative binary
(also how the tests inject fake solvers to exercise crash/timeout paths).
"""

import os
import queue
import shutil
import subprocess
import threading
import time

from repro.exceptions import (
    SolverError,
    SolverTimeoutError,
    SolverUnavailableError,
)
from repro.smt.sexpr import atom_name, balanced, parse
from repro.utils import faults as _faults

#: The default solver binary, resolved on PATH.
DEFAULT_SOLVER = "z3"

#: Arguments that put z3 into read-SMT-LIB-2-from-stdin mode.
SOLVER_ARGS = ("-in", "-smt2")

#: Extra wall-clock grace (seconds) past the solver-side soft timeout
#: before the process is killed outright.
HARD_TIMEOUT_GRACE = 5.0


def solver_binary():
    """Path of the SMT solver binary, or ``None`` when unavailable.

    ``REPRO_NO_Z3`` reports the solver as absent even when it is installed,
    so the structural-fallback path can be exercised without uninstalling
    anything; ``REPRO_SMT_Z3`` overrides the binary (a PATH name or an
    absolute path).
    """
    if os.environ.get("REPRO_NO_Z3"):
        return None
    override = os.environ.get("REPRO_SMT_Z3")
    if override:
        if os.path.isfile(override) and os.access(override, os.X_OK):
            return override
        return shutil.which(override)
    return shutil.which(DEFAULT_SOLVER)


def solver_available():
    """``True`` when the optional z3 solver can be run."""
    return solver_binary() is not None


def require_solver():
    """Return the solver binary path or raise an actionable error."""
    binary = solver_binary()
    if binary is not None:
        return binary
    if os.environ.get("REPRO_NO_Z3"):
        raise SolverUnavailableError(
            "the z3 SMT solver is disabled by REPRO_NO_Z3; unset it to use "
            "the solver-backed checkers")
    override = os.environ.get("REPRO_SMT_Z3")
    if override:
        raise SolverUnavailableError(
            "REPRO_SMT_Z3={!r} does not name a runnable solver binary".format(
                override))
    raise SolverUnavailableError(
        "the z3 SMT solver binary was not found on PATH; install z3 "
        "(e.g. `apt-get install z3`) or point REPRO_SMT_Z3 at the binary")


_fingerprints = {}


def solver_fingerprint():
    """A stable identity of the installed solver, or ``None`` when absent.

    The first line of ``z3 --version`` (falling back to the binary path when
    the probe fails).  Campaign option digests fold this in for
    solver-backed checkers, so verdicts produced by different solver
    versions never answer each other from the verdict cache.
    """
    binary = solver_binary()
    if binary is None:
        return None
    cached = _fingerprints.get(binary)
    if cached is None:
        try:
            probe = subprocess.run(
                [binary, "--version"], capture_output=True, text=True,
                timeout=10)
            lines = (probe.stdout or probe.stderr).strip().splitlines()
            cached = lines[0].strip() if lines else binary
        except (OSError, subprocess.TimeoutExpired):
            cached = binary
        _fingerprints[binary] = cached
    return cached


#: Respawns performed by every :class:`PipeSolver` of this process, for
#: the service ``/stats`` endpoint and the checkers' outcome details.
_respawn_lock = threading.Lock()
_respawn_total = 0


def solver_respawns():
    """Total mid-session solver respawns performed in this process."""
    return _respawn_total


#: Commands that must not be replayed into a respawned solver: queries and
#: their per-query knobs (re-issued by the retry itself) and teardown.
_VOLATILE_PREFIXES = ("(check-sat", "(get-value", "(set-option :timeout",
                      "(exit")


class PipeSolver:
    """One external SMT solver process behind a line-oriented pipe.

    A process that dies mid-``check-sat`` is respawned **once**: the
    session transcript (every non-volatile command written so far --
    declarations, assertions, ``push``/``pop`` scopes) is replayed into a
    fresh process and the query retried, so one solver crash costs a
    re-solve instead of an inconclusive verdict.  A second crash on the
    same query raises :class:`~repro.exceptions.SolverError` as before.
    :attr:`respawns` counts this instance's respawns;
    :func:`solver_respawns` the process-wide total.
    """

    def __init__(self, binary=None, timeout=60.0, args=SOLVER_ARGS):
        self.binary = binary or require_solver()
        #: Default per-query wall-clock budget (seconds).
        self.timeout = float(timeout)
        self._args = tuple(args)
        #: Times this session's crashed process was respawned.
        self.respawns = 0
        #: Non-volatile command lines, in order -- the replayable session.
        self._transcript = []
        self._spawn()
        self.write("(set-option :print-success false)")
        self.write("(set-option :produce-models true)")

    # -- plumbing -------------------------------------------------------------

    def _spawn(self):
        """Start the solver process and its reader thread."""
        command = [self.binary, *self._args]
        try:
            self._process = subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, bufsize=1)
        except OSError as error:
            raise SolverUnavailableError(
                "cannot start the SMT solver {!r}: {}".format(
                    " ".join(command), error))
        self._closed = False
        self._lines = queue.Queue()
        self._reader = threading.Thread(
            target=self._drain, name="smt-solver-reader", daemon=True)
        self._reader.start()

    def _respawn(self):
        """Replace a dead process and replay the session transcript."""
        global _respawn_total
        self._kill()
        self._spawn()
        self.respawns += 1
        with _respawn_lock:
            _respawn_total += 1
        try:
            for line in self._transcript:
                self._process.stdin.write(line + "\n")
            self._process.stdin.flush()
        except (BrokenPipeError, OSError, ValueError) as error:
            raise SolverError(
                "the respawned SMT solver died replaying the session "
                "({} command(s)): {}".format(len(self._transcript), error))

    def _drain(self):
        """Reader thread: forward solver stdout lines into a queue."""
        try:
            for line in self._process.stdout:
                self._lines.put(line)
        except ValueError:  # stdout closed during teardown
            pass
        self._lines.put(None)  # EOF sentinel

    def write(self, *lines):
        """Send SMT-LIB command lines to the solver."""
        for line in lines:
            if not line.startswith(_VOLATILE_PREFIXES):
                self._transcript.append(line)
        try:
            for line in lines:
                self._process.stdin.write(line + "\n")
            self._process.stdin.flush()
        except (BrokenPipeError, OSError, ValueError) as error:
            returncode = self._process.poll()
            raise SolverError(
                "the SMT solver process is gone (exit code {}): {}".format(
                    returncode, error))

    def _dead(self):
        """Did the process die?  A crashed child may not be reaped yet when
        its stdout EOF is seen, so wait a moment instead of a bare poll."""
        try:
            self._process.wait(timeout=0.5)
            return True
        except subprocess.TimeoutExpired:
            return False

    def _kill(self):
        if self._process.poll() is None:
            self._process.kill()
            try:
                self._process.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                pass

    def _read_answer(self, timeout):
        """Read one complete (paren-balanced) answer, or raise."""
        deadline = time.monotonic() + timeout
        answer = ""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._kill()
                raise SolverTimeoutError(
                    "the SMT solver gave no answer within {:.1f}s; the "
                    "process was killed".format(timeout))
            try:
                line = self._lines.get(timeout=min(remaining, 0.5))
            except queue.Empty:
                continue
            if line is None:
                raise SolverError(
                    "the SMT solver process exited mid-query (exit code "
                    "{})".format(self._process.poll()))
            answer += line
            if answer.strip() and balanced(answer):
                return answer.strip()

    # -- the SMT-LIB surface the engines use ----------------------------------

    def push(self):
        self.write("(push 1)")

    def pop(self):
        self.write("(pop 1)")

    def check_sat(self, timeout=None, assuming=()):
        """Run ``check-sat`` and return ``"sat"``/``"unsat"``/``"unknown"``.

        *timeout* (seconds, default: the solver's construction timeout) is
        applied twice: as the solver-side soft limit -- so a well-behaved
        solver answers ``unknown`` and the session survives -- and as a hard
        wall-clock deadline (plus grace) after which the process is killed
        and :class:`~repro.exceptions.SolverTimeoutError` is raised.
        """
        budget = self.timeout if timeout is None else float(timeout)
        if _faults.trigger("solver_crash", "query"):
            self._kill()
        try:
            return self._check_sat_once(budget, assuming)
        except SolverTimeoutError:
            raise  # the kill was deliberate; a respawned retry would hang too
        except SolverError:
            if self._closed or not self._dead():
                raise  # protocol error from a live process, or torn down
            self._respawn()
            return self._check_sat_once(budget, assuming)

    def _check_sat_once(self, budget, assuming):
        self.write("(set-option :timeout {})".format(max(1, int(budget * 1000))))
        if assuming:
            self.write("(check-sat-assuming ({}))".format(" ".join(assuming)))
        else:
            self.write("(check-sat)")
        answer = self._read_answer(budget + HARD_TIMEOUT_GRACE)
        if answer in ("sat", "unsat", "unknown"):
            return answer
        if answer.startswith("(error"):
            raise SolverError("the SMT solver reported: {}".format(answer))
        raise SolverError(
            "unexpected check-sat reply from the SMT solver: {!r}".format(
                answer))

    def get_values(self, names, timeout=None):
        """Fetch integer model values for *names* (``|``-quoted or bare).

        Returns a dict keyed by bare (unquoted) names.  Only meaningful
        right after a ``sat`` answer.
        """
        if not names:
            return {}
        budget = self.timeout if timeout is None else float(timeout)
        self.write("(get-value ({}))".format(" ".join(names)))
        answer = self._read_answer(budget + HARD_TIMEOUT_GRACE)
        if answer.startswith("(error"):
            raise SolverError("the SMT solver reported: {}".format(answer))
        parsed = parse(answer)
        values = {}
        for entry in parsed:
            if not isinstance(entry, list) or len(entry) != 2:
                raise SolverError(
                    "malformed get-value entry from the SMT solver: "
                    "{!r}".format(entry))
            name, value = entry
            values[atom_name(name)] = self._as_int(value)
        return values

    @staticmethod
    def _as_int(value):
        if isinstance(value, list):
            # Negative literals come back as the term (- N).
            if len(value) == 2 and value[0] == "-":
                return -PipeSolver._as_int(value[1])
            raise SolverError(
                "non-integer model value from the SMT solver: {!r}".format(
                    value))
        try:
            return int(value)
        except ValueError:
            raise SolverError(
                "non-integer model value from the SMT solver: {!r}".format(
                    value))

    # -- lifecycle ------------------------------------------------------------

    @property
    def alive(self):
        return not self._closed and self._process.poll() is None

    def close(self):
        """Tear the solver process down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._process.poll() is None:
            try:
                self._process.stdin.write("(exit)\n")
                self._process.stdin.flush()
            except (BrokenPipeError, OSError, ValueError):
                pass
            try:
                self._process.stdin.close()
            except (BrokenPipeError, OSError):
                pass
            try:
                self._process.wait(timeout=2)
            except subprocess.TimeoutExpired:
                self._kill()
        try:
            self._process.stdout.close()
        except (OSError, ValueError):  # pragma: no cover - defensive
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self):
        status = "alive" if self.alive else "closed"
        return "PipeSolver({!r}, {})".format(self.binary, status)
