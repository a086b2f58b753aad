"""A supervised process pool: the one supervision loop under every parallel path.

Each *task* runs in its own worker process (at most *parallelism* at once).
A task that hangs is terminated at its deadline, a worker that dies without
reporting is ``"crashed"`` and one that cannot start is an ``"error"``: the
caller always gets one :class:`TaskOutcome` per task, never a hung pool.

One loop, two fronts.  :class:`SupervisorPool` owns the loop, a thread that
starts queued tasks and otherwise blocks in one
:func:`multiprocessing.connection.wait` on every task's connection (its
:func:`send_event` records, then its result), every worker's sentinel and a
wake pipe, until the nearest deadline -- an idle pool never wakes.  The
campaign scheduler and the service daemon drive it.  :func:`run_supervised`
is the batch front: run a task list, return the outcomes in order, and with
``stop_when`` cancel the rest at the first winner (a portfolio race).
"""

import heapq
import itertools
import os
import signal
import threading
import time
import traceback
from multiprocessing.connection import Pipe, wait

from repro.exceptions import ConfigurationError
from repro.parallel.context import mp_context
from repro.utils import faults as _faults

#: The terminal statuses a task can end in.
STATUSES = ("ok", "error", "timeout", "crashed", "cancelled")

#: The running task's connection inside a supervised worker, ``None``
#: anywhere else; :func:`send_event` writes to it.
_channel = None


class TaskOutcome:
    """How one supervised task ended.

    *status* is ``"ok"`` (the task ran; *payload* holds its return value),
    ``"error"`` (the task raised, or its worker could not start; *error*
    holds the traceback), ``"timeout"`` (the worker exceeded its deadline
    and was terminated), ``"crashed"`` (the worker died without reporting)
    or ``"cancelled"`` (a shutdown or a ``stop_when`` winner made the task
    moot and its worker, if any, was terminated).
    """

    __slots__ = ("task_id", "status", "payload", "error", "elapsed")

    def __init__(self, task_id, status, payload=None, error=None, elapsed=0.0):
        self.task_id = task_id
        self.status = status
        self.payload = payload
        self.error = error
        self.elapsed = elapsed

    @property
    def ok(self):
        return self.status == "ok"

    def __repr__(self):
        return "TaskOutcome({!r}, {})".format(self.task_id, self.status)


def send_event(record):
    """Send *record* to the running task's ``on_event`` callback.

    A task calls this inside a supervised worker; the record travels on the
    task's own connection ahead of its result, so the callback sees every
    event before the outcome.  Outside a supervised worker it is a no-op,
    and a record that cannot be sent is dropped: progress must never fail
    a task.
    """
    if _channel is not None:
        try:
            _channel.send(("event", record))
        except Exception:
            pass


def _worker_main(target, args, channel):
    """Worker entry point: run one task and send its outcome on *channel*."""
    global _channel
    _channel = channel
    started = time.perf_counter()
    try:
        if _faults.trigger("kill_worker", "task"):
            os.kill(os.getpid(), signal.SIGKILL)
        result = ("ok", target(*args), None)
    except Exception:
        result = ("error", None, traceback.format_exc())
    channel.send(result + (time.perf_counter() - started,))


def _check_ids(tasks):
    seen = set()
    for task_id, _, _ in tasks:
        if task_id in seen:
            raise ConfigurationError(
                "duplicate task id {!r}: the supervisor keys its bookkeeping "
                "by task id, so every task needs a unique one".format(task_id))
        seen.add(task_id)


def _terminate(process):
    process.terminate()
    process.join(1.0)
    if process.is_alive():
        process.kill()
        process.join(1.0)


def run_supervised(tasks, parallelism, timeout=None, stop_when=None):
    """Run *tasks* in supervised worker processes; return their outcomes.

    Parameters
    ----------
    tasks:
        Iterable of ``(task_id, target, args)`` triples.  *target* must be a
        picklable callable (a module-level function) and *args* a picklable
        tuple -- the task is executed as ``target(*args)`` in a worker
        process and its return value must be picklable too.
    parallelism:
        Number of concurrent worker processes (at least one).
    timeout:
        Optional per-task deadline in seconds.
    stop_when:
        Optional predicate over :class:`TaskOutcome`.  The first outcome
        satisfying it wins the race: every other active worker is terminated
        immediately and every unfinished task is recorded as ``"cancelled"``.

    Returns the list of :class:`TaskOutcome` in task order.
    """
    tasks = [(task_id, target, tuple(args)) for task_id, target, args in tasks]
    _check_ids(tasks)
    outcomes = {}
    pool = SupervisorPool(parallelism, timeout=timeout)
    submitted = threading.Event()

    def record(outcome):
        outcomes[outcome.task_id] = outcome
        if stop_when is not None and stop_when(outcome):
            # Cancel only once every task is queued, so no submission can
            # meet a shut-down pool.
            submitted.wait()
            pool.shutdown(wait=False, cancel_pending=True)

    for task_id, target, args in tasks:
        pool.submit(task_id, target, args, on_outcome=record)
    submitted.set()
    pool.shutdown(wait=True, cancel_pending=False)
    return [outcomes[task_id] for task_id, _, _ in tasks]


class _PoolTask:
    __slots__ = ("task_id", "target", "args", "timeout", "on_start",
                 "on_outcome", "on_event", "process", "connection", "started",
                 "deadline")

    def __init__(self, task_id, target, args, timeout, on_start, on_outcome,
                 on_event):
        self.task_id = task_id
        self.target = target
        self.args = args
        self.timeout = timeout
        self.on_start = on_start
        self.on_outcome = on_outcome
        self.on_event = on_event
        self.process = None      # set while the task has a worker
        self.connection = None   # the worker's event and result channel
        self.started = None
        self.deadline = None


class SupervisorPool:
    """A long-running supervised pool with incremental submission.

    :meth:`submit` enqueues a task (higher *priority* runs first, FIFO
    within a priority) and returns immediately; the supervision thread
    starts queued tasks as capacity frees up, enforces per-task deadlines,
    detects dead workers, and invokes the task's callbacks -- ``on_start``,
    ``on_event`` for each :func:`send_event` record and ``on_outcome`` --
    from the supervision thread.  Callbacks must be quick; one that raises
    is counted on ``callback_errors`` rather than killing supervision.  An
    asyncio consumer bridges with ``loop.call_soon_threadsafe``.
    """

    def __init__(self, parallelism, timeout=None):
        parallelism = int(parallelism)
        if parallelism < 1:
            raise ConfigurationError(
                "a supervisor pool needs at least one worker (got {})".format(
                    parallelism))
        self.parallelism = parallelism
        self.timeout = timeout
        self.context = mp_context()
        self.callback_errors = 0
        self._lock = threading.Lock()
        self._wake_reader, self._wake_writer = Pipe(duplex=False)
        # A full wake pipe already holds a pending wake-up: never block.
        os.set_blocking(self._wake_writer.fileno(), False)
        self._sequence = itertools.count()
        self._pending = []   # heap of (-priority, seq, _PoolTask)
        self._active = {}    # task_id -> _PoolTask with a live worker
        self._queued_ids = set()
        self._closed = False
        self._drain_on_close = False
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="supervisor-pool")
        self._thread.start()

    # -- submission ----------------------------------------------------------

    def submit(self, task_id, target, args=(), timeout=False, priority=0,
               on_start=None, on_outcome=None, on_event=None):
        """Enqueue ``target(*args)`` as *task_id*; return immediately.

        *timeout* defaults to the pool's deadline (pass ``None`` for no
        deadline on this task).  *priority* orders the queue (higher first).
        *on_outcome* receives the task's :class:`TaskOutcome` and *on_event*
        each record the task sends with :func:`send_event`, in order and
        before the outcome.
        """
        if timeout is False:
            timeout = self.timeout
        task = _PoolTask(task_id, target, tuple(args), timeout, on_start,
                         on_outcome, on_event)
        with self._lock:
            if self._closed:
                raise ConfigurationError(
                    "cannot submit to a shut-down supervisor pool")
            if task_id in self._queued_ids or task_id in self._active:
                raise ConfigurationError(
                    "duplicate task id {!r}: the pool keys its bookkeeping "
                    "by task id, so every in-flight task needs a unique "
                    "one".format(task_id))
            heapq.heappush(self._pending,
                           (-int(priority), next(self._sequence), task))
            self._queued_ids.add(task_id)
        self._wake()
        return task_id

    @property
    def queued(self):
        """Tasks waiting for a worker slot."""
        with self._lock:
            return len(self._pending)

    @property
    def running(self):
        """Tasks currently executing in a worker."""
        with self._lock:
            return len(self._active)

    @property
    def depth(self):
        """Total in-flight tasks (queued + running)."""
        with self._lock:
            return len(self._pending) + len(self._active)

    def shutdown(self, wait=True, cancel_pending=True):
        """Stop the pool: cancel queued tasks, terminate active workers.

        With ``cancel_pending`` every queued task is recorded as
        ``"cancelled"`` (its ``on_outcome`` still fires); active workers are
        terminated and recorded as ``"cancelled"`` too.  With
        ``cancel_pending=False`` the pool drains: no new submissions are
        accepted, queued and active tasks run to completion first.  A later
        call can turn a drain into a cancel, never the reverse.
        """
        with self._lock:
            self._drain_on_close = not cancel_pending and (
                self._drain_on_close or not self._closed)
            self._closed = True
        self._wake()
        if wait:
            self._thread.join()

    # -- supervision loop ----------------------------------------------------

    def _wake(self):
        try:
            self._wake_writer.send_bytes(b"")
        except OSError:
            pass  # full (a wake-up is pending) or closed (the loop is done)

    def _notify(self, callback, *args):
        if callback is None:
            return
        try:
            callback(*args)
        except Exception:
            self.callback_errors += 1

    def _loop(self):
        while True:
            starting = []
            with self._lock:
                cancel = self._closed and not self._drain_on_close
                if cancel:
                    doomed = ([task for _, _, task in sorted(self._pending)]
                              + list(self._active.values()))
                    self._pending.clear()
                    self._queued_ids.clear()
                    self._active.clear()
                while (not cancel and self._pending
                       and len(self._active) + len(starting)
                       < self.parallelism):
                    _, _, task = heapq.heappop(self._pending)
                    self._queued_ids.discard(task.task_id)
                    starting.append(task)
                drained = (self._closed and not cancel and not starting
                           and not self._active)
            if cancel:
                for task in doomed:
                    elapsed = 0.0
                    if task.process is not None:
                        _terminate(task.process)
                        elapsed = time.monotonic() - task.started
                    self._close_connection(task)
                    self._notify(task.on_outcome, TaskOutcome(
                        task.task_id, "cancelled", elapsed=elapsed))
                break
            if drained:
                break
            for task in starting:
                self._start(task)
            self._supervise()
        self._wake_reader.close()
        self._wake_writer.close()

    def _start(self, task):
        task.connection, writer = Pipe(duplex=False)
        task.process = self.context.Process(
            target=_worker_main, args=(task.target, task.args, writer),
            daemon=True)
        try:
            task.process.start()
        except Exception:
            # An unpicklable task under spawn, or a fork that failed: the
            # task errs and supervision goes on, starting the next task
            # without waiting.
            task.process = None
            self._close_connection(task)
            self._notify(task.on_outcome, TaskOutcome(
                task.task_id, "error", error=traceback.format_exc()))
            self._wake()
            return
        finally:
            writer.close()
        task.started = time.monotonic()
        if task.timeout is not None:
            task.deadline = task.started + task.timeout
        with self._lock:
            self._active[task.task_id] = task
        self._notify(task.on_start, task.task_id)

    def _supervise(self):
        """One wait: settle whatever the results, exits and deadlines say."""
        with self._lock:
            active = list(self._active.values())
        waitables = [self._wake_reader]
        deadlines = []
        for task in active:
            waitables.append(task.process.sentinel)
            if task.connection is not None:
                waitables.append(task.connection)
            if task.deadline is not None:
                deadlines.append(task.deadline)
        timeout = (max(0.0, min(deadlines) - time.monotonic())
                   if deadlines else None)
        ready = set(wait(waitables, timeout))
        if self._wake_reader in ready:
            while self._wake_reader.poll():
                self._wake_reader.recv_bytes()
        now = time.monotonic()
        for task in active:
            exited = task.process.sentinel in ready
            outcome = None
            if task.connection is not None and (exited
                                                or task.connection in ready):
                outcome = self._receive(task)
            if outcome is None and exited:
                # A result written before the exit is still in the pipe and
                # was read above, so an exit without one is a crash.
                task.process.join()
                outcome = TaskOutcome(
                    task.task_id, "crashed", elapsed=now - task.started,
                    error="worker process died with exit code {} before "
                          "reporting a result".format(task.process.exitcode))
            elif (outcome is None and task.deadline is not None
                    and now >= task.deadline):
                _terminate(task.process)
                outcome = TaskOutcome(
                    task.task_id, "timeout", elapsed=now - task.started,
                    error="task exceeded its {:.3g}s deadline and was "
                          "terminated".format(task.timeout))
            if outcome is not None:
                task.process.join()
                self._close_connection(task)
                with self._lock:
                    del self._active[task.task_id]
                self._notify(task.on_outcome, outcome)

    def _receive(self, task):
        """Read *task*'s connection dry: its events, then maybe its outcome.

        End of file closes the connection; the worker's sentinel decides.
        """
        try:
            while task.connection.poll():
                message = task.connection.recv()
                if message[0] != "event":
                    status, payload, error, elapsed = message
                    return TaskOutcome(task.task_id, status, payload=payload,
                                       error=error, elapsed=elapsed)
                self._notify(task.on_event, message[1])
        except Exception:
            self._close_connection(task)
        return None

    @staticmethod
    def _close_connection(task):
        if task.connection is not None:
            task.connection.close()
            task.connection = None
