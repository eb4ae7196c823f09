"""The worker agent: streams leased tasks through its worker processes.

Once registered, the agent sends one ``lease`` request per wake-up (a
task finished, or ``lease_ttl_s / 3`` passed): it delivers the outcomes
finished since the last one, renews the lease, and leases the free room
in a window of ``IN_FLIGHT_PER_WORKER × workers`` tasks.  A task runs
through :func:`execute_wire_task`, the wire codec around the one worker
entry point, :func:`~repro.core.driver.execute_experiment_task`.
Execution is a pure function of the descriptor, which is what makes the
lease discipline safe: an agent that dies mid-lease is simply reaped,
its tasks re-queued, and any other agent's re-execution is bit-identical.
``fail_after_tasks`` turns that property into a test/CI hook — the agent
completes N tasks, holds its next lease, and exits without another
request, exactly the failure the reaper must absorb.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, ProcessPoolExecutor, wait
from typing import Any, Dict, List, Optional, Tuple

from ..core.driver import execute_experiment_task, worker_driver
from ..serialize import task_from_obj, task_result_to_obj

#: The longest long-poll of one lease request (capped at half the lease TTL).
LEASE_WAIT_S = 5.0

#: Tasks held per worker: one running, one queued so no worker waits on a lease.
IN_FLIGHT_PER_WORKER = 2

#: The first and the longest wait before a failed manager call is re-sent.
RETRY_FIRST_S = 0.1
RETRY_MAX_S = 2.0

#: The ``stats()`` fields an agent sums over its workers' tasks (``dir`` is
#: reported as last seen).
_COUNTERS = ("hits", "misses", "stores", "corrupt")


def execute_wire_task(obj: Dict[str, Any]) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Decode one wire-form task, run it through the worker entry point,
    encode: ``({"result": envelope} or {"error": "Type: message"}, cache)``,
    ``cache`` being the executing driver's cache directory and this task's
    change to its counters (``None`` without a cache).

    A task whose key this agent's own tree does not reproduce was
    submitted from other code: it fails with an error that begins
    ``code_mismatch:`` and is never executed."""
    cache = before = None
    try:
        task = task_from_obj(obj)
        driver = worker_driver(task)
        cache = driver.cache
        before = None if cache is None else cache.stats()
        key = driver.key(task.test_id, task.fault, task.plans)
        if key != task.key:
            outcome = {
                "error": "code_mismatch: this agent keys the task %s, the submitter %s"
                % (key[:12], task.key[:12])
            }
        else:
            outcome = {"result": task_result_to_obj(execute_experiment_task(task))}
    except Exception as exc:  # noqa: BLE001 - report, don't crash the fleet
        outcome = {"error": "%s: %s" % (type(exc).__name__, exc)}
    if cache is None:
        return outcome, None
    after = cache.stats()
    return outcome, dict(dir=after["dir"], **{k: after[k] - before[k] for k in _COUNTERS})


class Agent:
    """The agent loop: register, then lease and execute.

    ``transport`` needs the agent-side manager surface
    (``register_agent`` / ``lease``) — either an
    :class:`~repro.service.http.HttpTransport` or a
    :class:`~repro.service.manager.ManagerCore` directly.
    """

    def __init__(
        self,
        transport: Any,
        workers: int = 1,
        name: str = "",
        fail_after_tasks: Optional[int] = None,
    ) -> None:
        self.transport = transport
        self.workers = max(1, int(workers))
        self.name = name
        self.fail_after_tasks = float("inf") if fail_after_tasks is None else fail_after_tasks
        self.agent_id: Optional[str] = None
        self.tasks_completed = 0
        self.cache: Dict[str, Any] = {}  # counters summed over the workers
        self.died = False  # set by the fail_after_tasks hook
        self._stop = threading.Event()
        self._unreachable = False  # a manager call failed, none got through since

    # ------------------------------------------------------------ plumbing

    def stop(self) -> None:
        self._stop.set()

    def _register(self) -> float:
        reply = self.transport.register_agent(name=self.name, workers=self.workers)
        self.agent_id = reply["agent"]
        return float(reply["lease_ttl_s"])

    def _idle_expired(self) -> bool:
        """Whether the agent is stopped, stopping it first once it has gone
        ``idle_exit_s`` without leasing a task, its manager down or not."""
        idle_s = time.monotonic() - self._idle_since
        if self._idle_exit_s is not None and idle_s >= self._idle_exit_s:
            self._stop.set()
        return self._stop.is_set()

    def _outage(self, call: str, exc: Optional[Exception] = None, wait_s: float = 0.0) -> None:
        """One stderr line when a manager call first fails (``exc``), and one
        when a call gets through after that."""
        if self._unreachable != (exc is not None):
            self._unreachable = exc is not None
            news = "failed (%s); retrying in %.1f s" % (exc, wait_s) if exc else "got through again"
            print("agent: %s %s" % (call, news), file=sys.stderr, flush=True)

    def _reregister(self) -> Optional[float]:
        """A fresh registration's lease TTL, re-sent until the manager
        answers, each failure waiting twice as long as the last, up to
        ``RETRY_MAX_S``; ``None`` if the agent is stopped (or goes idle)
        first."""
        delay = RETRY_FIRST_S
        while True:
            try:
                lease_ttl_s = self._register()
            except Exception as exc:  # noqa: BLE001 - manager briefly unreachable
                self._outage("register_agent", exc, delay)
                if self._idle_expired() or self._stop.wait(delay):
                    return None
                delay = min(2.0 * delay, RETRY_MAX_S)
            else:
                self._outage("register_agent")
                return lease_ttl_s

    # ---------------------------------------------------------------- loop

    def run(self, idle_exit_s: Optional[float] = None) -> int:
        """Serve the queue until stopped; returns tasks completed.

        ``idle_exit_s`` makes the agent exit after that long without
        leasing anything (tests and smoke scripts); the CLI default is to
        serve forever.  The workers fork before the agent registers, and
        inherit every lock another thread of the process holds then, so a
        host with threads of its own waits for ``agent_id`` before they
        take any.  Only the first registration may fail: a later one is
        re-sent until the manager answers, or until the agent goes idle.
        """
        # The idle clock restarts whenever a lease brings a task.
        self._idle_exit_s, self._idle_since = idle_exit_s, time.monotonic()
        finished: List[Dict[str, Any]] = []  # outcomes not yet delivered
        try:
            while not self._stop.is_set():
                with ProcessPoolExecutor(self.workers) as pool:
                    pool.submit(abs, 0).result()  # forks every worker before registering
                    lease_ttl_s = self._reregister() if self.agent_id else self._register()
                    if lease_ttl_s is None:
                        break
                    try:
                        self._serve(pool, lease_ttl_s, finished)
                    except BrokenExecutor:
                        pass  # a worker died: what was in flight stays leased
                    finally:
                        pool.shutdown(cancel_futures=True)  # what has not started never runs
        finally:
            self._stop.set()
        return self.tasks_completed

    def _serve(
        self, pool: ProcessPoolExecutor, lease_ttl_s: float, finished: List[Dict[str, Any]]
    ) -> None:
        """Keep the window full with one lease per wake-up, each delivering
        ``finished``, until stopped or a worker dies: then what is in flight
        is left undelivered and this registration lapses, so the reaper
        re-queues what it held; what had finished rides the next
        registration's first lease."""
        window = IN_FLIGHT_PER_WORKER * self.workers
        running: Dict[Future, str] = {}  # task id by its future
        while not self._stop.is_set():
            try:
                entries = self.transport.lease(
                    self.agent_id,
                    max_tasks=window - len(running),
                    wait_s=0.0 if running else min(LEASE_WAIT_S, lease_ttl_s / 2.0),
                    outcomes=finished,
                    cache=self.cache or None,
                )["tasks"]
            except Exception as exc:  # noqa: BLE001 - manager unreachable or restarted
                # Re-sent by a fresh registration: a task's first
                # completion wins, and a repeated one is a duplicate.
                self._outage("lease", exc, RETRY_FIRST_S)
                if self._idle_expired() or self._stop.wait(RETRY_FIRST_S):
                    return
                lease_ttl_s = self._reregister()
                if lease_ttl_s is None:
                    return
                continue
            self._outage("lease")
            self.tasks_completed += len(finished)
            finished.clear()
            if entries:
                self._idle_since = time.monotonic()
                if self.tasks_completed >= self.fail_after_tasks:
                    # Simulated crash: hold the fresh leases and vanish
                    # unheard; the reaper must re-queue all it held.
                    self.died = True
                    self._stop.set()
                    return
                for entry in entries:
                    running[pool.submit(execute_wire_task, entry["task"])] = entry["id"]
            elif not running:
                self._idle_expired()
                continue
            for future in wait(running, lease_ttl_s / 3.0, FIRST_COMPLETED).done:
                outcome, cache = future.result()
                finished.append(dict(outcome, id=running.pop(future)))
                for key, value in (cache or {}).items():
                    self.cache[key] = self.cache.get(key, 0) + value if key in _COUNTERS else value
