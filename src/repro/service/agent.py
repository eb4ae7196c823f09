"""The worker agent: streams leased tasks through its worker processes.

At most ``IN_FLIGHT_PER_WORKER × workers`` tasks are in flight; the agent
leases only the free room and completes each task as it finishes, in any
order.  A task runs through :func:`execute_wire_task`, the wire codec
around the one worker entry point, :func:`~repro.core.driver.execute_experiment_task`.
Execution is a pure function of the descriptor, which is what makes the
lease discipline safe: an agent that dies mid-lease is simply reaped, its
tasks re-queued, and any other agent's re-execution is bit-identical.
``fail_after_tasks`` turns that property into a test/CI hook — the agent
completes N tasks, holds its next lease, and exits *without* completing
or heartbeating, exactly the failure the reaper must absorb.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, ProcessPoolExecutor, wait
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.driver import execute_experiment_task, worker_driver
from ..serialize import task_from_obj, task_result_to_obj

#: The longest long-poll of one lease request (capped at half the lease TTL).
LEASE_WAIT_S = 5.0

#: Tasks held per worker: one running, one queued so no worker waits on a lease.
IN_FLIGHT_PER_WORKER = 2

#: The first and the longest wait before a failed manager call is re-sent.
RETRY_FIRST_S = 0.1
RETRY_MAX_S = 2.0

#: The ``stats()`` fields an agent sums over its workers' tasks (``dir``
#: and ``slices`` are reported as last seen).
_COUNTERS = ("hits", "misses", "stores", "corrupt")


def execute_wire_task(obj: Dict[str, Any]) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Decode one wire-form task, run it through the worker entry point,
    encode: ``({"result": envelope} or {"error": "Type: message"}, cache)``,
    ``cache`` being the executing driver's ``stats()`` with the counters
    replaced by this task's change to them (``None`` without a cache).

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
    return outcome, dict(after, **{k: after[k] - before[k] for k in _COUNTERS})


class Agent:
    """The agent loop: register, lease, execute, complete, heartbeat.

    ``transport`` needs the agent-side manager surface
    (``register_agent`` / ``heartbeat`` / ``lease`` / ``complete``) —
    either an :class:`~repro.service.http.HttpTransport` or a
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

    def _retry(self, call: Callable[[], Any]) -> Any:
        """``call()`` re-sent until the manager answers, each failure
        waiting twice as long as the last, up to ``RETRY_MAX_S``; ``None``
        if the agent is stopped (or goes idle) first."""
        delay = RETRY_FIRST_S
        while True:
            try:
                return call()
            except Exception:  # noqa: BLE001 - manager briefly unreachable
                if self._idle_expired() or self._stop.wait(delay):
                    return None
                delay = min(2.0 * delay, RETRY_MAX_S)

    def _start_heartbeat(self, lease_ttl_s: float, done: threading.Event) -> threading.Thread:
        interval = max(0.2, lease_ttl_s / 3.0)

        def beat() -> None:
            while not done.wait(interval):
                try:
                    if not self.transport.heartbeat(self.agent_id)["ok"]:
                        # Lease lapsed (manager restarted, long GC pause):
                        # re-register rather than working unleased.
                        self._register()
                except Exception:  # noqa: BLE001 - transient transport errors
                    done.wait(interval)

        thread = threading.Thread(target=beat, name="repro-agent-heartbeat", daemon=True)
        thread.start()
        return thread

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
        try:
            while not self._stop.is_set():
                with ProcessPoolExecutor(self.workers) as pool:
                    # A throwaway task forks every worker while this is the
                    # agent's only thread: the heartbeat starts after it,
                    # and stops before a pool a dying worker broke is
                    # replaced by a fresh one.
                    pool.submit(abs, 0).result()
                    lease_ttl_s = self._retry(self._register) if self.agent_id else self._register()
                    if lease_ttl_s is None:
                        break
                    done = threading.Event()
                    heartbeat = self._start_heartbeat(lease_ttl_s, done)
                    try:
                        self._serve(pool, lease_ttl_s)
                    except BrokenExecutor:
                        pass  # a worker died: what was in flight stays leased
                    finally:
                        pool.shutdown(cancel_futures=True)  # what has not started never runs
                        done.set()
                        heartbeat.join()
        finally:
            self._stop.set()
        return self.tasks_completed

    def _serve(self, pool: ProcessPoolExecutor, lease_ttl_s: float) -> None:
        """Keep the window full and complete each task as it finishes, until
        stopped or a worker dies: then what is in flight is left uncompleted
        and this registration lapses, so the reaper re-queues what it held."""
        window = IN_FLIGHT_PER_WORKER * self.workers
        running: Dict[Future, str] = {}  # task id by its future
        while not self._stop.is_set():
            if len(running) < window:
                try:
                    entries = self.transport.lease(
                        self.agent_id,
                        max_tasks=window - len(running),
                        wait_s=0.0 if running else min(LEASE_WAIT_S, lease_ttl_s / 2.0),
                    )["tasks"]
                except Exception:  # noqa: BLE001 - manager unreachable or restarted
                    if self._idle_expired() or self._stop.wait(0.5):
                        return
                    lease_ttl_s = self._retry(self._register)
                    continue
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
            for future in wait(running, return_when=FIRST_COMPLETED).done:
                outcome, cache = future.result()
                task_id = running.pop(future)
                for key, value in (cache or {}).items():
                    self.cache[key] = self.cache.get(key, 0) + value if key in _COUNTERS else value
                # Re-sent until delivered: a task's first completion wins,
                # and a repeated one is counted as a duplicate.
                delivered = self._retry(
                    lambda: self.transport.complete(
                        self.agent_id, task_id, cache=self.cache or None, **outcome
                    )
                )
                if delivered is None:
                    return
                self.tasks_completed += 1
