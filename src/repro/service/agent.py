"""The worker agent: leases task batches and runs them on worker processes.

Each leased batch runs on a :class:`ProcessExecutor` through
:func:`execute_wire_task`, the wire codec around the one worker entry
point, :func:`~repro.core.driver.execute_experiment_task`.  Execution is
a pure function of the descriptor, which is what makes the lease
discipline safe: an agent that dies mid-lease is simply reaped, its tasks
re-queued, and any other agent's re-execution is bit-identical.
``fail_after_tasks`` turns that property into a test/CI hook — the agent
completes N tasks, leases one more batch, and exits *without* completing
or heartbeating, exactly the failure the reaper must absorb.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Optional, Tuple

from ..core.driver import execute_experiment_task, worker_driver
from ..pipeline.executor import ProcessExecutor
from ..serialize import task_from_obj, task_result_to_obj

#: The longest long-poll of one lease request (capped at half the lease TTL).
LEASE_WAIT_S = 5.0

#: The ``stats()`` fields an agent sums over its workers' tasks (``dir``
#: and ``slices`` are reported as last seen).
_COUNTERS = ("hits", "misses", "stores", "corrupt")


def execute_wire_task(obj: Dict[str, Any]) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Decode one wire-form task, run it through the worker entry point,
    encode: ``({"result": envelope} or {"error": "Type: message"}, cache)``,
    ``cache`` being the executing driver's ``stats()`` with the counters
    replaced by this task's change to them (``None`` without a cache)."""
    cache = before = None
    try:
        task = task_from_obj(obj)
        cache = worker_driver(task).cache
        before = None if cache is None else cache.stats()
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
        batch: Optional[int] = None,
        fail_after_tasks: Optional[int] = None,
    ) -> None:
        self.transport = transport
        self.workers = max(1, int(workers))
        self.name = name
        self.batch = batch or self.workers
        self.fail_after_tasks = fail_after_tasks
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
        take any.
        """
        pool = ProcessExecutor(self.workers)
        try:
            while not self._stop.is_set():
                # A throwaway task forks every worker while this is the
                # agent's only thread: the heartbeat starts after it, and
                # stops before a pool a dying worker broke is re-opened.
                pool.map(abs, [0])
                lease_ttl_s = self._register()
                done = threading.Event()
                heartbeat = self._start_heartbeat(lease_ttl_s, done)
                try:
                    self._serve(pool, lease_ttl_s, idle_exit_s)
                finally:
                    done.set()
                    heartbeat.join()
        finally:
            self._stop.set()
            pool.close()
        return self.tasks_completed

    def _serve(
        self, pool: ProcessExecutor, lease_ttl_s: float, idle_exit_s: Optional[float]
    ) -> None:
        """Lease, execute and complete batches until stopped, or until a
        worker dies: then the batch is left uncompleted and this
        registration lapses, so the reaper re-queues what it held."""
        idle_since = time.monotonic()
        while not self._stop.is_set():
            try:
                reply = self.transport.lease(
                    self.agent_id,
                    max_tasks=self.batch,
                    wait_s=min(LEASE_WAIT_S, lease_ttl_s / 2.0),
                )
            except Exception:  # noqa: BLE001 - manager briefly unreachable
                if self._stop.wait(0.5):
                    return
                lease_ttl_s = self._register()
                continue
            entries = reply["tasks"]
            if not entries:
                if idle_exit_s is not None and time.monotonic() - idle_since >= idle_exit_s:
                    self._stop.set()
                continue
            idle_since = time.monotonic()
            if self.fail_after_tasks is not None and self.tasks_completed >= self.fail_after_tasks:
                # Simulated crash: hold the fresh leases, stop heartbeating,
                # and vanish.  The manager's reaper must re-queue everything
                # this agent held.
                self.died = True
                self._stop.set()
                return
            try:
                outcomes = pool.map(execute_wire_task, [e["task"] for e in entries])
            except BrokenProcessPool:
                return
            for entry, (outcome, cache) in zip(entries, outcomes):
                for key, value in (cache or {}).items():
                    self.cache[key] = self.cache.get(key, 0) + value if key in _COUNTERS else value
                self.transport.complete(
                    self.agent_id, entry["id"], cache=self.cache or None, **outcome
                )
                self.tasks_completed += 1
