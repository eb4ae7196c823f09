"""The worker agent: leases task batches and executes them locally.

An agent is the remote twin of a :class:`ProcessExecutor` worker process,
and runs each leased task through the same function that worker does:
:func:`~repro.core.driver.execute_experiment_task` resolves the
descriptor to this process's per-(system, config) driver — spec built
once, each profile group computed at most once — and that driver looks
the task up in the shared content-addressed cache (when the task's
config names a cache directory), simulates only on a miss, and stores the
result.  All the agent adds is the wire codec and the cache counters that
travel back to the manager with every completion, so the fleet's dedup
behaviour is observable from ``repro status``.

Execution is a pure function of the descriptor, which is what makes the
lease discipline safe: an agent that dies mid-lease is simply reaped, its
tasks re-queued, and any other agent's re-execution is bit-identical.
``fail_after_tasks`` turns that property into a test/CI hook — the agent
completes N tasks, leases one more batch, and exits *without* completing
or heartbeating, exactly the failure the reaper must absorb.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from typing import Any, Dict, Optional, Tuple

from ..core.driver import execute_experiment_task, worker_driver
from ..serialize import task_from_obj, task_result_to_obj

#: Default long-poll duration of one lease request.
LEASE_WAIT_S = 5.0


def execute_wire_task(obj: Dict[str, Any]) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Decode one wire-form task, run it through the worker entry point,
    encode: ``(result envelope, the executing driver's cache counters)``."""
    task = task_from_obj(obj)
    envelope = task_result_to_obj(execute_experiment_task(task))
    cache = worker_driver(task).cache
    return envelope, None if cache is None else cache.stats()


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
        lease_wait_s: float = LEASE_WAIT_S,
        fail_after_tasks: Optional[int] = None,
    ) -> None:
        self.transport = transport
        self.workers = max(1, int(workers))
        self.name = name
        self.batch = batch or self.workers
        self.lease_wait_s = lease_wait_s
        self.fail_after_tasks = fail_after_tasks
        self.agent_id: Optional[str] = None
        self.tasks_completed = 0
        self.died = False  # set by the fail_after_tasks hook
        self._stop = threading.Event()
        self._count_lock = threading.Lock()
        self._heartbeat_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------ plumbing

    def stop(self) -> None:
        self._stop.set()

    def _register(self) -> float:
        reply = self.transport.register_agent(name=self.name, workers=self.workers)
        self.agent_id = reply["agent"]
        return float(reply["lease_ttl_s"])

    def _start_heartbeat(self, lease_ttl_s: float) -> None:
        interval = max(0.2, lease_ttl_s / 3.0)

        def beat() -> None:
            while not self._stop.wait(interval):
                try:
                    if not self.transport.heartbeat(self.agent_id)["ok"]:
                        # Lease lapsed (manager restarted, long GC pause):
                        # re-register rather than working unleased.
                        self._register()
                except Exception:  # noqa: BLE001 - transient transport errors
                    time.sleep(interval)

        self._heartbeat_thread = threading.Thread(
            target=beat, name="repro-agent-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()

    def _execute_one(self, entry: Dict[str, Any]) -> None:
        cache = None
        try:
            result, cache = execute_wire_task(entry["task"])
            outcome: Dict[str, Any] = {"result": result}
        except Exception as exc:  # noqa: BLE001 - report, don't crash the fleet
            outcome = {"error": "%s: %s" % (type(exc).__name__, exc)}
        self.transport.complete(self.agent_id, entry["id"], cache=cache, **outcome)
        with self._count_lock:
            self.tasks_completed += 1

    # ---------------------------------------------------------------- loop

    def run(self, idle_exit_s: Optional[float] = None) -> int:
        """Serve the queue until stopped; returns tasks completed.

        ``idle_exit_s`` makes the agent exit after that long without
        leasing anything (tests and smoke scripts); the CLI default is to
        serve forever.
        """
        lease_ttl_s = self._register()
        self._start_heartbeat(lease_ttl_s)
        idle_since = time.monotonic()
        try:
            with concurrent.futures.ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-agent"
            ) as pool:
                while not self._stop.is_set():
                    try:
                        reply = self.transport.lease(
                            self.agent_id,
                            max_tasks=self.batch,
                            wait_s=min(self.lease_wait_s, lease_ttl_s / 2.0),
                        )
                    except Exception:  # noqa: BLE001 - manager briefly unreachable
                        if self._stop.wait(0.5):
                            break
                        lease_ttl_s = self._register()
                        continue
                    entries = reply["tasks"]
                    if not entries:
                        if (
                            idle_exit_s is not None
                            and time.monotonic() - idle_since >= idle_exit_s
                        ):
                            break
                        continue
                    idle_since = time.monotonic()
                    if (
                        self.fail_after_tasks is not None
                        and self.tasks_completed >= self.fail_after_tasks
                    ):
                        # Simulated crash: hold the fresh leases, stop
                        # heartbeating, and vanish.  The manager's reaper
                        # must re-queue everything this agent held.
                        self.died = True
                        self._stop.set()
                        break
                    futures = [pool.submit(self._execute_one, e) for e in entries]
                    for future in futures:
                        future.result()
        finally:
            self._stop.set()
        return self.tasks_completed
