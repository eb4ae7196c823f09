"""The Executor a submitted campaign runs on: tasks go to the manager queue.

:class:`RemoteExecutor` is the distributed
:class:`~repro.pipeline.executor.Executor` backend behind ``repro submit``:
:meth:`~repro.service.manager.ManagerCore.start_campaign` runs the
pipeline manager-side over one.  The driver hands it what it hands the
process backend — picklable
:class:`~repro.core.driver.ExperimentTask` descriptors and a module-level
entry point — and the executor serializes each descriptor to its wire
form, submits the batch to the manager queue, and waits once, until every
result (possibly computed out of order, by several agents, with mid-batch
agent deaths and re-queues) is resolved.  Results return **in input
order**, and the driver keeps committing in submission order, so a remote
campaign's digest is bit-identical to a serial one by the same argument
that covers the process backend.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from ..errors import ReproError
from ..pipeline.executor import Executor
from ..serialize import task_result_from_obj, task_to_obj


class RemoteExecutor(Executor):
    """Ordered map over the manager's distributed task queue.

    ``transport`` needs ``submit_tasks`` / ``wait_tasks``: the
    :class:`~repro.service.manager.ManagerCore` itself (manager-side
    campaigns and tests).

    ``timeout_s`` bounds how long one batch may sit with **no** task
    resolving (a fleet that never picks work up); any progress resets the
    clock, so slow-but-alive fleets are never killed mid-batch.
    """

    #: The fleet's size is its agents', not the executor's. The driver
    #: reads only whether this exceeds 1, so every batch of two or more
    #: misses goes to the fleet.
    max_workers = 2

    def __init__(
        self,
        transport: Any,
        campaign: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        self.transport = transport
        self.campaign = campaign
        self.timeout_s = timeout_s

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        from ..core.driver import execute_experiment_task

        if fn is not execute_experiment_task:
            raise ReproError(
                "the remote backend executes ExperimentTask descriptors only "
                "(got %r); use the serial backend for ad-hoc callables"
                % (getattr(fn, "__name__", fn),)
            )
        objs = [task_to_obj(t) for t in items]
        if not objs:
            return []
        ids = self.transport.submit_tasks(objs, campaign=self.campaign)["ids"]
        out: List[Any] = []
        for outcome in self.transport.wait_tasks(ids, stall_s=self.timeout_s):
            if "error" in outcome:
                raise ReproError("remote task failed: %s" % (outcome["error"],))
            out.append(task_result_from_obj(outcome["result"]))
        return out
