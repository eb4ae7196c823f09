"""The manager core: lease-based work queue + campaign registry.

:class:`ManagerCore` is a pure, thread-safe state machine — no sockets,
no JSON framing, no clocks it does not own.  The HTTP layer
(:mod:`repro.service.http`) is a thin framing shim over its public
methods, and every method speaks JSON-compatible values, so the in-process
transport used by tests and manager-side campaigns exercises the exact
code paths the wire does.

Liveness follows the lease discipline of Timed Quorum Systems: an agent
*joins* (``register_agent``), holds a lease that its every ``lease``
request renews (the same request delivers its finished outcomes), and
*expires* when the lease lapses — at which point every task it held is
silently re-queued for the surviving fleet.  Task
execution is a pure function of the task descriptor (system name, test
id, config, plans, seeds), so a re-queued task re-executes bit-identically
on any other agent and the deterministic commit order downstream (the
driver commits in submission order) is never at risk.

Tasks are keyed by the submitting driver's result key
(:class:`~repro.cache.ResultKey`: the experiment-cache key, code
included, execution-only knobs excluded), which makes the queue itself
the dedup layer: two concurrent campaigns submitting the same (fault,
test) experiment share one queue entry, one execution, and one result.
An agent on other code refuses the task (``code_mismatch``).  Finished
tasks stay for dedup and waiting in a ring of :data:`FINISHED_TASKS`;
one that has left it runs again when resubmitted, which is safe because
tasks are pure.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..config import CSnakeConfig
from ..errors import ReproError

#: Default lease duration granted to agents; renewed by each ``lease`` request.
DEFAULT_LEASE_TTL_S = 15.0

#: Cap on buffered progress events per campaign (a ring; oldest dropped).
MAX_CAMPAIGN_EVENTS = 4096

#: How many finished tasks the manager keeps, oldest forgotten first when
#: new tasks are submitted.  A forgotten task's result is gone: waiting for
#: it is an unknown-task error, and resubmitting it runs it again.
FINISHED_TASKS = 4096

#: The wire protocol ``stats()`` reports; 4 since a status long-polls.
PROTOCOL = 4


class _Task:
    __slots__ = (
        "digest",
        "obj",
        "state",
        "agent",
        "outcome",
        "campaigns",
        "enqueued_at",
        "leased_at",
    )

    def __init__(self, digest: str, obj: Dict[str, Any], now: float) -> None:
        self.digest = digest
        self.obj = obj
        self.state = "queued"  # queued | leased | done | failed
        self.agent: Optional[str] = None
        self.outcome: Optional[Dict[str, Any]] = None  # {"result": ...} or {"error": ...}
        self.campaigns: Set[str] = set()
        self.enqueued_at = now
        self.leased_at: Optional[float] = None


class _Agent:
    __slots__ = ("agent_id", "name", "workers", "deadline", "completed", "cache")

    def __init__(self, agent_id: str, name: str, workers: int, deadline: float) -> None:
        self.agent_id = agent_id
        self.name = name
        self.workers = workers
        self.deadline = deadline
        self.completed = 0
        self.cache: Dict[str, Any] = {}


class _Campaign:
    __slots__ = (
        "campaign_id",
        "system",
        "label",
        "state",  # running | done | failed
        "error",
        "report",
        "digest",
        "summary",
        "events",
        "next_seq",
        "tasks_total",
        "tasks_done",
    )

    def __init__(self, campaign_id: str, system: str, label: str) -> None:
        self.campaign_id = campaign_id
        self.system = system
        self.label = label
        self.state = "running"
        self.error: Optional[str] = None
        self.report: Optional[Dict[str, Any]] = None
        self.digest: Optional[str] = None
        self.summary: Optional[Dict[str, Any]] = None
        self.events: Deque[Dict[str, Any]] = deque(maxlen=MAX_CAMPAIGN_EVENTS)
        self.next_seq = 0
        self.tasks_total = 0
        self.tasks_done = 0


class ManagerCore:
    """Thread-safe lease-based task queue + campaign registry.

    All public methods take and return JSON-compatible values; the lock
    is a single condition variable, so the long-polls (``lease``,
    ``wait_tasks``, ``campaign_status``, ``campaign_events``), which all
    block in :meth:`_wait`, wake on any state change.
    ``clock`` is injectable (monotonic seconds) so lease-expiry tests
    never sleep.
    """

    def __init__(
        self,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ReproError("lease_ttl_s must be positive")
        self.lease_ttl_s = lease_ttl_s
        self._clock = clock or time.monotonic
        # Default Condition (RLock-backed): several public methods compose
        # others (stats -> list_campaigns) under one critical section.
        self._cond = threading.Condition()
        self._tasks: Dict[str, _Task] = {}
        # Finished task ids in the order they finished (values unused).
        self._finished: "OrderedDict[str, None]" = OrderedDict()
        self._queue: Deque[str] = deque()
        # Unresolved task id -> the inbox of each wait_tasks call watching it.
        self._watchers: Dict[str, List[List[Tuple[str, Dict[str, Any]]]]] = {}
        self._agents: Dict[str, _Agent] = {}
        self._campaigns: Dict[str, _Campaign] = {}
        self._next_agent = 0
        self._next_campaign = 0
        self._executed = 0  # tasks that ran on an agent (≠ dedup hits)
        self._requeued = 0  # leases reclaimed from expired agents
        self._evicted = 0  # finished tasks forgotten past FINISHED_TASKS
        self._code_mismatch = 0  # tasks an agent refused as other code's
        # Requests served: an agent's register and lease, a client's status and events.
        self._requests = {"register": 0, "lease": 0, "status": 0, "events": 0}
        self.started_at = self._clock()

    # ----------------------------------------------------------- internals

    def _reap(self, now: float) -> None:
        """Expire agents whose lease lapsed; re-queue everything they held."""
        dead = [a for a in self._agents.values() if a.deadline <= now]
        for agent in dead:
            del self._agents[agent.agent_id]
            for task in self._tasks.values():
                if task.state == "leased" and task.agent == agent.agent_id:
                    task.state = "queued"
                    task.agent = None
                    self._queue.append(task.digest)
                    self._requeued += 1
        if dead:
            self._cond.notify_all()

    def _emit(self, campaign: _Campaign, kind: str, **detail: Any) -> None:
        event = {"seq": campaign.next_seq, "kind": kind, "detail": detail}
        campaign.next_seq += 1
        campaign.events.append(event)
        self._cond.notify_all()

    def _wait(self, wait_s: Optional[float], ready: Callable[[float], bool]) -> bool:
        """With the lock held, reap and ask ``ready(now)`` on every state
        change until it is true or ``wait_s`` runs out (never for ``None``);
        returns its last answer."""
        deadline = None if wait_s is None else self._clock() + max(0.0, wait_s)
        while True:
            now = self._clock()
            self._reap(now)
            if ready(now):
                return True
            if deadline is not None and now >= deadline:
                return False
            self._cond.wait(timeout=0.5 if deadline is None else min(0.5, deadline - now))

    def _campaign(self, campaign_id: str) -> _Campaign:
        campaign = self._campaigns.get(campaign_id)
        if campaign is None:
            raise ReproError("unknown campaign %r" % (campaign_id,))
        return campaign

    # -------------------------------------------------------------- agents

    def register_agent(self, name: str = "", workers: int = 1) -> Dict[str, Any]:
        with self._cond:
            now = self._clock()
            self._reap(now)
            self._requests["register"] += 1
            self._next_agent += 1
            agent_id = "agent-%d" % self._next_agent
            self._agents[agent_id] = _Agent(
                agent_id, name or agent_id, max(1, int(workers)), now + self.lease_ttl_s
            )
            return {"agent": agent_id, "lease_ttl_s": self.lease_ttl_s}

    def lease(
        self,
        agent_id: str,
        max_tasks: int = 1,
        wait_s: float = 0.0,
        outcomes: Sequence[Dict[str, Any]] = (),
        cache: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Record ``outcomes`` (``{"id", "result"}`` or ``{"id", "error"}``
        objects; ``duplicates`` in the reply counts the repeats), renew the
        agent's lease, and lease up to ``max_tasks`` queued tasks (none for
        0), long-polling up to ``wait_s`` for one.  The outcomes count even
        from an expired or unknown agent, which then gets an explicit error,
        so it re-registers instead of executing work it no longer holds."""
        leased: List[Dict[str, Any]] = []

        def take(now: float) -> bool:
            agent = self._agents.get(agent_id)
            if agent is None:
                raise ReproError("unknown or expired agent %r (re-register)" % (agent_id,))
            agent.deadline = now + self.lease_ttl_s
            if cache:
                agent.cache = dict(cache)
            while self._queue and len(leased) < max_tasks:
                task = self._tasks[self._queue.popleft()]
                if task.state != "queued":
                    continue  # completed by a still-working ex-leaseholder
                task.state = "leased"
                task.agent = agent.agent_id
                task.leased_at = now
                leased.append({"id": task.digest, "task": task.obj})
            return bool(leased) or max_tasks <= 0

        with self._cond:
            self._requests["lease"] += 1
            duplicates = sum(self._complete(agent_id, outcome) for outcome in outcomes)
            self._wait(wait_s, take)
            return {"tasks": leased, "duplicates": duplicates}

    def _complete(self, agent_id: str, outcome: Dict[str, Any]) -> bool:
        """Record one task outcome; whether it was a duplicate.  First
        completion wins; results are accepted even from agents whose lease
        lapsed mid-execution (the work is deterministic, so a late result
        equals the re-queued re-execution it raced), and a late one for a
        task that finished and was forgotten since is a duplicate too."""
        task_id, error = outcome["id"], outcome.get("error")
        task = self._tasks.get(task_id)
        if task is None or task.state in ("done", "failed"):
            return True
        wait_s = (task.leased_at or self._clock()) - task.enqueued_at
        task.state = "done" if error is None else "failed"
        task.outcome = {"result": outcome["result"]} if error is None else {"error": error}
        for inbox in self._watchers.pop(task_id, ()):
            inbox.append((task_id, task.outcome))
        self._code_mismatch += (error or "").startswith("code_mismatch:")
        self._finished[task_id] = None
        self._executed += 1
        agent = self._agents.get(agent_id)
        if agent is not None:
            agent.completed += 1
        for cid in sorted(task.campaigns):
            campaign = self._campaigns.get(cid)
            if campaign is not None:
                campaign.tasks_done += 1
                self._emit(
                    campaign,
                    "task_failed" if error is not None else "task_done",
                    id=task.digest[:12],
                    agent=agent_id,
                    done=campaign.tasks_done,
                    total=campaign.tasks_total,
                    queue_wait_s=round(wait_s, 6),
                )
        self._cond.notify_all()
        return False

    # --------------------------------------------------------------- tasks

    def submit_tasks(
        self, tasks: List[Dict[str, Any]], campaign: Optional[str] = None
    ) -> Dict[str, Any]:
        """Enqueue wire-form tasks; returns their ids, which are their keys.

        A task whose key is already known (queued, leased, or done) is
        *not* enqueued again — the existing entry serves every submitter.
        Finished tasks beyond :data:`FINISHED_TASKS` are forgotten first.
        """
        with self._cond:
            now = self._clock()
            self._reap(now)
            while len(self._finished) > FINISHED_TASKS:
                del self._tasks[self._finished.popitem(last=False)[0]]
                self._evicted += 1
            ids: List[str] = []
            fresh = 0
            for obj in tasks:
                digest = obj["key"]
                ids.append(digest)
                task = self._tasks.get(digest)
                if task is None:
                    task = _Task(digest, obj, now)
                    self._tasks[digest] = task
                    self._queue.append(digest)
                    fresh += 1
                elif task.state == "failed":
                    # A failed task may be retried by a fresh submission.
                    del self._finished[digest]
                    task.state = "queued"
                    task.outcome = None
                    self._queue.append(digest)
                    fresh += 1
                if campaign is not None:
                    camp = self._campaigns.get(campaign)
                    if camp is not None and campaign not in task.campaigns:
                        task.campaigns.add(campaign)
                        camp.tasks_total += 1
                        if task.state in ("done", "failed"):
                            # Dedup hit against an already-finished task:
                            # it counts as progress the moment it attaches.
                            camp.tasks_done += 1
            if fresh:
                self._cond.notify_all()
            return {"ids": ids}

    def wait_tasks(
        self, ids: Sequence[str], stall_s: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """The outcome of each of ``ids`` (``{"result": ...}`` or
        ``{"error": ...}``), in input order, once the last of them resolves.
        A :class:`ReproError` for an unknown id, or when ``stall_s`` pass
        with none of them resolving.  Each unresolved id is watched once:
        ``_complete`` hands its outcome to this wait's inbox, so a wake-up
        costs what resolved since the last one, not a rescan of the batch."""
        outcomes: Dict[str, Dict[str, Any]] = {}
        inbox: List[Tuple[str, Dict[str, Any]]] = []
        with self._cond:
            tasks = {task_id: self._tasks.get(task_id) for task_id in ids}
            unknown = [task_id for task_id, task in tasks.items() if task is None]
            if unknown:
                raise ReproError("wait for unknown task %r" % (unknown[0],))
            for task_id, task in tasks.items():
                if task.outcome is None:
                    self._watchers.setdefault(task_id, []).append(inbox)
                else:
                    outcomes[task_id] = task.outcome
            pending = set(tasks) - set(outcomes)

            def resolve(_now: float) -> bool:
                for task_id, outcome in inbox:
                    outcomes[task_id] = outcome
                    pending.discard(task_id)
                resolved = bool(inbox)
                inbox.clear()
                return resolved

            try:
                while pending:
                    if not self._wait(stall_s, resolve):
                        raise ReproError(
                            "remote batch stalled: %d/%d tasks unresolved after %.0fs with no "
                            "progress (are any agents connected?)"
                            % (len(pending), len(ids), stall_s)
                        )
            finally:
                for task_id in pending:
                    others = [i for i in self._watchers.pop(task_id, ()) if i is not inbox]
                    if others:
                        self._watchers[task_id] = others
        return [outcomes[task_id] for task_id in ids]

    # ----------------------------------------------------------- campaigns

    def start_campaign(
        self,
        system: str,
        config_obj: Dict[str, Any],
        label: str = "",
    ) -> Dict[str, Any]:
        """Run a full campaign manager-side, fanning experiments out to the
        agent fleet through the shared queue.

        The pipeline runs in a background thread with a
        :class:`~repro.service.remote.RemoteExecutor` over the in-process
        transport; its progress (stage events + per-task completions)
        streams into the campaign's event ring.
        """
        from ..systems import get_system

        spec = get_system(system)  # raises UnknownSystem before thread start
        config = CSnakeConfig.from_dict(config_obj)
        with self._cond:
            self._next_campaign += 1
            campaign_id = "campaign-%d" % self._next_campaign
            campaign = _Campaign(campaign_id, system, label)
            self._campaigns[campaign_id] = campaign
            self._emit(campaign, "campaign_submitted", system=system, label=label)
        threading.Thread(
            target=self._run_campaign,
            args=(campaign_id, spec, config),
            name="repro-%s" % campaign_id,
            daemon=True,
        ).start()
        return {"campaign": campaign_id}

    def _run_campaign(self, campaign_id: str, spec: Any, config: Any) -> None:
        from ..pipeline import Pipeline
        from .remote import RemoteExecutor

        def to_ring(event: Any) -> None:
            with self._cond:
                self._emit(self._campaigns[campaign_id], event.kind, **event.detail())

        executor = RemoteExecutor(self, campaign=campaign_id)
        try:
            ctx = Pipeline(spec, config, executor=executor, observers=[to_ring]).run()
            report = ctx.get("report").to_dict()
            digest = campaign_digest(ctx)
            with self._cond:
                campaign = self._campaigns[campaign_id]
                campaign.state = "done"
                campaign.report = report
                campaign.digest = digest
                campaign.summary = dict(report.get("summary", {}))
                self._emit(
                    campaign, "campaign_done", digest=digest, summary=campaign.summary
                )
        except Exception as exc:  # noqa: BLE001 - campaign threads must not die silently
            with self._cond:
                campaign = self._campaigns[campaign_id]
                campaign.state = "failed"
                campaign.error = "%s: %s" % (type(exc).__name__, exc)
                self._emit(campaign, "campaign_failed", error=campaign.error)

    def campaign_status(self, campaign_id: str, wait_s: float = 0.0) -> Dict[str, Any]:
        """The campaign's status, long-polling up to ``wait_s`` for it to
        leave ``running``."""
        with self._cond:
            self._requests["status"] += 1
            campaign = self._campaign(campaign_id)
            self._wait(wait_s, lambda _: campaign.state != "running")
            return {
                "campaign": campaign.campaign_id,
                "system": campaign.system,
                "label": campaign.label,
                "state": campaign.state,
                "error": campaign.error,
                "digest": campaign.digest,
                "summary": campaign.summary,
                "tasks": {"done": campaign.tasks_done, "total": campaign.tasks_total},
                "events": campaign.next_seq,
            }

    def campaign_report(self, campaign_id: str) -> Optional[Dict[str, Any]]:
        with self._cond:
            return self._campaign(campaign_id).report

    def campaign_events(
        self, campaign_id: str, after: int = 0, wait_s: float = 0.0
    ) -> Dict[str, Any]:
        """Events with ``seq >= after``; long-polls up to ``wait_s`` when
        none are buffered yet and the campaign is still running."""
        with self._cond:
            self._requests["events"] += 1
            campaign = self._campaign(campaign_id)
            self._wait(wait_s, lambda _: campaign.next_seq > after or campaign.state != "running")
            return {
                "events": [e for e in campaign.events if e["seq"] >= after],
                "next": campaign.next_seq,
                "state": campaign.state,
            }

    def list_campaigns(self) -> Dict[str, Any]:
        with self._cond:
            return {
                "campaigns": [
                    {
                        "campaign": c.campaign_id,
                        "system": c.system,
                        "state": c.state,
                        "tasks": {"done": c.tasks_done, "total": c.tasks_total},
                    }
                    for _, c in sorted(self._campaigns.items())
                ]
            }

    # ------------------------------------------------------------- metrics

    def stats(self) -> Dict[str, Any]:
        with self._cond:
            now = self._clock()
            self._reap(now)
            tasks = list(self._tasks.values())
            done = [t for t in tasks if t.state == "done"]
            waits = [
                (t.leased_at or t.enqueued_at) - t.enqueued_at for t in done
            ]
            return {
                "protocol": PROTOCOL,
                "uptime_s": round(now - self.started_at, 3),
                "lease_ttl_s": self.lease_ttl_s,
                "requests": dict(self._requests),
                "agents": [
                    {
                        "agent": a.agent_id,
                        "name": a.name,
                        "workers": a.workers,
                        "completed": a.completed,
                        "cache": a.cache,
                    }
                    for _, a in sorted(self._agents.items())
                ],
                "tasks": {
                    "total": len(tasks),
                    "queued": sum(1 for t in tasks if t.state == "queued"),
                    "leased": sum(1 for t in tasks if t.state == "leased"),
                    "done": len(done),
                    "failed": sum(1 for t in tasks if t.state == "failed"),
                    "executed": self._executed,
                    "deduped": sum(1 for t in tasks if len(t.campaigns) > 1),
                    "requeued": self._requeued,
                    "evicted": self._evicted,
                    "code_mismatch": self._code_mismatch,
                },
                "queue_wait_s": {
                    "mean": round(sum(waits) / len(waits), 6) if waits else 0.0,
                    "max": round(max(waits), 6) if waits else 0.0,
                },
                "campaigns": self.list_campaigns()["campaigns"],
            }


def follow_campaign(transport: Any, campaign_id: str, after: int = 0) -> Iterator[Dict[str, Any]]:
    """A campaign's events from ``seq >= after`` on, long-polling, until it
    has left ``running`` and every event it emitted has been yielded.  It is
    the one reader of the event feed.

    ``transport`` is a :class:`ManagerCore` or an
    :class:`~repro.service.http.HttpTransport`; both answer
    ``campaign_events``.  An unknown campaign is a :class:`ReproError`.
    """
    while True:
        reply = transport.campaign_events(campaign_id, after=after, wait_s=10.0)
        yield from reply["events"]
        after = reply["next"]
        if reply["state"] != "running" and not reply["events"]:
            return


def campaign_digest(ctx: Any) -> str:
    """The campaign identity digest: report JSON + full edge DB.

    Matches the convention of the benchmark suite and the parity
    integration tests, so "remote ≡ serial" means the same bytes
    everywhere it is asserted.
    """
    from ..serialize import edge_to_obj

    report = ctx.get("report").to_dict()
    edges = [edge_to_obj(e) for e in ctx.driver.edges.all_edges()]
    return hashlib.sha256(
        json.dumps({"report": report, "edges": edges}, sort_keys=True).encode()
    ).hexdigest()
