"""Unit tests for the campaign service core (repro.service).

Everything here runs without sockets: :class:`ManagerCore` takes an
injected clock, so lease-expiry and re-queue behaviour is tested by
advancing a counter, never by sleeping; the executor tests hand the
executor the core itself, as manager-side campaigns do.
"""

import dataclasses
import json
import re

import pytest

from repro.cache import ResultKey
from repro.config import CSnakeConfig
from repro.core.driver import ExperimentTask
from repro.errors import ReproError
from repro.instrument.plan import InjectionPlan
from repro.serialize import task_from_obj, task_to_obj
from repro.service.manager import ManagerCore
from repro.service.remote import RemoteExecutor
from repro.systems import get_system
from repro.types import DELAY, FaultKey

TOY = get_system("toy")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _key(task):
    """A task's result key, computed as its submitting driver would."""
    config = CSnakeConfig.from_dict(json.loads(task.config_json))
    return ResultKey(TOY, config)(task.test_id, task.fault, task.plans)


def _task_obj(fault=FaultKey("svc.loop", DELAY), test_id="t1", seed=7, **config):
    """A minimal wire-form task, stamped with its key; config defaults to
    result-affecting only."""
    cfg = {"seed": seed}
    cfg.update(config)
    task = ExperimentTask("toy", test_id, json.dumps(cfg, sort_keys=True), fault)
    return task_to_obj(dataclasses.replace(task, key=_key(task)))


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def core(clock):
    return ManagerCore(lease_ttl_s=10.0, clock=clock)


def _deliver(core, agent, task_id, **outcome):
    """Deliver one outcome the way an agent does, on a lease that leases
    nothing; returns the lease's reply."""
    return core.lease(agent, max_tasks=0, outcomes=[dict(outcome, id=task_id)])


# ------------------------------------------------------------------ queue


def test_lease_complete_happy_path(core):
    agent = core.register_agent(name="a", workers=2)["agent"]
    ids = core.submit_tasks([_task_obj(test_id="t1"), _task_obj(test_id="t2")])["ids"]
    leased = core.lease(agent, max_tasks=4)["tasks"]
    assert [e["id"] for e in leased] == ids  # FIFO
    outcomes = [{"id": entry["id"], "result": {"ok": 1}} for entry in leased]
    assert core.lease(agent, max_tasks=4, outcomes=outcomes) == {"tasks": [], "duplicates": 0}
    assert core.wait_tasks(ids) == [{"result": {"ok": 1}}] * 2
    stats = core.stats()["tasks"]
    assert stats == {
        "total": 2, "queued": 0, "leased": 0, "done": 2, "failed": 0,
        "executed": 2, "deduped": 0, "requeued": 0, "evicted": 0, "code_mismatch": 0,
    }


def test_unknown_agent_must_reregister(core):
    with pytest.raises(ReproError):
        core.lease("agent-99")


def test_expired_lease_requeues_for_surviving_agents(core, clock):
    dying = core.register_agent(name="dying")["agent"]
    ids = core.submit_tasks([_task_obj()])["ids"]
    assert [e["id"] for e in core.lease(dying, max_tasks=1)["tasks"]] == ids
    clock.advance(11.0)  # past the 10s TTL: the reaper reclaims the lease
    survivor = core.register_agent(name="survivor")["agent"]
    reclaimed = core.lease(survivor, max_tasks=1)["tasks"]
    assert [e["id"] for e in reclaimed] == ids
    assert core.stats()["tasks"]["requeued"] == 1
    with pytest.raises(ReproError):
        core.lease(dying)  # the dead agent was forgotten entirely


def test_an_empty_lease_extends_the_lease_across_the_ttl(core, clock):
    agent = core.register_agent()["agent"]
    ids = core.submit_tasks([_task_obj()])["ids"]
    core.lease(agent, max_tasks=1)
    clock.advance(8.0)
    assert core.lease(agent, max_tasks=0) == {"tasks": [], "duplicates": 0}
    clock.advance(8.0)  # 16s total — but the lease at t=8 renewed to t=18
    assert _deliver(core, agent, ids[0], result={"ok": 1})["duplicates"] == 0
    assert core.stats()["tasks"]["requeued"] == 0


def test_a_lease_of_zero_tasks_never_leases(core):
    agent = core.register_agent()["agent"]
    ids = core.submit_tasks([_task_obj(test_id="t1"), _task_obj(test_id="t2")])["ids"]
    for wait_s in (0.0, 30.0):  # returns at once: the fake clock never moves
        assert core.lease(agent, max_tasks=0, wait_s=wait_s)["tasks"] == []
    assert core.stats()["tasks"]["queued"] == 2
    assert [e["id"] for e in core.lease(agent, max_tasks=2)["tasks"]] == ids


def test_a_lease_counts_as_an_agent_request(core):
    agent = core.register_agent()["agent"]
    core.lease(agent, max_tasks=0)
    core.lease(agent, max_tasks=1)
    core.register_agent()
    assert core.stats()["requests"] == {"register": 2, "lease": 2, "status": 0, "events": 0}


def test_late_result_from_reaped_agent_is_first_completion_wins(core, clock):
    slow = core.register_agent(name="slow")["agent"]
    ids = core.submit_tasks([_task_obj()])["ids"]
    core.lease(slow, max_tasks=1)
    clock.advance(11.0)
    fast = core.register_agent(name="fast")["agent"]
    core.lease(fast, max_tasks=1)
    assert _deliver(core, fast, ids[0], result={"ok": 1})["duplicates"] == 0
    # The reaped agent finishes the work it still held: deterministic
    # execution makes the race benign, and the duplicate is absorbed —
    # before the lease it asked for is refused.
    with pytest.raises(ReproError, match="re-register"):
        _deliver(core, slow, ids[0], result={"ok": 1})
    assert core.stats()["tasks"]["executed"] == 1
    again = core.register_agent(name="slow")["agent"]
    assert _deliver(core, again, ids[0], result={"ok": 1})["duplicates"] == 1


def test_a_lapsed_agents_result_is_accepted(core, clock):
    lapsed = core.register_agent(name="lapsed")["agent"]
    ids = core.submit_tasks([_task_obj()])["ids"]
    core.lease(lapsed, max_tasks=1)
    clock.advance(11.0)
    survivor = core.register_agent(name="survivor")["agent"]  # reaps: the task is re-queued
    with pytest.raises(ReproError, match="re-register"):
        _deliver(core, lapsed, ids[0], result={"ok": 1})
    assert core.wait_tasks(ids) == [{"result": {"ok": 1}}]
    assert core.lease(survivor, max_tasks=1)["tasks"] == []  # never re-executed
    stats = core.stats()["tasks"]
    assert stats["requeued"] == 1 and stats["executed"] == 1 and stats["done"] == 1


def test_failed_task_retries_on_fresh_submission(core):
    agent = core.register_agent()["agent"]
    ids = core.submit_tasks([_task_obj()])["ids"]
    core.lease(agent, max_tasks=1)
    _deliver(core, agent, ids[0], error="boom")
    assert core.wait_tasks(ids) == [{"error": "boom"}]
    assert core.submit_tasks([_task_obj()])["ids"] == ids
    retried = core.lease(agent, max_tasks=1)["tasks"]
    assert [e["id"] for e in retried] == ids
    assert _deliver(core, agent, ids[0], result={"ok": 1})["duplicates"] == 0
    assert core.wait_tasks(ids) == [{"result": {"ok": 1}}]


def test_finished_tasks_are_a_bounded_ring(core, monkeypatch):
    """Queued and leased tasks plus the newest ``FINISHED_TASKS`` finished
    ones: ten times the ring's size of distinct tasks leaves the table
    bounded, every result reads back as completed, and a task that left
    the ring runs again when resubmitted."""
    from repro.service import manager as manager_module

    ring = 3
    monkeypatch.setattr(manager_module, "FINISHED_TASKS", ring)
    agent = core.register_agent()["agent"]
    first = None
    for i in range(10 * ring):
        ids = core.submit_tasks([_task_obj(test_id="t%d" % i)])["ids"]
        first = first or ids
        assert len(core._tasks) <= ring + 1
        (entry,) = core.lease(agent, max_tasks=1)["tasks"]
        _deliver(core, agent, entry["id"], result={"i": i})
        assert core.wait_tasks(ids) == [{"result": {"i": i}}]
    stats = core.stats()["tasks"]
    assert stats["evicted"] == 10 * ring - (ring + 1)
    assert stats["total"] == ring + 1 and stats["executed"] == 10 * ring
    with pytest.raises(ReproError):
        core.wait_tasks(first)
    assert core.submit_tasks([_task_obj(test_id="t0")])["ids"] == first
    assert [e["id"] for e in core.lease(agent, max_tasks=1)["tasks"]] == first


def test_wait_for_an_unknown_task_raises(core):
    with pytest.raises(ReproError):
        core.wait_tasks(["nope"])


# ------------------------------------------------------------------ dedup


def test_result_key_strips_execution_only_knobs():
    base = _task_obj()["key"]
    for knob, value in (
        ("experiment_workers", 7),
        ("experiment_backend", "process"),
        ("cache_dir", "/tmp/elsewhere"),
    ):
        assert _task_obj(**{knob: value})["key"] == base, knob
    assert _task_obj(seed=8)["key"] != base
    assert _task_obj(fault=None)["key"] != base
    assert _task_obj(test_id="t2")["key"] != base


def test_identical_submissions_share_one_queue_entry(core):
    agent = core.register_agent()["agent"]
    a = core.submit_tasks([_task_obj()])["ids"]
    b = core.submit_tasks([_task_obj(experiment_workers=5)])["ids"]
    assert a == b
    assert core.lease(agent, max_tasks=4)["tasks"] != []
    assert core.lease(agent, max_tasks=4)["tasks"] == []  # nothing left
    _deliver(core, agent, a[0], result={"ok": 1})
    assert core.stats()["tasks"]["total"] == 1
    assert core.stats()["tasks"]["executed"] == 1


# ------------------------------------------------------------------ codecs


def _sample_tasks():
    fault = FaultKey("svc.handle.scan", DELAY)
    return [
        ExperimentTask("toy", "t1", '{"seed": 7}', None, ()),
        ExperimentTask(
            "toy", "t2", '{"seed": 7}', fault,
            (InjectionPlan(fault, delay_ms=500.0, warmup_ms=1000.0),),
        ),
        ExperimentTask(
            "toy", "t3", '{"seed": 9}',
            FaultKey("env.link.a~b", "msg_drop"),
            (InjectionPlan(
                FaultKey("env.link.a~b", "msg_drop"),
                params=(("drop_p", 0.3),),
            ),),
        ),
    ]


@pytest.mark.parametrize("task", _sample_tasks(), ids=lambda t: t.test_id)
def test_task_wire_roundtrip(task):
    obj = task_to_obj(task)
    assert json.loads(json.dumps(obj)) == obj  # JSON-clean
    assert task_from_obj(obj) == task
    # An agent recomputes the key from the decoded task: the wire must not
    # move it.
    assert _key(task_from_obj(obj)) == _key(task)


# ---------------------------------------------------------------- executor
#
# These tests long-poll, so they run against a real-clock core (the
# injected-clock fixture would keep every poll deadline forever distant).


def test_remote_executor_rejects_adhoc_callables():
    executor = RemoteExecutor(ManagerCore())
    with pytest.raises(ReproError, match="ExperimentTask descriptors only"):
        executor.map(len, [[1], [2]])


def test_remote_executor_propagates_task_errors():
    import threading

    from repro.core.driver import execute_experiment_task

    live = ManagerCore()
    executor = RemoteExecutor(live, campaign=None)
    task = ExperimentTask("toy", "t1", '{"seed": 7}', None, ())

    def serve_one_error():
        agent = live.register_agent(name="err")["agent"]
        entry = live.lease(agent, max_tasks=1, wait_s=5.0)["tasks"][0]
        _deliver(live, agent, entry["id"], error="RuntimeError: kaboom")

    thread = threading.Thread(target=serve_one_error, daemon=True)
    thread.start()
    with pytest.raises(ReproError, match="kaboom"):
        executor.map(execute_experiment_task, [task])
    thread.join(timeout=5.0)


def test_remote_executor_timeout_without_agents():
    from repro.core.driver import execute_experiment_task

    executor = RemoteExecutor(ManagerCore(), timeout_s=0.2)
    task = ExperimentTask("toy", "t1", '{"seed": 7}', None, ())
    with pytest.raises(ReproError, match="stalled"):
        executor.map(execute_experiment_task, [task])


class _Waiting:
    """A :class:`ManagerCore` that records the ids of every ``wait_tasks``
    call."""

    def __init__(self, core):
        self.core = core
        self.waits = []

    def __getattr__(self, name):
        return getattr(self.core, name)

    def wait_tasks(self, ids, stall_s=None):
        self.waits.append(list(ids))
        return self.core.wait_tasks(ids, stall_s=stall_s)


def _keyed_tasks(*test_ids):
    tasks = [ExperimentTask("toy", t, '{"seed": 7}', None, ()) for t in test_ids]
    return [dataclasses.replace(t, key=_key(t)) for t in tasks]


def _echo_results(monkeypatch):
    """Results decode to themselves, so a test's fake results need not be
    run groups."""
    from repro.service import remote as remote_mod

    monkeypatch.setattr(remote_mod, "task_result_from_obj", lambda obj: obj)


def test_remote_executor_waits_once_per_batch(monkeypatch):
    """Tasks that resolve one at a time, and an id repeated within a
    batch, still cost one ``wait_tasks`` call per ``map``, and the results
    come back in input order."""
    import threading
    import time

    from repro.core.driver import execute_experiment_task

    _echo_results(monkeypatch)
    core = ManagerCore()
    batches = [_keyed_tasks("t1", "t2", "t1"), _keyed_tasks("t3", "t4")]

    def serve_one_at_a_time():
        agent = core.register_agent(name="slow")["agent"]
        for _ in range(4):
            (entry,) = core.lease(agent, max_tasks=1, wait_s=5.0)["tasks"]
            time.sleep(0.05)
            _deliver(core, agent, entry["id"], result={"test": entry["task"]["test_id"]})

    thread = threading.Thread(target=serve_one_at_a_time, daemon=True)
    thread.start()
    waiting = _Waiting(core)
    executor = RemoteExecutor(waiting)
    outs = [executor.map(execute_experiment_task, batch) for batch in batches]
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert outs == [[{"test": t.test_id} for t in batch] for batch in batches]
    assert waiting.waits == [[t.key for t in batch] for batch in batches]


def test_a_stall_is_time_without_progress(clock):
    """``wait_tasks`` gives up ``stall_s`` after the last task of the batch
    resolved, not after the call began."""
    import threading
    import time

    core = ManagerCore(lease_ttl_s=1000.0, clock=clock)
    agent = core.register_agent()["agent"]
    ids = core.submit_tasks([_task_obj(test_id="t1"), _task_obj(test_id="t2")])["ids"]
    core.lease(agent, max_tasks=2)

    def resolve_slowly():
        clock.advance(20.0)
        _deliver(core, agent, ids[0], result={"n": 1})
        time.sleep(0.1)
        clock.advance(20.0)  # 40 s since the call, 20 s since progress
        time.sleep(0.6)  # the waiter wakes at least once at that time
        _deliver(core, agent, ids[1], result={"n": 2})

    thread = threading.Thread(target=resolve_slowly, daemon=True)
    thread.start()
    assert core.wait_tasks(ids, stall_s=30.0) == [{"result": {"n": 1}}, {"result": {"n": 2}}]
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    threading.Timer(0.1, clock.advance, args=(31.0,)).start()
    ids = core.submit_tasks([_task_obj(test_id="t3")])["ids"]
    with pytest.raises(ReproError, match="stalled: 1/1 tasks unresolved after 30s"):
        core.wait_tasks(ids, stall_s=30.0)
    assert core._watchers == {}  # a stalled wait stops watching its tasks


class _CountedTasks(dict):
    """The manager's task table, counting lookups by id."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_a_wake_up_costs_what_resolved_since_the_last(core):
    """200 tasks resolve one at a time with a stage event (one more
    wake-up) after each: the waiter looks each task up a bounded number of
    times, not once per still-pending task on every wake-up (n²/2)."""
    import threading
    import time

    from repro.service.manager import _Campaign

    n = 200
    agent = core.register_agent()["agent"]
    ids = core.submit_tasks([{"key": "task-%d" % i} for i in range(n)])["ids"]
    core.lease(agent, max_tasks=n)
    campaign = _Campaign("c", "toy", "toy")
    core._tasks = counted = _CountedTasks(core._tasks)
    got = []
    waiter = threading.Thread(target=lambda: got.append(core.wait_tasks(ids)), daemon=True)
    waiter.start()
    deadline = time.monotonic() + 10.0
    while counted.lookups < n and time.monotonic() < deadline:
        time.sleep(0.001)  # the waiter has looked at the batch once
    for i, task_id in enumerate(ids):
        _deliver(core, agent, task_id, result={"n": i})
        with core._cond:
            core._emit(campaign, "stage_finished", stage="s")
        time.sleep(0.001)  # the waiter wakes in between
    waiter.join(timeout=10.0)
    assert not waiter.is_alive()
    assert got == [[{"result": {"n": i}} for i in range(n)]]
    assert counted.lookups <= 3 * n, counted.lookups
    assert core._watchers == {}


# -------------------------------------------------------------- campaigns


def _scripted_campaign(tasks=0, gate=None):
    """A ``ManagerCore._run_campaign`` that runs no pipeline: it puts
    ``tasks`` no-op tasks through the queue one at a time on an agent of its
    own, waits for ``gate`` if given, and ends the campaign."""
    import time

    def run(self, campaign_id, spec, config):
        objs = [{"key": "%s-%d" % (campaign_id, i)} for i in range(tasks)]
        ids = self.submit_tasks(objs, campaign=campaign_id)["ids"]
        agent = self.register_agent(name="scripted")["agent"]
        for task_id in ids:
            self.lease(agent, max_tasks=1)
            time.sleep(0.002)
            _deliver(self, agent, task_id, result={})
        if gate is not None:
            gate.wait(timeout=30.0)
        with self._cond:
            campaign = self._campaigns[campaign_id]
            campaign.state = "done"
            self._emit(campaign, "campaign_done", digest="d", summary={})

    return run


def test_campaign_status_waits_for_the_end_or_the_wait(core, clock, monkeypatch):
    """Under the injected clock, ``campaign_status(id, wait_s)`` returns a
    running campaign once the clock passes the wait, and a campaign that
    ends while it waits as soon as it ends."""
    import threading

    gate = threading.Event()
    monkeypatch.setattr(ManagerCore, "_run_campaign", _scripted_campaign(gate=gate))
    campaign = core.start_campaign("toy", {})["campaign"]
    assert core.campaign_status(campaign)["state"] == "running"  # no wait: at once
    threading.Timer(0.1, clock.advance, args=(31.0,)).start()
    assert core.campaign_status(campaign, wait_s=30.0)["state"] == "running"
    threading.Timer(0.1, gate.set).start()  # the fake clock never reaches this wait
    assert core.campaign_status(campaign, wait_s=3600.0)["state"] == "done"
    assert core.stats()["requests"]["status"] == 3


# -------------------------------------------------------------- HTTP framing
#
# Through a real ``ManagerServer`` on an ephemeral localhost port: what a
# malformed request gets back is decided in the HTTP shim, not the core.


@pytest.fixture()
def http():
    from repro.service.http import HttpTransport, ManagerServer

    with ManagerServer(ManagerCore(), port=0) as server:
        yield HttpTransport(server.url, timeout_s=5.0)


def test_list_campaigns_is_the_get_the_route_table_documents(http):
    assert http.list_campaigns() == {"campaigns": []}


def _leasing(outcomes):
    """A lease request body carrying ``outcomes``."""
    return {"agent": "agent-1", "max_tasks": 0, "outcomes": outcomes}


@pytest.mark.parametrize(
    "path,payload,named",
    [
        ("/api/agents/lease", {}, "'agent'"),
        ("/api/agents/lease", {"agent": "agent-1", "max_tasks": "many"}, "'max_tasks'"),
        ("/api/agents/lease", _leasing({"id": "x"}), "'outcomes'"),
        ("/api/agents/lease", _leasing([{"result": {}}]), "'outcomes[0]'"),
        ("/api/agents/lease", _leasing([{"id": 7, "error": "e"}]), "'outcomes[0]'"),
        ("/api/agents/lease", _leasing(["abc"]), "'outcomes[0]'"),
        ("/api/agents/lease", _leasing([{"id": "x"}]), "'outcomes[0]'"),
        ("/api/agents/lease", _leasing([{"id": "x", "result": {}, "error": "e"}]), "'outcomes[0]'"),
        ("/api/agents/lease", _leasing([{"id": "x", "error": 3}]), "'outcomes[0]'"),
        ("/api/campaigns", {"system": "toy"}, "'config'"),
        ("/api/campaigns/campaign-1/events?after=x", None, "'after'"),
        ("/api/campaigns/campaign-1?wait=soon", None, "'wait'"),
        ("/api/agents/lease", [1, 2], "JSON object"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_missing_or_mistyped_request_field_is_a_400_naming_it(http, path, payload, named):
    with pytest.raises(ReproError, match="replied 400.*%s" % re.escape(named)):
        http._call(path, payload)


def test_a_quiet_follow_reads_no_event_and_waits_per_status_request(monkeypatch):
    """`repro submit --wait` without `-v` or `--follow` long-polls the
    campaign's status over HTTP: it makes no ``/events`` request, and as
    many status requests for 200 tasks as for 10."""
    from repro.cli import _follow_campaign
    from repro.service.http import HttpTransport, ManagerServer

    status_requests = []
    for tasks in (10, 200):
        monkeypatch.setattr(ManagerCore, "_run_campaign", _scripted_campaign(tasks))
        with ManagerServer(ManagerCore(), port=0) as server:
            http = HttpTransport(server.url, timeout_s=5.0)
            campaign = http.start_campaign("toy", {})["campaign"]
            status = _follow_campaign(http, campaign, verbose=False, quiet=True)
            requests = server.core.stats()["requests"]
        assert status["state"] == "done"
        assert status["tasks"] == {"done": tasks, "total": tasks}
        assert requests["events"] == 0
        status_requests.append(requests["status"])
    assert status_requests[0] == status_requests[1] == 1


def test_a_quiet_follow_refuses_a_manager_on_another_protocol(http, monkeypatch):
    """A manager that would not wait on ``?wait=`` is refused, not spun
    against."""
    from repro.cli import _follow_campaign

    monkeypatch.setattr(ManagerCore, "stats", lambda self: {"protocol": 3})
    with pytest.raises(ReproError, match="speaks protocol 3; this client speaks protocol 4"):
        _follow_campaign(http, "campaign-1", verbose=False, quiet=True)


def test_the_event_feed_is_the_only_campaign_event_endpoint(http):
    with pytest.raises(ReproError, match="replied 404.*no such endpoint"):
        http._call("/api/campaigns/campaign-1/stream")


@pytest.mark.parametrize(
    "config,named",
    [
        ({"no_such_knob": 1}, "no_such_knob"),
        ({"repeats": "3"}, "repeats"),
        ({"sweep_overrides": [["msg_drop", [5.0]]]}, "sweep_overrides"),
        ([["repeats", 3]], "JSON object"),
        ({"sweep_overrides": [["delay", [1.0]], ["delay", [2.0]]]}, "'delay' twice"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_malformed_campaign_config_is_a_400_and_registers_nothing(http, config, named):
    with pytest.raises(ReproError, match="replied 400.*%s" % named):
        http.start_campaign("toy", config)
    assert http.health()["campaigns"] == [] and http.list_campaigns() == {"campaigns": []}


def test_an_exception_inside_the_core_is_still_a_500(http, monkeypatch):
    def boom(self):
        raise KeyError("agent")  # looks like a missing field; is not one

    monkeypatch.setattr(ManagerCore, "list_campaigns", boom)
    with pytest.raises(ReproError, match="replied 500: KeyError"):
        http.list_campaigns()


def test_a_wire_task_with_a_malformed_config_is_a_named_error():
    from repro.service.agent import execute_wire_task

    for config_json, named in (('{"repeats": "3"}', "repeats"), ('{"no_such_knob": 1}', "no_such_knob")):
        task = task_to_obj(ExperimentTask("toy", "toy.balancer", config_json, None, ()))
        outcome, cache = execute_wire_task(task)
        assert outcome["error"].startswith("ConfigError: ") and named in outcome["error"]
        assert cache is None


def raw_post(url: str, path: str, content_length: int, body: bytes = b"") -> tuple:
    """``(status, JSON body)`` of a POST sent over a plain socket, the write
    side shut after ``body`` whatever ``content_length`` declares."""
    import socket
    import urllib.parse

    address = urllib.parse.urlparse(url)
    with socket.create_connection((address.hostname, address.port), timeout=5.0) as sock:
        head = (
            "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n"
            "Content-Length: %d\r\nConnection: close\r\n\r\n"
            % (path, address.netloc, content_length)
        )
        sock.sendall(head.encode("ascii") + body)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload.decode("utf-8"))


def test_a_raw_request_within_the_limit_is_served(http):
    body = json.dumps({"name": "raw", "workers": 1}).encode("utf-8")
    status, reply = raw_post(http.url, "/api/agents/register", len(body), body)
    assert status == 200 and reply["agent"]
    assert [agent["name"] for agent in http.health()["agents"]] == ["raw"]


def test_a_body_declared_over_the_limit_is_a_413_answered_unread(http):
    from repro.service.http import MAX_REQUEST_BYTES

    for declared in (MAX_REQUEST_BYTES + 1, 10**12):
        status, reply = raw_post(http.url, "/api/agents/register", declared)
        assert status == 413
        limit = "%d bytes exceeds the %d-byte limit" % (declared, MAX_REQUEST_BYTES)
        assert limit in reply["error"]
    assert http.health()["agents"] == []


def test_a_body_shorter_than_its_declared_length_is_a_400(http):
    status, _ = raw_post(http.url, "/api/agents/register", 2 * 10**8, b"{}")
    assert status == 413  # over the limit: refused before the short read
    status, reply = raw_post(http.url, "/api/agents/register", 1000, b"{}")
    assert status == 400 and "ended after 2 of 1000 bytes" in reply["error"]
    assert http.health()["agents"] == []
