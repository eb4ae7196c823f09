"""Unit tests for the campaign service core (repro.service).

Everything here runs without sockets: :class:`ManagerCore` takes an
injected clock, so lease-expiry and re-queue behaviour is tested by
advancing a counter, never by sleeping; the executor tests hand the
executor the core itself, as manager-side campaigns do.
"""

import json

import pytest

from repro.core.driver import ExperimentTask
from repro.errors import ReproError
from repro.instrument.plan import InjectionPlan
from repro.serialize import task_from_obj, task_to_obj
from repro.service.manager import ManagerCore, task_digest
from repro.service.remote import RemoteExecutor
from repro.types import DELAY, FaultKey


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _task_obj(fault="svc.loop:DELAY", test_id="t1", seed=7, **config):
    """A minimal wire-form task; config defaults to result-affecting only."""
    cfg = {"seed": seed}
    cfg.update(config)
    return {
        "system": "toy",
        "test_id": test_id,
        "config_json": json.dumps(cfg, sort_keys=True),
        "fault": fault,
        "plans": [],
    }


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def core(clock):
    return ManagerCore(lease_ttl_s=10.0, clock=clock)


# ------------------------------------------------------------------ queue


def test_lease_complete_happy_path(core):
    agent = core.register_agent(name="a", workers=2)["agent"]
    ids = core.submit_tasks([_task_obj(test_id="t1"), _task_obj(test_id="t2")])["ids"]
    leased = core.lease(agent, max_tasks=4)["tasks"]
    assert [e["id"] for e in leased] == ids  # FIFO
    for entry in leased:
        core.complete(agent, entry["id"], result={"ok": 1})
    reply = core.poll_results(ids)
    assert sorted(reply["done"]) == sorted(ids) and not reply["pending"]
    stats = core.stats()["tasks"]
    assert stats == {
        "total": 2, "queued": 0, "leased": 0, "done": 2, "failed": 0,
        "executed": 2, "deduped": 0, "requeued": 0,
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


def test_heartbeat_extends_lease_across_ttl(core, clock):
    agent = core.register_agent()["agent"]
    ids = core.submit_tasks([_task_obj()])["ids"]
    core.lease(agent, max_tasks=1)
    clock.advance(8.0)
    assert core.heartbeat(agent)["ok"]
    clock.advance(8.0)  # 16s total — but the beat at t=8 renewed to t=18
    assert core.complete(agent, ids[0], result={"ok": 1})["duplicate"] is False
    assert core.stats()["tasks"]["requeued"] == 0


def test_late_result_from_reaped_agent_is_first_completion_wins(core, clock):
    slow = core.register_agent(name="slow")["agent"]
    ids = core.submit_tasks([_task_obj()])["ids"]
    core.lease(slow, max_tasks=1)
    clock.advance(11.0)
    fast = core.register_agent(name="fast")["agent"]
    core.lease(fast, max_tasks=1)
    assert core.complete(fast, ids[0], result={"ok": 1})["duplicate"] is False
    # The reaped agent finishes the work it still held: deterministic
    # execution makes the race benign, and the duplicate is absorbed.
    assert core.complete(slow, ids[0], result={"ok": 1})["duplicate"] is True
    assert core.stats()["tasks"]["executed"] == 1


def test_failed_task_retries_on_fresh_submission(core):
    agent = core.register_agent()["agent"]
    ids = core.submit_tasks([_task_obj()])["ids"]
    core.lease(agent, max_tasks=1)
    core.complete(agent, ids[0], error="boom")
    assert core.poll_results(ids)["done"][ids[0]] == {"error": "boom"}
    assert core.submit_tasks([_task_obj()])["ids"] == ids
    retried = core.lease(agent, max_tasks=1)["tasks"]
    assert [e["id"] for e in retried] == ids
    core.complete(agent, ids[0], result={"ok": 1})
    assert core.poll_results(ids)["done"][ids[0]] == {"result": {"ok": 1}}


def test_poll_unknown_task_raises(core):
    with pytest.raises(ReproError):
        core.poll_results(["nope"])


# ------------------------------------------------------------------ dedup


def test_task_digest_strips_execution_only_knobs():
    base = _task_obj()
    for knob, value in (
        ("experiment_workers", 7),
        ("experiment_backend", "process"),
        ("cache_dir", "/tmp/elsewhere"),
    ):
        assert task_digest(_task_obj(**{knob: value})) == task_digest(base), knob
    assert task_digest(_task_obj(seed=8)) != task_digest(base)
    assert task_digest(_task_obj(fault=None)) != task_digest(base)
    assert task_digest(_task_obj(test_id="t2")) != task_digest(base)


def test_identical_submissions_share_one_queue_entry(core):
    agent = core.register_agent()["agent"]
    a = core.submit_tasks([_task_obj()])["ids"]
    b = core.submit_tasks([_task_obj(experiment_workers=5)])["ids"]
    assert a == b
    assert core.lease(agent, max_tasks=4)["tasks"] != []
    assert core.lease(agent, max_tasks=4)["tasks"] == []  # nothing left
    core.complete(agent, a[0], result={"ok": 1})
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
    assert task_digest(obj) == task_digest(task_to_obj(task_from_obj(obj)))


# ---------------------------------------------------------------- executor
#
# These tests long-poll, so they run against a real-clock core (the
# injected-clock fixture would keep every poll deadline forever distant).


def test_remote_executor_rejects_adhoc_callables():
    executor = RemoteExecutor(ManagerCore())
    with pytest.raises(ReproError, match="ExperimentTask descriptors only"):
        executor.map(len, [[1], [2]])


def test_remote_executor_needs_real_fanout():
    with pytest.raises(ReproError):
        RemoteExecutor(ManagerCore(), max_workers=1)


def test_remote_executor_propagates_task_errors():
    import threading

    from repro.core.driver import execute_experiment_task

    live = ManagerCore()
    executor = RemoteExecutor(live, campaign=None)
    task = ExperimentTask("toy", "t1", '{"seed": 7}', None, ())

    def serve_one_error():
        agent = live.register_agent(name="err")["agent"]
        entry = live.lease(agent, max_tasks=1, wait_s=5.0)["tasks"][0]
        live.complete(agent, entry["id"], error="RuntimeError: kaboom")

    thread = threading.Thread(target=serve_one_error, daemon=True)
    thread.start()
    with pytest.raises(ReproError, match="kaboom"):
        executor.map(execute_experiment_task, [task])
    thread.join(timeout=5.0)


def test_remote_executor_timeout_without_agents(monkeypatch):
    from repro.core.driver import execute_experiment_task
    from repro.service import remote as remote_mod

    monkeypatch.setattr(remote_mod, "POLL_WAIT_S", 0.1)
    executor = RemoteExecutor(ManagerCore(), timeout_s=0.2)
    task = ExperimentTask("toy", "t1", '{"seed": 7}', None, ())
    with pytest.raises(ReproError, match="stalled"):
        executor.map(execute_experiment_task, [task])


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


@pytest.mark.parametrize(
    "path,payload,named",
    [
        ("/api/agents/lease", {}, "'agent'"),
        ("/api/agents/heartbeat", {"cache": None}, "'agent'"),
        ("/api/agents/lease", {"agent": "agent-1", "max_tasks": "many"}, "'max_tasks'"),
        ("/api/campaigns", {"system": "toy"}, "'config'"),
        ("/api/campaigns/campaign-1/events?after=x", None, "'after'"),
        ("/api/agents/lease", [1, 2], "JSON object"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_missing_or_mistyped_request_field_is_a_400_naming_it(http, path, payload, named):
    with pytest.raises(ReproError, match="replied 400.*%s" % named):
        http._call(path, payload)


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
        with pytest.raises(ReproError, match=named):
            task_digest(task)


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
