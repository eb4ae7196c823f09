"""Integration tests for campaign-as-a-service (manager + agents).

Everything here uses the stdlib HTTP server and transport (or a
:class:`ManagerCore` called in-process).  The invariant under test throughout
is the one the executor contract promises: a submitted campaign's digest is
bit-identical to a serial one — cold, warm, and across an agent death
mid-run.
"""

import functools
import os
import subprocess
import sys
import threading
import time
import uuid
from collections import Counter
from pathlib import Path

import pytest

import repro.cache
from repro.config import CSnakeConfig
from repro.core.driver import ExperimentDriver
from repro.errors import ReproError
from repro.pipeline import STAGES, EventRecorder, Pipeline, format_event
from repro.service import agent as agent_module
from repro.service import manager as manager_module
from repro.service.agent import Agent, execute_wire_task
from repro.service.http import HttpTransport, ManagerServer
from repro.service.manager import ManagerCore, campaign_digest, follow_campaign
from repro.service.remote import RemoteExecutor
from repro.systems import get_system
from tests.helpers import agent_thread, edited_source

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Small but non-trivial toy campaign: a few dozen tasks, seconds to run.
CFG = dict(repeats=2, delay_values_ms=(500.0,), seed=3, budget_per_fault=2)


@pytest.fixture(scope="module")
def serial_run():
    """The serial toy campaign's digest and its lifecycle events, as
    ``(kind, detail)`` pairs."""
    recorder = EventRecorder()
    ctx = Pipeline.default(get_system("toy"), CSnakeConfig(**CFG), observers=[recorder]).run()
    return campaign_digest(ctx), [(e.kind, e.detail()) for e in recorder.events]


@pytest.fixture(scope="module")
def serial_digest(serial_run):
    return serial_run[0]


def _progress_lines(events):
    """The ``pipeline_*`` / ``stage_*`` events of ``(kind, detail)`` pairs as
    :func:`format_event` renders them, without label or ``seconds``."""
    return [
        format_event("", kind, {k: v for k, v in detail.items() if k != "seconds"})
        for kind, detail in events
        if kind.startswith(("pipeline_", "stage_"))
    ]


def _record_pid(directory, obj):
    """``execute_wire_task`` that first leaves a file named for the
    process executing it."""
    open(os.path.join(directory, "%d.%s" % (os.getpid(), uuid.uuid4().hex)), "w").close()
    return execute_wire_task(obj)


def _die_once(marker, obj):
    """``execute_wire_task`` whose first call, in whichever worker, exits
    that worker; the marker it leaves lets every later call run."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return execute_wire_task(obj)
    os._exit(1)


def _sleep_then_echo(obj):
    """A stand-in for ``execute_wire_task``: a short task whose result
    names it."""
    time.sleep(0.05)
    return {"result": {"key": obj["key"]}}, None


class _Counting:
    """A :class:`ManagerCore` as one agent sees it, recording which tasks
    the agent holds (leased, not yet delivered) whenever it leases, and
    counting its registrations and the leases that return a task or carry
    an outcome."""

    def __init__(self, core):
        self.core = core
        self.held = set()
        self.held_at_lease = []  # tasks held when each lease was issued
        self.most_held = 0
        self.completions = Counter()
        self.registrations = 0
        self.busy_leases = 0

    def __getattr__(self, name):
        return getattr(self.core, name)

    def register_agent(self, **kwargs):
        self.registrations += 1
        return self.core.register_agent(**kwargs)

    def lease(self, agent_id, max_tasks=1, wait_s=0.0, outcomes=(), cache=None):
        for outcome in outcomes:
            self.held.discard(outcome["id"])
            self.completions[outcome["id"]] += 1
        self.held_at_lease.append(len(self.held))
        reply = self.core.lease(
            agent_id, max_tasks=max_tasks, wait_s=wait_s, outcomes=outcomes, cache=cache
        )
        self.held.update(entry["id"] for entry in reply["tasks"])
        self.most_held = max(self.most_held, len(self.held))
        self.busy_leases += bool(reply["tasks"] or outcomes)
        return reply


class _Blipping:
    """A :class:`ManagerCore` behind a link that fails the first
    ``failures`` ``lease`` and ``register_agent`` calls after the agent's
    start-up registration, as a manager restart or a network blip would."""

    BLIPPED = ("lease", "register_agent")

    def __init__(self, core, failures=2):
        self.core = core
        self.failures = failures
        self.started = False
        self.calls = Counter()

    def __getattr__(self, name):
        method = getattr(self.core, name)
        if name not in self.BLIPPED:
            return method

        def call(*args, **kwargs):
            if self.started:
                self.calls[name] += 1
                if self.calls[name] <= self.failures:
                    raise ReproError("manager unreachable (%s #%d)" % (name, self.calls[name]))
            self.started = True
            return method(*args, **kwargs)

        return call


def _submitted(transport, **config):
    """Submit the toy campaign over ``transport`` and wait for it; returns
    its final status."""
    campaign = transport.start_campaign("toy", dict(CFG, **config))["campaign"]
    for _ in follow_campaign(transport, campaign):
        pass
    return transport.campaign_status(campaign)


def test_submitted_campaign_over_stdlib_http_matches_serial(serial_digest, tmp_path):
    """Cold and warm submitted campaigns over real HTTP ≡ serial, and the
    shared experiment cache short-circuits the warm run's agent-side work."""
    cache_dir = str(tmp_path / "cache")
    with ManagerServer(port=0) as server:
        transport = HttpTransport(server.url)
        agent, thread = agent_thread(transport, workers=2, name="it-a")
        try:
            # The profiles are already in the shared cache (an earlier
            # local campaign over the same config put them there), so the
            # agent replays them when it executes the cold experiments.
            ExperimentDriver(
                get_system("toy"), CSnakeConfig(cache_dir=cache_dir, **CFG)
            ).profile_all()
            cold = _submitted(transport, cache_dir=cache_dir)
            assert cold["state"] == "done", cold
            assert cold["digest"] == serial_digest
            executed = server.core.stats()["tasks"]["executed"]
            warm = _submitted(transport, cache_dir=cache_dir)
            assert warm["digest"] == serial_digest
        finally:
            agent.stop()
            thread.join(timeout=10.0)
        # The agent executed the cold run's experiments over replayed
        # profiles, each storing exactly one entry; the manager memoized
        # them, so the warm run executed none.  Its counters, summed over
        # both workers, travel back with every lease.
        stats = server.core.stats()
        fleet = {a["name"]: a["cache"] for a in stats["agents"]}
        assert stats["tasks"]["executed"] == executed > 0
        assert fleet["it-a"]["stores"] == executed
        assert fleet["it-a"]["hits"] > 0
    assert stats["tasks"]["executed"] == stats["tasks"]["total"]
    assert stats["tasks"]["queued"] == stats["tasks"]["leased"] == 0


def test_agent_death_mid_run_is_absorbed(serial_digest):
    """An agent that leases a batch and vanishes without another request
    (``fail_after_tasks``) must not change the outcome: the
    reaper re-queues its held tasks for the survivor and the campaign
    digest stays identical to serial.  The survivor starts only once the
    doomed agent has vanished holding its lease: alone, the doomed agent
    leases every task, so a lease after its third completion brings
    tasks whatever the timing, and no race with the survivor decides
    whether the hook fires."""
    core = ManagerCore(lease_ttl_s=1.5)
    with ManagerServer(core=core, port=0) as server:
        transport = HttpTransport(server.url)
        doomed, doomed_thread = agent_thread(
            HttpTransport(server.url), workers=2, name="doomed",
            fail_after_tasks=3,
        )
        campaign = transport.start_campaign("toy", CFG)["campaign"]
        doomed_thread.join(timeout=60.0)
        assert doomed.died, "the fail_after_tasks hook never fired"
        survivor, survivor_thread = agent_thread(
            HttpTransport(server.url), workers=2, name="survivor"
        )
        try:
            for _ in follow_campaign(transport, campaign):
                pass
            status = transport.campaign_status(campaign)
            assert status["state"] == "done", status
            assert status["digest"] == serial_digest
        finally:
            survivor.stop()
            survivor_thread.join(timeout=10.0)
        stats = core.stats()
        assert stats["tasks"]["requeued"] > 0, "the reaper never reclaimed a lease"
        assert stats["tasks"]["queued"] == stats["tasks"]["leased"] == 0


def test_an_agent_executes_its_tasks_on_its_worker_processes(serial_digest, tmp_path, monkeypatch):
    """An agent with two workers runs its leased tasks on two worker
    processes, never on its own; the digest stays serial's."""
    monkeypatch.setattr(
        agent_module, "execute_wire_task", functools.partial(_record_pid, str(tmp_path))
    )
    core = ManagerCore(lease_ttl_s=10.0)
    agent, thread = agent_thread(core, workers=2, name="pids")
    try:
        status = _submitted(core)
    finally:
        agent.stop()
        thread.join(timeout=10.0)
    assert status["state"] == "done", status
    assert status["digest"] == serial_digest
    pids = [int(name.split(".")[0]) for name in os.listdir(tmp_path)]
    assert len(pids) == core.stats()["tasks"]["executed"] > 0
    assert len(set(pids)) >= 2
    assert os.getpid() not in pids


def test_a_worker_that_dies_mid_batch_does_not_end_the_agent(serial_digest, tmp_path, monkeypatch):
    """A worker process exits mid-batch: the agent keeps serving on a fresh
    pool, the reaper re-queues the batch it left uncompleted, and the
    campaign still ends with serial's digest."""
    marker = str(tmp_path / "died")
    monkeypatch.setattr(agent_module, "execute_wire_task", functools.partial(_die_once, marker))
    core = ManagerCore(lease_ttl_s=1.5)
    agent, thread = agent_thread(core, workers=2, name="phoenix")
    try:
        status = _submitted(core)
        assert thread.is_alive(), "the agent stopped serving"
    finally:
        agent.stop()
        thread.join(timeout=10.0)
    assert os.path.exists(marker), "no worker ever died"
    assert status["state"] == "done", status
    assert status["digest"] == serial_digest
    assert not agent.died
    stats = core.stats()["tasks"]
    assert stats["requeued"] > 0, "the reaper never reclaimed the dead batch"
    assert stats["queued"] == stats["leased"] == 0


def test_an_agent_streams_a_window_of_twice_its_workers(monkeypatch):
    """The agent keeps at most ``2 × workers`` tasks in flight, leases
    again while some of them still run, delivers every task exactly once,
    and sends no more leases that bring a task or an outcome than it
    completed tasks, plus one per registration."""
    monkeypatch.setattr(agent_module, "execute_wire_task", _sleep_then_echo)
    core = ManagerCore(lease_ttl_s=10.0)
    transport = _Counting(core)
    workers = 2
    agent, thread = agent_thread(transport, workers=workers, name="window")
    try:
        tasks = [{"key": "window-%02d" % i} for i in range(5 * 2 * workers)]
        ids = core.submit_tasks(tasks)["ids"]
        core.wait_tasks(ids, stall_s=60.0)  # raises if the queued tasks stop finishing
    finally:
        agent.stop()
        thread.join(timeout=10.0)
    assert any(transport.held_at_lease), "every lease waited for the last one's tasks"
    assert transport.most_held == agent_module.IN_FLIGHT_PER_WORKER * workers == 2 * workers
    assert transport.completions == Counter({task_id: 1 for task_id in ids})
    assert agent.tasks_completed == len(ids)
    assert transport.busy_leases <= agent.tasks_completed + transport.registrations


def test_a_manager_blip_does_not_end_the_agent(serial_digest, capsys):
    """Failed ``lease`` and re-``register_agent`` calls are re-sent with a
    backoff: the agent keeps serving, delivers every outcome, and the
    campaign ends with serial's digest.  Each outage prints one stderr
    line when a call first fails and one when a call gets through."""
    core = ManagerCore(lease_ttl_s=10.0)
    transport = _Blipping(core)
    agent, thread = agent_thread(transport, workers=2, name="blip")
    try:
        campaign = core.start_campaign("toy", dict(CFG))["campaign"]
        status = core.campaign_status(campaign, wait_s=60.0)
        assert thread.is_alive(), "the agent stopped serving"
    finally:
        agent.stop()
        thread.join(timeout=10.0)
    assert status["state"] == "done", status
    assert status["digest"] == serial_digest
    assert all(transport.calls[name] > 2 for name in _Blipping.BLIPPED), transport.calls
    stats = core.stats()["tasks"]
    assert stats["queued"] == stats["leased"] == 0
    err = capsys.readouterr().err
    assert (
        "agent: lease failed (manager unreachable (lease #1)); retrying in 0.1 s\n" in err
    ), err
    assert "agent: register_agent got through again\n" in err, err


def test_an_agent_whose_manager_stays_down_exits_once_idle():
    """Retries do not outlast ``idle_exit_s``: with every call failing
    after start-up, the agent returns from ``run`` rather than raising or
    retrying for ever."""
    transport = _Blipping(ManagerCore(lease_ttl_s=2.0), failures=10**6)
    agent = Agent(transport, workers=1, name="orphan")
    returned = []
    thread = threading.Thread(
        target=lambda: returned.append(agent.run(idle_exit_s=1.0)), daemon=True
    )
    thread.start()
    thread.join(timeout=30.0)
    assert not thread.is_alive(), "the agent kept retrying past its idle exit"
    assert returned == [0]
    assert transport.calls["register_agent"] > 0


def test_concurrent_campaigns_share_the_queue_without_double_execution():
    """Two identical campaigns submitted to one manager dedup at the task
    queue: every (fault, test) pair executes exactly once, the second
    campaign rides the first one's results, and both reports agree.

    The second campaign differs in an execution-only knob
    (``experiment_workers``) — result-affecting identity, not submitted
    config bytes, is what dedups."""
    core = ManagerCore(lease_ttl_s=10.0)
    agent, thread = agent_thread(core, workers=2, name="shared")
    config_obj = dict(CFG)
    try:
        first = core.start_campaign("toy", config_obj, label="first")["campaign"]
        second = core.start_campaign(
            "toy", dict(config_obj, experiment_workers=5), label="second"
        )["campaign"]
        a = core.campaign_status(first, wait_s=120.0)
        b = core.campaign_status(second, wait_s=120.0)
    finally:
        agent.stop()
        thread.join(timeout=10.0)
    assert a["state"] == "done", a
    assert b["state"] == "done", b
    assert a["digest"] == b["digest"]
    assert a["summary"] == b["summary"]

    stats = core.stats()["tasks"]
    # Exact counters: every unique task executed exactly once, every task
    # was shared by both campaigns, and no lease was ever lost.
    assert stats["executed"] == stats["total"]
    assert stats["deduped"] == stats["total"]
    assert stats["failed"] == 0 and stats["requeued"] == 0
    # Both campaigns observed the full task set as their own progress.
    assert a["tasks"] == {"done": stats["total"], "total": stats["total"]}
    assert b["tasks"] == {"done": stats["total"], "total": stats["total"]}


def test_manager_side_campaign_matches_serial(serial_run):
    """`repro submit` path: a campaign run manager-side over the in-process
    transport produces the serial digest, and its feed carries the serial
    run's stage events as one formatter renders them."""
    core = ManagerCore(lease_ttl_s=10.0)
    agent, thread = agent_thread(core, workers=2, name="evt")
    try:
        campaign = core.start_campaign("toy", dict(CFG), label="evt")["campaign"]
        status = core.campaign_status(campaign, wait_s=120.0)
    finally:
        agent.stop()
        thread.join(timeout=10.0)
    assert status["state"] == "done"
    assert status["digest"] == serial_run[0]
    events = core.campaign_events(campaign, after=0)["events"]
    kinds = [e["kind"] for e in events]
    assert kinds[0] == "campaign_submitted"
    assert kinds[-1] == "campaign_done"
    assert "task_done" in kinds
    # Progress counters in task events are monotonic and end complete.
    dones = [e["detail"]["done"] for e in events if e["kind"] == "task_done"]
    assert dones == sorted(dones)
    assert status["tasks"]["done"] == status["tasks"]["total"] > 0
    # The fleet campaign's lifecycle events are the local serial run's.
    fleet = _progress_lines((e["kind"], e["detail"]) for e in events)
    assert fleet == _progress_lines(serial_run[1])
    assert len(fleet) == 2 + 2 * len(STAGES)


def test_a_campaign_through_a_tiny_finished_ring_matches_serial(serial_digest, monkeypatch):
    """The manager keeps only its newest finished tasks: a campaign of many
    times the ring's size still ends with serial's digest, and the task
    table stays bounded by the ring plus one batch."""
    monkeypatch.setattr(manager_module, "FINISHED_TASKS", 1)
    core = ManagerCore(lease_ttl_s=10.0)
    left_over = []
    submit = core.submit_tasks

    def submit_and_measure(tasks, campaign=None):
        reply = submit(tasks, campaign=campaign)
        left_over.append(len(core._tasks) - len(tasks))
        return reply

    monkeypatch.setattr(core, "submit_tasks", submit_and_measure)
    agent, thread = agent_thread(core, workers=2, name="ring")
    try:
        status = _submitted(core)
    finally:
        agent.stop()
        thread.join(timeout=10.0)
    assert status["state"] == "done", status
    assert status["digest"] == serial_digest
    stats = core.stats()["tasks"]
    assert stats["executed"] >= 10 * 1 and stats["evicted"] > 0
    # beside a submitted batch, the table holds at most the ring
    assert max(left_over) <= 1


def test_an_agent_on_other_code_refuses_every_task(serial_digest, tmp_path, monkeypatch):
    """An agent whose tree keys tasks differently answers each with a
    counted ``code_mismatch`` error, never a result; a resubmission keyed
    by the agent's tree executes and ends with serial's digest (the edit
    is behaviour-neutral)."""
    edited = edited_source(tmp_path / "edited", "systems/toy.py")
    with ManagerServer(port=0) as server:
        core = server.core
        agent = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "agent", "--manager", server.url,
             "--workers", "1", "--idle-exit", "60"],
            env=dict(os.environ, PYTHONPATH=str(edited)),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            unedited = Pipeline(get_system("toy"), CSnakeConfig(**CFG), executor=RemoteExecutor(core))
            with pytest.raises(ReproError, match="code_mismatch: "):
                unedited.run()
            refused = core.stats()["tasks"]
            assert refused["code_mismatch"] == refused["failed"] == refused["total"] > 0

            monkeypatch.setattr(repro.cache, "SOURCE_ROOT", edited)
            ctx = Pipeline(
                get_system("toy"), CSnakeConfig(**CFG), executor=RemoteExecutor(core)
            ).run()
            assert campaign_digest(ctx) == serial_digest
            stats = core.stats()["tasks"]
            assert stats["code_mismatch"] == refused["code_mismatch"]
            assert stats["done"] == stats["executed"] - refused["total"] > 0
        finally:
            agent.terminate()
            agent.wait(timeout=30.0)


def test_http_error_surfaces_as_repro_error():
    with ManagerServer(port=0) as server:
        transport = HttpTransport(server.url)
        assert transport.health()["protocol"] == 4
        with pytest.raises(ReproError):
            transport.campaign_status("campaign-404")
