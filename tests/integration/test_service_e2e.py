"""Integration tests for campaign-as-a-service (manager + agents).

Everything here uses the stdlib HTTP server and transport (or a
:class:`ManagerCore` called in-process).  The invariant under test throughout
is the one the executor contract promises: a submitted campaign's digest is
bit-identical to a serial one — cold, warm, and across an agent death
mid-run.
"""

import functools
import os
import shutil
import subprocess
import sys
import uuid
from pathlib import Path

import pytest

from repro.analysis import TreeSource, analyze_system
from repro.config import CSnakeConfig
from repro.core.driver import ExperimentDriver
from repro.errors import ReproError
from repro.pipeline import STAGES, EventRecorder, Pipeline, format_event
from repro.service import agent as agent_module
from repro.service import manager as manager_module
from repro.service.agent import execute_wire_task
from repro.service.http import HttpTransport, ManagerServer
from repro.service.manager import ManagerCore, campaign_digest, follow_campaign
from repro.service.remote import RemoteExecutor
from repro.systems import get_system
from tests.helpers import agent_thread

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
        # profiles and a replayed slice analysis, each storing exactly one
        # entry; the manager memoized them, so the warm run executed none.
        # Its counters, summed over both workers, travel back with every
        # completion.
        stats = server.core.stats()
        fleet = {a["name"]: a["cache"] for a in stats["agents"]}
        assert stats["tasks"]["executed"] == executed > 0
        assert fleet["it-a"]["stores"] == executed
        assert fleet["it-a"]["hits"] > 0
        assert fleet["it-a"]["slices"] == "replayed"
    assert stats["tasks"]["executed"] == stats["tasks"]["total"]
    assert stats["tasks"]["queued"] == stats["tasks"]["leased"] == 0


def test_agent_death_mid_run_is_absorbed(serial_digest):
    """An agent that leases a batch and vanishes without completing or
    heartbeating (``fail_after_tasks``) must not change the outcome: the
    reaper re-queues its held tasks for the survivor and the campaign
    digest stays identical to serial."""
    core = ManagerCore(lease_ttl_s=1.5)
    with ManagerServer(core=core, port=0) as server:
        doomed, doomed_thread = agent_thread(
            HttpTransport(server.url), workers=2, name="doomed",
            fail_after_tasks=3,
        )
        survivor, survivor_thread = agent_thread(
            HttpTransport(server.url), workers=2, name="survivor"
        )
        try:
            status = _submitted(HttpTransport(server.url))
            assert status["state"] == "done", status
            assert status["digest"] == serial_digest
        finally:
            doomed.stop()
            survivor.stop()
            doomed_thread.join(timeout=10.0)
            survivor_thread.join(timeout=10.0)
        assert doomed.died, "the fail_after_tasks hook never fired"
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
        a = core.wait_campaign(first, timeout_s=120.0)
        b = core.wait_campaign(second, timeout_s=120.0)
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
        status = core.wait_campaign(campaign, timeout_s=120.0)
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


def _toy_copy_with_neutral_edit(dest):
    """A copy of the source tree whose toy module gained one executable,
    behaviour-neutral statement: other code, the same results."""
    shutil.copytree(
        str(REPO_ROOT / "src"), str(dest / "src"), ignore=shutil.ignore_patterns("__pycache__")
    )
    toy = dest / "src" / "repro" / "systems" / "toy.py"
    toy.write_text(toy.read_text(encoding="utf-8") + "\n_EDITED = True\n", encoding="utf-8")
    return dest


def test_an_agent_on_other_code_refuses_every_task(serial_digest, tmp_path):
    """An agent whose tree keys tasks differently answers each with a
    counted ``code_mismatch`` error, never a result; a resubmission keyed
    by the agent's tree executes and ends with serial's digest (the edit
    is behaviour-neutral)."""
    edited = _toy_copy_with_neutral_edit(tmp_path / "edited")
    with ManagerServer(port=0) as server:
        core = server.core
        agent = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "agent", "--manager", server.url,
             "--workers", "1", "--idle-exit", "60"],
            env=dict(os.environ, PYTHONPATH=str(edited / "src")),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            unedited = Pipeline(get_system("toy"), CSnakeConfig(**CFG), executor=RemoteExecutor(core))
            with pytest.raises(ReproError, match="code_mismatch: "):
                unedited.run()
            refused = core.stats()["tasks"]
            assert refused["code_mismatch"] == refused["failed"] == refused["total"] > 0

            spec = get_system("toy")
            spec.attach_slice_analysis(
                analyze_system(spec, TreeSource(edited).sources(spec.source_modules))
            )
            ctx = Pipeline(spec, CSnakeConfig(**CFG), executor=RemoteExecutor(core)).run()
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
        assert transport.health()["protocol"] == 2
        with pytest.raises(ReproError):
            transport.campaign_status("campaign-404")
