#!/usr/bin/env python3
"""CI smoke for campaign-as-a-service (docs/service.md).

Starts a real manager (``repro serve``) and two agents (``repro agent``)
as subprocesses, then submits the miniraft environment-fault campaign to
the manager and asserts the service contract end to end:

0. a submitted campaign whose config is malformed is refused with HTTP 400
   naming the field, and the same manager then serves everything below;
1. a cold campaign produces the serial campaign digest;
2. a warm rerun, submitted with ``repro submit ... --wait --out F``,
   produces it again and writes the serial report to F, and the agents
   report a nonzero cache hit rate back through the manager;
3. a rerun with an extra agent that dies mid-run holding leased tasks
   (``--fail-after``) still completes with the identical digest — lease
   expiry and re-queue absorb the death;
4. every other agent is still serving when it is retired, so one that
   crashed (for one, on forking its worker processes from a process that
   runs a second thread, an error in CI) fails the smoke.

    PYTHONPATH=src python examples/service_smoke.py
"""

import json
import os
import subprocess
import sys
import tempfile
import threading
import time

from repro.config import CSnakeConfig
from repro.errors import ReproError
from repro.faults import expand_kinds
from repro.pipeline import Pipeline
from repro.service.http import HttpTransport
from repro.service.manager import campaign_digest, follow_campaign
from repro.systems import get_system

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: The miniraft environment-fault campaign, smoke-sized: every fault
#: kind (classic + crash/partition/msg_drop) over a one-point sweep.
ENV_CAMPAIGN = dict(
    repeats=2,
    delay_values_ms=(2000.0,),
    seed=7,
    budget_per_fault=2,
    fault_kinds=expand_kinds("all"),
)
#: The same campaign as ``repro submit`` flags.
ENV_CAMPAIGN_FLAGS = (
    "--repeats", "2", "--delays", "2000", "--seed", "7", "--budget", "2",
    "--fault-kinds", "all",
)


def _cli(*argv, **popen_kwargs):
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli"] + list(argv), env=env, **popen_kwargs
    )


def _start_manager():
    """`repro serve --port 0`; returns (process, url) once it is healthy."""
    proc = _cli(
        "serve", "--port", "0", "--lease-ttl", "3",
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline().strip()  # "repro manager listening on URL"
    url = line.rsplit(" ", 1)[-1]
    transport = HttpTransport(url)
    for _ in range(50):
        try:
            assert transport.health()["protocol"] == 4
            break
        except (ReproError, OSError):
            time.sleep(0.1)
    else:
        raise RuntimeError("manager at %s never became healthy" % url)
    print("manager up at %s" % url)
    return proc, url


def _start_agent(url, name, *extra):
    return _cli("agent", "--manager", url, "--workers", "2", "--name", name, *extra)


def _assert_serving(agents):
    for proc in agents:
        assert proc.poll() is None, "an agent exited with %s" % proc.returncode


def _submitted_digest(transport, **overrides):
    """Submit the campaign, wait for it, and return its digest."""
    config = dict(ENV_CAMPAIGN, **overrides)
    campaign = transport.start_campaign("miniraft", config)["campaign"]
    for _ in follow_campaign(transport, campaign):
        pass
    status = transport.campaign_status(campaign)
    assert status["state"] == "done", status
    return status["digest"]


def main() -> int:
    serial_ctx = Pipeline.default(get_system("miniraft"), CSnakeConfig(**ENV_CAMPAIGN)).run()
    serial = campaign_digest(serial_ctx)
    serial_report = json.loads(json.dumps(serial_ctx.get("report").to_dict()))
    print("serial digest %s" % serial[:16])

    workdir = tempfile.mkdtemp(prefix="service-smoke-")
    cache_dir = os.path.join(workdir, "cache")
    manager, url = _start_manager()
    transport = HttpTransport(url)
    agents = [_start_agent(url, "smoke-a"), _start_agent(url, "smoke-b")]
    doomed = None
    try:
        try:
            transport.start_campaign("miniraft", {"repeats": "3"})
        except ReproError as exc:
            assert "replied 400" in str(exc) and "repeats" in str(exc), exc
        else:
            raise AssertionError("a malformed campaign config was accepted")
        assert transport.list_campaigns() == {"campaigns": []}
        print("malformed config refused with 400")

        cold = _submitted_digest(transport, cache_dir=cache_dir)
        assert cold == serial, "cold digest diverged: %s != %s" % (cold, serial)
        print("cold digest ok")

        report_path = os.path.join(workdir, "warm.json")
        submit = _cli(
            "submit", "miniraft", "--manager", url, *ENV_CAMPAIGN_FLAGS,
            "--cache-dir", cache_dir, "--wait", "--out", report_path,
            stdout=subprocess.PIPE, text=True,
        )
        out, _ = submit.communicate(timeout=300)
        assert submit.returncode in (0, 1), "repro submit --wait failed"
        campaign = out.splitlines()[0]  # the id, printed before the report
        with open(report_path, encoding="utf-8") as fh:
            assert json.load(fh) == serial_report, "repro submit's report != serial"
        warm = transport.campaign_status(campaign)["digest"]
        assert warm == serial, "warm digest diverged: %s != %s" % (warm, serial)
        fleet = {a["name"]: a.get("cache") or {} for a in transport.health()["agents"]}
        hits = sum(c.get("hits", 0) for c in fleet.values())
        assert hits > 0, "no warm-cache hits reported by any agent: %r" % fleet
        print("warm `repro submit --wait` report and digest ok, %d agent cache hits" % hits)

        # Kill-rejoin.  The manager memoizes finished tasks, so a rerun of
        # the same campaign would be served entirely from its result table
        # — a new seed gives the campaign fresh task digests and forces
        # real execution.  Retire the idle fleet, then run it on an agent
        # that completes its first task, and dies holding its next lease
        # (--fail-after).  Being alone it is guaranteed the
        # work, so the death is deterministic; once its process exits a
        # fresh survivor joins, the reaper re-queues the held tasks
        # (TTL 3s), and the campaign completes with that seed's serial
        # digest.  No cache here, so the doomed agent holds real work.
        serial_kill = campaign_digest(
            Pipeline.default(
                get_system("miniraft"), CSnakeConfig(**dict(ENV_CAMPAIGN, seed=11))
            ).run()
        )
        requeued_before = transport.health()["tasks"]["requeued"]
        _assert_serving(agents)
        for proc in agents:
            proc.terminate()
        for proc in agents:
            proc.wait(timeout=10)
        agents = []
        doomed = _start_agent(
            url, "smoke-doomed", "--fail-after", "1", "--idle-exit", "60"
        )
        outcome = {}

        def _kill_run():
            try:
                outcome["digest"] = _submitted_digest(transport, seed=11)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                outcome["error"] = exc

        runner = threading.Thread(target=_kill_run)
        runner.start()
        # Dies as soon as real work flows, and exits cleanly doing so.
        assert doomed.wait(timeout=120) == 0, "the doomed agent crashed"
        agents = [_start_agent(url, "smoke-survivor")]
        runner.join(timeout=300)
        assert not runner.is_alive(), "kill-rejoin campaign never finished"
        if "error" in outcome:
            raise outcome["error"]
        assert outcome["digest"] == serial_kill, (
            "post-kill digest diverged: %s != %s"
            % (outcome["digest"], serial_kill)
        )
        stats = transport.health()["tasks"]
        requeued = stats["requeued"] - requeued_before
        assert requeued > 0, "the doomed agent's leases were never re-queued"
        print(
            "kill-rejoin digest ok (%d executed, %d leases re-queued)"
            % (stats["executed"], requeued)
        )

        status = _cli("status", "--manager", url)
        assert status.wait(timeout=30) == 0, "repro status failed"
        _assert_serving(agents)
    finally:
        for proc in agents + ([doomed] if doomed else []):
            proc.terminate()
        manager.terminate()
        for proc in agents + [manager]:
            proc.wait(timeout=10)
    print("service smoke ok: 3 submitted campaigns, all digests == serial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
