#!/usr/bin/env python3
"""Fleet against local: one campaign's wall through the agent fleet and
on local worker processes, and whether the two reports are equal.

Starts a manager (``repro serve``) and one ``repro agent --workers 2``,
then runs N pairs of the minidfs environment campaign:

* ``repro submit --wait --out F`` (the fleet side) and
* ``repro run --backend process --workers 2 --out L`` (the local side).

Each pair has a seed of its own, so the manager serves no task of it
from an earlier pair, and the side that runs first alternates from pair
to pair.  Every pair prints both walls, the fleet/local ratio, the
requests the manager served per task the fleet completed (the agent's
``register`` and ``lease``, and the client's campaign ``status`` and
``events`` apart), and whether F and L are byte-equal; the script exits 1
if any pair's reports differ.
The walls are those of the two CLI processes, start-up included.

    PYTHONPATH=src python examples/fleet_vs_local.py --pairs 5
"""

import argparse
import filecmp
import os
import statistics
import subprocess
import sys
import tempfile
import time

from repro.service.http import HttpTransport
from service_smoke import _cli, _start_manager

#: The minidfs environment campaign at the ``dfs_env`` benchmark scale.
CAMPAIGN_FLAGS = (
    "--repeats", "2", "--delays", "8000", "--budget", "4",
    "--fault-kinds", "all", "--schedules", "all", "--adaptive-budget",
)
SIDES = ("fleet", "local")
#: The ``stats()["requests"]`` counters an agent sends; the rest are the
#: campaign client's.
AGENT_REQUESTS = ("register", "lease")


def _timed(argv):
    """Run ``repro ARGV`` to the end; returns its wall in seconds."""
    start = time.perf_counter()
    code = _cli(*argv, stdout=subprocess.DEVNULL).wait()
    if code not in (0, 1):  # 1: ran, but detected no known bug
        raise RuntimeError("repro %s exited %d" % (argv[0], code))
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=5, help="pairs to run (default 5)")
    parser.add_argument(
        "--seed", type=int, default=11, help="the first pair's seed; pair i runs seed + i"
    )
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="fleet-vs-local-")
    manager, url = _start_manager()
    agent = _cli("agent", "--manager", url, "--workers", "2", "--name", "fleet-vs-local")
    ratios, unequal = [], 0
    try:
        transport = HttpTransport(url)
        deadline = time.monotonic() + 60.0
        while not transport.health()["agents"]:
            assert agent.poll() is None, "the agent exited with %s" % agent.returncode
            assert time.monotonic() < deadline, "the agent never registered"
            time.sleep(0.1)
        for pair in range(args.pairs):
            seed = str(args.seed + pair)
            out = {side: os.path.join(workdir, "%s-%s.json" % (side, seed)) for side in SIDES}
            argvs = {
                "fleet": ("submit", "minidfs", "--manager", url, *CAMPAIGN_FLAGS,
                          "--seed", seed, "--wait", "--out", out["fleet"]),
                "local": ("run", "minidfs", *CAMPAIGN_FLAGS, "--seed", seed,
                          "--backend", "process", "--workers", "2", "--out", out["local"]),
            }
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            before = transport.health()
            wall = {side: _timed(argvs[side]) for side in order}
            after = transport.health()
            served = {
                route: after["requests"][route] - before["requests"][route]
                for route in after["requests"]
            }
            agent_requests = sum(served[route] for route in AGENT_REQUESTS)
            client_requests = sum(served.values()) - agent_requests
            tasks = max(1, after["tasks"]["executed"] - before["tasks"]["executed"])
            equal = filecmp.cmp(out["fleet"], out["local"], shallow=False)
            unequal += not equal
            ratios.append(wall["fleet"] / wall["local"])
            print(
                "pair %d  seed %s  %s first  fleet %.2f s  local %.2f s  ratio %.2f  "
                "agent requests/task %.3f (%d / %d)  client requests/task %.3f (%d)  "
                "reports %s"
                % (pair + 1, seed, order[0], wall["fleet"], wall["local"], ratios[-1],
                   agent_requests / tasks, agent_requests, tasks,
                   client_requests / tasks, client_requests, "equal" if equal else "DIFFER"),
                flush=True,
            )
    finally:
        agent.terminate()
        manager.terminate()
        agent.wait(timeout=30)
        manager.wait(timeout=30)
    if ratios:
        print("median fleet/local ratio %.2f over %d pairs"
              % (statistics.median(ratios), len(ratios)))
    if unequal:
        print("%d of %d pairs gave unequal reports" % (unequal, len(ratios)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
