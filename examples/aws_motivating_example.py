#!/usr/bin/env python3
"""Figure 1: the AWS cell-manager cascade, replayed on the simulator.

A cell manager restarts a host and redistributes its shards.  A latent
load-balancer bug concentrates all low-throughput shards on few hosts;
those hosts' status reports grow so large they miss the reporting
deadline, the manager declares them unhealthy and redistributes *their*
shards — to the next victims.  The run prints the shard concentration and
the health-check casualties as the loop feeds itself.

This is a plain simulation (no CSnake pipeline): it shows the failure
class the detector is built for.

    python examples/aws_motivating_example.py
"""

from repro.sim import Node, SimEnv

N_HOSTS = 6
SHARDS_PER_HOST = 12
LOW_THROUGHPUT_FRACTION = 0.5
REPORT_INTERVAL_MS = 3_000.0
REPORT_DEADLINE_MS = 15_000.0
PER_SHARD_REPORT_COST_MS = 400.0  # metadata per hosted shard


class CellManager(Node):
    def __init__(self, env: SimEnv) -> None:
        super().__init__(env, "cell-manager")
        self.hosts = []
        self.last_report = {}
        self.removed = []
        # The health monitor runs on its own thread.
        self.monitor = Node(env, "cell-manager#monitor")
        env.every(self.monitor, 5_000.0, self.health_check)

    def receive_report(self, host_name: str, sent_at: float) -> None:
        def mark() -> None:
            self.last_report[host_name] = max(self.last_report.get(host_name, 0.0), sent_at)

        self.env.schedule_at(self.env.now + 0.1, self.monitor, mark)

    def health_check(self) -> None:
        now = self.env.now
        for host in self.hosts:
            if host.name in self.removed or host.crashed:
                continue
            if now - self.last_report.get(host.name, 0.0) > REPORT_DEADLINE_MS:
                print("  t=%5.1fs  %s declared UNHEALTHY (%d shards) -> redistributing"
                      % (now / 1000, host.name, len(host.shards)))
                self.removed.append(host.name)
                self.redistribute(host)

    def redistribute(self, source) -> None:
        """THE LATENT BUG: all low-throughput shards go to the single host
        with the fewest shards, instead of being spread."""
        low = [s for s in source.shards if s.endswith("L")]
        rest = [s for s in source.shards if not s.endswith("L")]
        source.shards = []
        live = [h for h in self.hosts if h.name not in self.removed and not h.crashed]
        if not live:
            print("  t=%5.1fs  NO HOSTS LEFT — total outage" % (self.env.now / 1000))
            return
        victim = min(live, key=lambda h: len(h.shards))
        victim.shards.extend(low)  # concentrated!
        for i, shard in enumerate(rest):
            live[i % len(live)].shards.append(shard)


class Host(Node):
    def __init__(self, env: SimEnv, manager: CellManager, index: int) -> None:
        super().__init__(env, "host-%d" % index)
        self.manager = manager
        kinds = ["L" if s < SHARDS_PER_HOST * LOW_THROUGHPUT_FRACTION else "H"
                 for s in range(SHARDS_PER_HOST)]
        self.shards = ["h%d-s%d%s" % (index, s, k) for s, k in enumerate(kinds)]
        manager.hosts.append(self)
        manager.last_report[self.name] = 0.0
        env.every(self, REPORT_INTERVAL_MS, self.send_report, jitter_ms=100.0)

    def send_report(self) -> None:
        sent_at = self.env.now
        # Report size — and cost — grows with hosted shard count: this is
        # the performance interference the cascade rides on.
        self.env.spin(PER_SHARD_REPORT_COST_MS * len(self.shards))
        self.env.send(self.manager, self.manager.receive_report, self.name, sent_at)


def main() -> None:
    env = SimEnv(seed=42)
    manager = CellManager(env)
    hosts = [Host(env, manager, i) for i in range(N_HOSTS)]

    def routine_upgrade() -> None:
        print("  t=%5.1fs  routine upgrade: restarting %s, redistributing its shards"
              % (env.now / 1000, hosts[0].name))
        hosts[0].crash()
        manager.redistribute(hosts[0])

    env.schedule_at(10_000.0, manager.monitor, routine_upgrade)

    print("Simulating the Figure 1 cascade (%d hosts, %d shards each):"
          % (N_HOSTS, SHARDS_PER_HOST))
    env.run(120_000.0)

    print("\nfinal state:")
    for host in hosts:
        status = "crashed" if host.crashed else (
            "removed" if host.name in manager.removed else "healthy")
        print("  %-8s %-8s %3d shards" % (host.name, status, len(host.shards)))
    casualties = len(manager.removed) + sum(1 for h in hosts if h.crashed)
    print("\n%d of %d hosts lost to a single routine restart — a"
          " self-sustaining cascading failure." % (casualties, N_HOSTS))


if __name__ == "__main__":
    main()
