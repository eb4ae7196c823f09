"""A small instrumented client/server system used by the quickstart example,
the integration tests, and the overhead microbenchmark.

The "pingpong" system has one server, a few workers heartbeating to it, and
clients sending write batches.  It contains two genuine self-sustaining
cascade bugs:

* **TOY-1** (1D|1E|0N): a slow server request-processing loop times out
  client RPCs; clients with retry enabled re-send, growing the server's
  batch — which is what slowed it down in the first place.  The two halves
  of the cycle need *different* workload conditions (big batches to trigger
  timeouts; retry-enabled clients to trigger re-sends), split across the
  ``toy.big_batches`` and ``toy.retry_clients`` tests.
* **TOY-2** (1D|0E|1N): the same slow processing loop delays worker
  heartbeats until the server's staleness detector trips; the server then
  enqueues re-replication requests for the "lost" worker, growing the
  processing loop again.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import IOEx, RpcTimeout
from ..faults import EnvFaultPort
from ..instrument.runtime import Runtime
from ..instrument.sites import SiteRegistry
from ..sim import Node, SimEnv
from ..types import DELAY, EXCEPTION, NEGATION, FaultKey
from .base import KnownBug, SystemSpec, WorkloadSpec

SYSTEM = "toy"


def build_registry() -> SiteRegistry:
    reg = SiteRegistry(SYSTEM)
    reg.loop("toy.server.process_batch", "ToyServer.process_tick", does_io=True, body_size=40)
    reg.loop("toy.client.send_loop", "ToyClient.send_batch", does_io=True, body_size=30)
    reg.loop("toy.worker.cmd_loop", "ToyWorker.heartbeat", body_size=20)
    reg.lib_call("toy.client.rpc_call", "ToyClient.send_one", exception="SocketTimeoutException")
    reg.throw("toy.server.queue_full", "ToyServer.handle_request", exception="RetriableException")
    reg.detector("toy.server.is_stale", "ToyServer.check_workers", error_value=True)
    reg.branch("toy.server.b_is_write", "ToyServer.process_tick")
    reg.branch("toy.client.b_retryable", "ToyClient.send_batch")
    reg.branch("toy.server.b_over_cap", "ToyServer.handle_request")
    return reg


REGISTRY = build_registry()


class ToyServer(Node):
    """Server with a request queue, periodic batch processing, and a
    worker-staleness monitor that re-replicates lost workers' data."""

    def __init__(
        self,
        env: SimEnv,
        rt: Runtime,
        queue_cap: int = 400,
        process_interval_ms: float = 2_000.0,
        per_request_cost_ms: float = 2.0,
        stale_timeout_ms: float = 15_000.0,
        rereplication_batch: int = 12,
    ) -> None:
        super().__init__(env, "server")
        self.rt = rt
        self.queue: List[tuple] = []
        self.queue_cap = queue_cap
        self.per_request_cost_ms = per_request_cost_ms
        self.stale_timeout_ms = stale_timeout_ms
        self.rereplication_batch = rereplication_batch
        self.last_heartbeat: dict = {}
        self.processed = 0
        env.every(self, process_interval_ms, self.process_tick)
        # The worker monitor runs on its own thread (separate executor), so
        # a busy request processor cannot starve it.
        self.monitor_thread = Node(env, "server#monitor")
        env.every(self.monitor_thread, 5_000.0, self.check_workers)

    # ----------------------------------------------------------- rpc targets

    def handle_request(self, kind: str, payload: int) -> str:
        with self.rt.function("ToyServer.handle_request"):
            self.check_alive()
            over = len(self.queue) >= self.queue_cap
            self.rt.branch("toy.server.b_over_cap", over)
            self.rt.throw_point("toy.server.queue_full", IOEx, natural=over)
            self.queue.append((kind, payload))
            self.env.spin(0.2)
            return "ack"

    def heartbeat(self, worker: str) -> List[str]:
        self.check_alive()
        # The liveness map reflects the heartbeat only once its processing
        # completes (a backlogged handler thread updates it late).
        seen_at = self.env.now

        def mark() -> None:
            self.last_heartbeat[worker] = max(
                self.last_heartbeat.get(worker, 0.0), seen_at
            )

        self.env.schedule_at(seen_at + 0.1, self.monitor_thread, mark)
        return []

    # -------------------------------------------------------------- periodic

    def process_tick(self) -> None:
        with self.rt.function("ToyServer.process_tick"):
            batch, self.queue = self.queue, []
            for kind, _payload in self.rt.loop("toy.server.process_batch", batch):
                self.rt.branch("toy.server.b_is_write", kind == "write")
                self.env.spin(self.per_request_cost_ms)
                self.processed += 1

    def check_workers(self) -> None:
        with self.rt.function("ToyServer.check_workers"):
            for worker, seen in sorted(self.last_heartbeat.items()):
                stale = self.rt.detector(
                    "toy.server.is_stale", self.env.now - seen > self.stale_timeout_ms
                )
                if stale:
                    # Re-replicate the lost worker's data: feeds the
                    # processing loop (the TOY-2 feedback path).
                    for i in range(self.rereplication_batch):
                        self.queue.append(("write", i))
                    self.last_heartbeat[worker] = self.env.now  # reset until next miss
            # Ensure the monitor sees registered workers from the start.
            for worker in [n.name for n in self.env.nodes if n.name.startswith("worker")]:
                self.last_heartbeat.setdefault(worker, 0.0)


class ToyWorker(Node):
    """Worker heartbeating to the server and executing returned commands."""

    def __init__(self, env: SimEnv, rt: Runtime, server: ToyServer, index: int,
                 heartbeat_interval_ms: float = 3_000.0) -> None:
        super().__init__(env, "worker-%d" % index)
        self.rt = rt
        self.server = server
        env.every(self, heartbeat_interval_ms, self.heartbeat, jitter_ms=50.0)

    def heartbeat(self) -> None:
        with self.rt.function("ToyWorker.heartbeat"):
            try:
                commands = self.env.rpc(self.server, self.server.heartbeat, self.name)
            except (RpcTimeout, IOEx):
                return  # missed heartbeat; the server's detector notices
            for _cmd in self.rt.loop("toy.worker.cmd_loop", commands):
                self.env.spin(1.0)


class ToyClient(Node):
    """Client sending periodic write batches, optionally retrying failures."""

    def __init__(
        self,
        env: SimEnv,
        rt: Runtime,
        server: ToyServer,
        index: int,
        batch_size: int = 5,
        interval_ms: float = 4_000.0,
        retry: bool = False,
        rpc_timeout_ms: Optional[float] = None,
    ) -> None:
        super().__init__(env, "client-%d" % index)
        self.rt = rt
        self.server = server
        self.batch_size = batch_size
        self.retry = retry
        self.rpc_timeout_ms = rpc_timeout_ms
        self.pending: List[tuple] = []
        self.sent = 0
        self.failed = 0
        env.every(self, interval_ms, self.send_batch, jitter_ms=100.0)

    def _next_batch(self) -> List[tuple]:
        batch = self.pending
        self.pending = []
        batch.extend(("write", i) for i in range(self.batch_size))
        return batch

    def send_batch(self) -> None:
        with self.rt.function("ToyClient.send_batch"):
            for req in self.rt.loop("toy.client.send_loop", self._next_batch()):
                try:
                    self.send_one(req)
                    self.sent += 1
                except IOEx:
                    self.failed += 1
                    if self.rt.branch("toy.client.b_retryable", self.retry):
                        self.pending.append(req)

    def send_one(self, req: tuple) -> None:
        with self.rt.function("ToyClient.send_one"):
            self.rt.lib_call(
                "toy.client.rpc_call",
                RpcTimeout,
                self.env.rpc,
                self.server,
                self.server.handle_request,
                req[0],
                req[1],
                timeout_ms=self.rpc_timeout_ms,
            )


# --------------------------------------------------------------------- tests


def _wl_big_batches(env: SimEnv, rt: Runtime) -> None:
    """Heavy write workload: big batches, impatient clients, no retry.

    Server-processing delay makes client RPCs time out here (first half of
    TOY-1) and delays worker heartbeats into staleness (first half of
    TOY-2); with retry disabled, timeouts do not feed back.
    """
    server = ToyServer(env, rt, per_request_cost_ms=3.0)
    for i in range(2):
        ToyWorker(env, rt, server, i)
    for i in range(2):
        ToyClient(env, rt, server, i, batch_size=25, interval_ms=3_000.0, retry=False)


def _wl_retry_clients(env: SimEnv, rt: Runtime) -> None:
    """Durability test: tiny batches, patient clients with retry enabled.

    An injected send failure is retried, growing the server batch (second
    half of TOY-1); batches are too small for delay to cause timeouts.
    """
    server = ToyServer(
        env, rt, process_interval_ms=5_000.0, stale_timeout_ms=600_000.0,
        rereplication_batch=0,
    )
    for i in range(2):
        ToyWorker(env, rt, server, i)
    for i in range(2):
        ToyClient(
            env, rt, server, i, batch_size=1, interval_ms=20_000.0, retry=True,
            rpc_timeout_ms=120_000.0,
        )


def _wl_balancer(env: SimEnv, rt: Runtime) -> None:
    """Worker-failure drill: staleness handling under a light write load.

    An injected staleness negation triggers re-replication, growing the
    processing loop (second half of TOY-2).
    """
    server = ToyServer(env, rt, stale_timeout_ms=600_000.0, rereplication_batch=20)
    for i in range(3):
        ToyWorker(env, rt, server, i)
    ToyClient(env, rt, server, 0, batch_size=2, interval_ms=5_000.0, retry=False,
              rpc_timeout_ms=60_000.0)


def _wl_idle(env: SimEnv, rt: Runtime) -> None:
    """Smoke test: one client, one worker, little load (low coverage)."""
    server = ToyServer(env, rt, stale_timeout_ms=600_000.0, rereplication_batch=0)
    ToyWorker(env, rt, server, 0)
    ToyClient(env, rt, server, 0, batch_size=1, interval_ms=10_000.0, retry=False,
              rpc_timeout_ms=60_000.0)


TOY1_FAULTS = frozenset(
    {
        FaultKey("toy.client.send_loop", DELAY),
        FaultKey("toy.client.rpc_call", EXCEPTION),
    }
)
TOY2_FAULTS = frozenset(
    {
        FaultKey("toy.server.process_batch", DELAY),
        FaultKey("toy.server.is_stale", NEGATION),
    }
)


#: Injectable environment surface: a crashable worker plus the links a
#: partition or datagram loss can disturb (worker heartbeats and client
#: traffic both cross the server links).
ENV_PORT = EnvFaultPort(
    nodes=("worker-0", "worker-1"),
    links=(("server", "worker-0"), ("server", "client-0")),
)


def build_system() -> SystemSpec:
    spec = SystemSpec(
        name=SYSTEM, registry=REGISTRY, env_port=ENV_PORT,
        source_modules=("repro.systems.toy",),
    )
    spec.add_workload(WorkloadSpec("toy.big_batches", _wl_big_batches.__doc__ or "", _wl_big_batches))
    spec.add_workload(
        WorkloadSpec("toy.retry_clients", _wl_retry_clients.__doc__ or "", _wl_retry_clients)
    )
    spec.add_workload(WorkloadSpec("toy.balancer", _wl_balancer.__doc__ or "", _wl_balancer))
    spec.add_workload(WorkloadSpec("toy.idle", _wl_idle.__doc__ or "", _wl_idle))
    spec.known_bugs = [
        KnownBug(
            bug_id="TOY-1",
            description="send-loop delay -> client timeout -> retry storm -> bigger send loop",
            signature="1D|1E|0N",
            core_faults=TOY1_FAULTS,
        ),
        KnownBug(
            bug_id="TOY-2",
            description="processing delay -> worker marked stale -> re-replication -> more processing",
            signature="1D|0E|1N",
            core_faults=TOY2_FAULTS,
        ),
    ]
    return spec
