"""MiniDFS nodes: a replicated file system on the virtual-time substrate.

One active namenode (``nn0``) tracks block locations and datanode liveness
from periodic heartbeats; three datanodes (``dn0..dn2``) store replicated
blocks, forward write pipelines, and double as priority-ordered standby
masters (the Erca94 ``get_master_namenode`` pattern: candidates sorted by
priority, the best live one acts as master).  A client writes and reads
blocks through whichever node it currently believes is master.  The
recovery loops are exactly the churn-triggered feedback paths the paper
targets:

DFS-1 (heartbeat storm): a busy master times out datanode heartbeats;
with re-register-on-failure configured, each datanode answers the lost
ack with a fresh registration carrying a *full block report* — which is
precisely the processing work that made the master slow.

DFS-2 (failover flap): a standby whose master-liveness detector trips
promotes itself by priority and rebuilds the namespace from full reports;
the rebuild work keeps the new master too busy to answer heartbeats, so
the next standby's detector trips — another election, another rebuild.

DFS-3 (re-replication churn): when a datanode is declared dead, the
master re-replicates its blocks from surviving replicas.  A failed
transfer makes the master distrust its placement bookkeeping and *grow*
the pending set (re-verifying a window of blocks it already placed), so
the next scan issues even more transfers — transfers that keep the
surviving datanodes too busy to answer in time.  Only a rolling
crash/restart wave (the ``membership_churn`` schedule) makes the master's
heartbeat-based liveness view stale enough to pick dead sources while
new deaths keep arriving; no single crash sustains the loop.

DFS-4 (ack-loss retry storm): with explicit transfer acks configured,
the master trusts a re-replication placement only once the target's
one-way ack *datagram* arrives; unacked transfers past the timeout are
retried.  The ack is a datagram, not an RPC — when the network silently
eats it, the master re-copies a block the target already holds, and a
retry that itself times out reads as wholesale ack loss, so every
inflight transfer is presumed lost and retried too.  The duplicate
transfer work keeps the datanodes too busy to flush acks in time, which
is exactly what makes the next scan read every transfer as lost.  Only
datagram loss (the ``msg_drop`` fault model, which never touches RPCs)
exposes the triggering disturbance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ...errors import IOEx
from ...instrument.runtime import Runtime
from ...sim import Node, SimEnv


class DfsConfig:
    def __init__(self, **kw: object) -> None:
        self.n_datanodes = 3
        self.replication_factor = 2
        self.preload_blocks = 24  # blocks present at cluster build
        self.chunks_per_block = 4
        self.disk_capacity_blocks = 100_000  # dn disk-full guard
        # Heartbeats and registration.
        self.heartbeat_interval_ms = 3_000.0
        self.hb_rpc_timeout_ms = 8_000.0
        self.report_interval_ms = 30_000.0  # periodic full block report
        self.report_entry_cost_ms = 1.0  # master-side per-entry processing
        self.report_build_cost_ms = 0.2  # dn-side per-entry serialization
        # Full re-register (block report attached) on a lost heartbeat ack
        # — the HDFS ``offerService`` recovery reflex, on by default.
        self.reregister_on_failure = True
        self.register_rpc_timeout_ms = 10_000.0
        self.register_backoff_ms = 2_000.0  # first retry delay after a failure
        self.register_backoff_cap_ms = 16_000.0  # exponential backoff ceiling
        # Write/read pipelines.
        self.write_chunk_cost_ms = 2.0  # primary-side per-chunk cost
        self.recv_chunk_cost_ms = 2.0  # replica-side per-chunk cost
        self.read_chunk_cost_ms = 1.0
        self.pipe_rpc_timeout_ms = 10_000.0
        # Datanode liveness and re-replication (master side).
        self.liveness_tick_ms = 5_000.0
        self.dn_timeout_ms = 15_000.0  # heartbeat age that reads as dead
        self.rerepl_enabled = False
        self.rerepl_tick_ms = 5_000.0
        self.rerepl_batch = 4  # transfers issued per scan tick
        self.rerepl_scan_cost_ms = 8.0  # per-entry cost of the pending scan
        self.rerepl_chunk_cost_ms = 150.0  # replica-side per-chunk re-replication cost
        self.rerepl_rpc_timeout_ms = 10_000.0
        self.serve_rpc_timeout_ms = 8_000.0  # target -> source pull timeout
        self.rescan_on_failure = False  # grow the pending set on a failed transfer
        self.rescan_window = 6  # placed blocks re-verified per failure
        # Explicit transfer acks (off by default): the master trusts a
        # re-replication placement only once the target's one-way ack
        # datagram arrives; unacked transfers past the timeout are retried.
        self.rerepl_ack_required = False
        self.ack_flush_interval_ms = 6_000.0  # dn-side batched ack flush cadence
        self.ack_build_cost_ms = 40.0  # dn-side per-ack digest cost
        self.ack_timeout_ms = 2_500.0  # unacked transfer age that reads as lost
        self.ack_scan_tick_ms = 2_000.0  # master-side overdue-ack scan cadence
        self.ack_scan_cost_ms = 2.0  # master-side per-entry scan cost
        self.ack_panic_window_ms = 25_000.0  # distrust window after a retry failure
        self.retry_rpc_timeout_ms = 10_000.0
        # Presume wholesale ack loss when a retry itself times out: every
        # inflight transfer is aged past the timeout and retried too.
        self.retry_panic = True
        # Standby failover (datanode side).
        # Promote the best live standby when the master-liveness detector
        # trips — on by default; a fault-free run never trips the detector,
        # so promotion happens only under disturbance (or a scripted drill).
        self.auto_failover = True
        self.failover_tick_ms = 6_000.0
        self.master_timeout_ms = 18_000.0  # master-contact age that reads as down
        self.rebuild_entry_cost_ms = 5.0  # new-master per-entry rebuild cost
        self.report_rpc_timeout_ms = 8_000.0
        for key, value in kw.items():
            if not hasattr(self, key):
                raise TypeError("unknown DfsConfig option %r" % key)
            setattr(self, key, value)


class DfsNode(Node):
    """One cluster member: the namenode, or a datanode/standby master.

    ``priority`` orders failover candidates (0 = the dedicated namenode,
    datanodes follow by index); ``is_master`` marks whoever currently
    holds the namespace.  Datanode duties (blocks, heartbeats, pipelines)
    belong to datanodes regardless of whether one is acting master.
    """

    def __init__(
        self, env: SimEnv, rt: Runtime, cfg: DfsConfig, name: str, priority: int
    ) -> None:
        super().__init__(env, name)
        self.rt = rt
        self.cfg = cfg
        self.priority = priority
        self.is_datanode = priority > 0
        self.is_master = priority == 0
        self.peers: List["DfsNode"] = []  # every *other* node, set by build
        # Datanode state.
        self.replicas: Set[int] = set()  # block ids stored on this dn
        self.pending_receipts: List[int] = []  # IBR queue for the next heartbeat
        self.pending_acks: List[int] = []  # transfer acks awaiting the next flush
        self.registered = False
        self.register_attempts = 0
        self.register_backoff_ms = cfg.register_backoff_ms
        # Master-view state (every node tracks who it believes leads).
        self.master_name = "nn0"
        self.last_master_contact = 0.0
        self.elections_started = 0
        # Namespace state (meaningful only while acting master).
        self.block_map: Dict[int, Set[str]] = {}  # block id -> replica holders
        self.last_dn_heartbeat: Dict[str, float] = {}
        self.pending_rerepl: List[int] = []  # under-replicated block queue
        self.rescan_backlog = 0  # placed blocks to re-verify after a failed transfer
        self.transfers_failed = 0
        # Ack-mode bookkeeping: block -> (target, source, issue time) for
        # transfers whose ack datagram has not arrived yet.
        self.inflight_acks: Dict[int, Tuple[str, str, float]] = {}
        self.ack_panic_until = 0.0  # ack channel distrusted until this time
        self.retries_issued = 0
        self.acks_received = 0
        # Config-cache probe: depends only on constructor configuration, so
        # the §7 final-only rule excludes it from the fault space.
        rt.detector("dn.conf.is_cached", cfg.replication_factor > 0)
        self._register_ticks()

    def _register_ticks(self) -> None:
        """Periodic behaviour; re-registered after a crash-restart (the
        crash dropped the pending tail of every ``env.every`` chain)."""
        env, cfg = self.env, self.cfg
        if self.is_datanode:
            env.every(self, cfg.heartbeat_interval_ms, self.heartbeat_tick, jitter_ms=40.0)
            env.every(
                self, cfg.report_interval_ms, self.report_tick,
                jitter_ms=120.0 * self.priority,
            )
            env.every(
                self, cfg.failover_tick_ms, self.failover_tick,
                jitter_ms=60.0 * self.priority,
            )
        if self.is_datanode and cfg.rerepl_enabled and cfg.rerepl_ack_required:
            env.every(
                self, cfg.ack_flush_interval_ms, self.ack_flush_tick,
                jitter_ms=80.0 * self.priority,
            )
        env.every(self, cfg.liveness_tick_ms, self.liveness_tick, jitter_ms=50.0)
        if cfg.rerepl_enabled:
            env.every(self, cfg.rerepl_tick_ms, self.rerepl_tick, jitter_ms=30.0)
            if cfg.rerepl_ack_required:
                env.every(self, cfg.ack_scan_tick_ms, self.ack_scan_tick, jitter_ms=40.0)

    def on_restart(self) -> None:
        """Crash recovery: replicas are durable, everything else is volatile.

        A restarted datanode no longer trusts its registration (the master
        may have declared it dead) and re-registers with a full block
        report; a restarted master comes back with an empty namespace and
        waits for datanodes to re-register (heartbeats from unknown
        datanodes are answered with a re-register demand).
        """
        self.last_master_contact = self.env.now
        if self.is_datanode:
            self.registered = False
            self.register_backoff_ms = self.cfg.register_backoff_ms
            self.pending_receipts = []
            self.pending_acks = []
            self.env.after(self, 1_000.0, self.register_with_master)
        if self.is_master:
            self.block_map = {}
            self.last_dn_heartbeat = {}
            self.pending_rerepl = []
            self.rescan_backlog = 0
            self.inflight_acks = {}
            self.ack_panic_until = 0.0
        self._register_ticks()

    # ------------------------------------------------------------- helpers

    def master(self) -> Optional["DfsNode"]:
        if self.is_master:
            return self
        for peer in self.peers:
            if peer.name == self.master_name:
                return peer
        return None

    def live_view(self) -> List[str]:
        """Datanodes the master believes live (heartbeat age within the
        timeout) — a *stale* view by construction: churn outruns it."""
        out = []
        for name, at in sorted(self.last_dn_heartbeat.items()):
            if self.env.now - at <= self.cfg.dn_timeout_ms:
                out.append(name)
        return out

    def best_candidate(self, live: List[str]) -> Optional[str]:
        """Failover order: the live standby with the best (lowest)
        priority — ``take_best_active_nn`` over datanode candidates."""
        ranked = sorted(
            (p.priority, p.name) for p in self.peers
            if p.is_datanode and p.name in live
        )
        if self.is_datanode:
            ranked.append((self.priority, self.name))
            ranked.sort()
        return ranked[0][1] if ranked else None

    def datanodes(self) -> List["DfsNode"]:
        nodes = [p for p in self.peers if p.is_datanode]
        if self.is_datanode:
            nodes.append(self)
        return sorted(nodes, key=lambda n: n.priority)

    # ----------------------------------------------------------- datanode

    def heartbeat_tick(self) -> None:
        """Datanode heartbeat: liveness beacon plus incremental block
        report (receipts queued since the last beat)."""
        master = self.master()
        if master is None or master is self:
            return
        with self.rt.function("DfsNode.heartbeat_tick"):
            receipts: List[int] = []
            for block in self.rt.loop("dn.ibr.build", list(self.pending_receipts)):
                self.env.spin(0.1)
                receipts.append(block)
            try:
                acked, needs_register, master_name = self.rt.rpc_call(
                    "dn.hb.rpc", IOEx, self.env.rpc, master, master.handle_heartbeat,
                    self.name, receipts, timeout_ms=self.cfg.hb_rpc_timeout_ms,
                )
            except IOEx:
                rereg = self.rt.branch(
                    "dn.hb.b_rereg", self.cfg.reregister_on_failure
                )
                if rereg:
                    # THE BUG (DFS-1): the ack was lost, not the heartbeat —
                    # a full re-registration answers a busy master with a
                    # full block report, the very work that made it slow.
                    self.registered = False
                    self.register_with_master()
                return
            if master_name != self.master_name:
                self.master_name = master_name  # redirected by a demoted master
                return
            if acked:
                # Only an ack from the *acting* master counts as master
                # contact — a demoted node's redirect must not keep the
                # liveness detector quiet.
                self.last_master_contact = self.env.now
            self.pending_receipts = self.pending_receipts[len(receipts):]
            if needs_register or not acked:
                self.registered = False
                self.register_with_master()

    def register_with_master(self) -> None:
        """(Re-)register with the current master, full block report
        attached; a failure retries with exponential backoff."""
        master = self.master()
        if master is None or master is self or self.registered:
            return
        with self.rt.function("DfsNode.register_with_master"):
            self.register_attempts += 1
            report: List[int] = []
            for block in self.rt.loop("dn.report.build", sorted(self.replicas)):
                self.env.spin(self.cfg.report_build_cost_ms)
                report.append(block)
            try:
                self.rt.lib_call(
                    "dn.reg.rpc", IOEx, self.env.rpc, master, master.handle_register,
                    self.name, report, timeout_ms=self.cfg.register_rpc_timeout_ms,
                )
            except IOEx:
                retry = self.rt.branch("dn.reg.b_retry", True)
                if retry:
                    self.env.after(self, self.register_backoff_ms, self.register_with_master)
                    self.register_backoff_ms = min(
                        self.register_backoff_ms * 2.0,
                        self.cfg.register_backoff_cap_ms,
                    )
                return
            self.registered = True
            self.register_backoff_ms = self.cfg.register_backoff_ms
            self.last_master_contact = self.env.now

    def report_tick(self) -> None:
        """Periodic full block report (dfs.blockreport analogue)."""
        if not self.registered:
            return
        self.registered = False
        self.register_with_master()

    def failover_tick(self) -> None:
        """Standby-side master liveness check; promotes by priority."""
        if self.is_master:
            return
        with self.rt.function("DfsNode.failover_tick"):
            down = self.rt.detector(
                "dn.master.is_down",
                self.env.now - self.last_master_contact > self.cfg.master_timeout_ms,
            )
            if not down:
                return
            promote = self.rt.branch("fo.b_promote", self.cfg.auto_failover)
            if not promote:
                return
            live = [p.name for p in self.peers if p.is_datanode and not p.crashed]
            if self.best_candidate(live) == self.name:
                self.become_master()

    def become_master(self) -> None:
        """Promotion: rebuild the namespace from full reports.

        A fresh master trusts nothing: it pulls a full block report from
        every datanode it can reach and replays each entry — the DFS-2
        feedback path (each failover creates rebuild work, which delays
        heartbeat replies, which invites the next failover).
        """
        with self.rt.function("DfsNode.become_master"):
            self.elections_started += 1
            self.is_master = True
            self.block_map = {}
            self.last_dn_heartbeat = {}
            self.pending_rerepl = []
            self.rescan_backlog = 0
            self.inflight_acks = {}
            self.ack_panic_until = 0.0
            reports: List[Tuple[str, List[int]]] = []
            for peer in self.datanodes():
                if peer is self:
                    reports.append((self.name, sorted(self.replicas)))
                    continue
                try:
                    report = self.rt.lib_call(
                        "fo.report.rpc", IOEx, self.env.rpc, peer, peer.pull_report,
                        self.name, timeout_ms=self.cfg.report_rpc_timeout_ms,
                    )
                except IOEx:
                    continue
                reports.append((peer.name, report))
            for name, report in reports:
                self.last_dn_heartbeat[name] = self.env.now
                for block in self.rt.loop("fo.rebuild.entries", report):
                    self.env.spin(self.cfg.rebuild_entry_cost_ms)
                    self.block_map.setdefault(block, set()).add(name)
            for peer in self.peers:
                if peer.is_master:
                    peer.is_master = False  # the claim demotes the old master
                self.env.send(peer, peer.adopt_master, self.name)
            self.master_name = self.name
            if self.cfg.rerepl_enabled:
                self._queue_under_replicated()

    def adopt_master(self, name: str) -> None:
        """One-way new-master announcement (admin handover or election)."""
        if name != self.name:
            self.is_master = False
        self.master_name = name
        self.last_master_contact = self.env.now
        if self.is_datanode and name != self.name:
            self.registered = False
            self.register_with_master()

    def pull_report(self, requester: str) -> List[int]:
        self.check_alive()
        return sorted(self.replicas)

    # -------------------------------------------------- datanode pipelines

    def handle_write(self, block: int, pipeline: List[str]) -> bool:
        """Primary of a write pipeline: store chunks, forward the rest."""
        self.check_alive()
        with self.rt.function("DfsNode.handle_write"):
            self.rt.throw_point(
                "dn.disk.full_ioe", IOEx,
                natural=len(self.replicas) >= self.cfg.disk_capacity_blocks,
            )
            for _ in self.rt.loop("dn.pipe.write", range(self.cfg.chunks_per_block)):
                self.env.spin(self.cfg.write_chunk_cost_ms)
            self.replicas.add(block)
            self.pending_receipts.append(block)
            rest = [n for n in pipeline if n != self.name]
            if rest:
                target = next((p for p in self.peers if p.name == rest[0]), None)
                if target is not None:
                    self.rt.lib_call(
                        "dn.pipe.rpc", IOEx, self.env.rpc, target,
                        target.handle_receive, block, rest,
                        timeout_ms=self.cfg.pipe_rpc_timeout_ms,
                    )
            return True

    def handle_receive(
        self, block: int, pipeline: List[str], source: Optional[str] = None
    ) -> bool:
        """Replica receive: a pipeline forward, or a re-replication fetch
        (``source`` set) that pulls the block from a surviving holder."""
        self.check_alive()
        with self.rt.function("DfsNode.handle_receive"):
            chunk_cost = self.cfg.recv_chunk_cost_ms
            if source is not None:
                holder = next((p for p in self.peers if p.name == source), None)
                if holder is None:
                    raise IOEx("unknown replica source %s" % source)
                self.rt.lib_call(
                    "dn.serve.rpc", IOEx, self.env.rpc, holder, holder.handle_read,
                    block, timeout_ms=self.cfg.serve_rpc_timeout_ms,
                )
                chunk_cost = self.cfg.rerepl_chunk_cost_ms
            for _ in self.rt.loop("dn.pipe.recv", range(self.cfg.chunks_per_block)):
                self.env.spin(chunk_cost)
            self.replicas.add(block)
            self.pending_receipts.append(block)
            if source is not None and self.cfg.rerepl_ack_required:
                self.pending_acks.append(block)
            rest = [n for n in pipeline if n != self.name]
            if rest:
                target = next((p for p in self.peers if p.name == rest[0]), None)
                if target is not None:
                    self.rt.lib_call(
                        "dn.pipe.rpc", IOEx, self.env.rpc, target,
                        target.handle_receive, block, rest,
                        timeout_ms=self.cfg.pipe_rpc_timeout_ms,
                    )
            return True

    def ack_flush_tick(self) -> None:
        """Flush queued re-replication acks as one-way datagrams.

        Deliberately datagrams, not RPCs: the transfer itself already ran
        over a connection, the ack is fire-and-forget bookkeeping — which
        is exactly the surface the ``msg_drop`` fault model can eat.
        """
        if not self.pending_acks:
            return
        master = self.master()
        if master is None or master is self:
            return
        with self.rt.function("DfsNode.ack_flush_tick"):
            acks, self.pending_acks = self.pending_acks, []
            for block in self.rt.loop("dn.ack.build", acks):
                self.env.spin(self.cfg.ack_build_cost_ms)
                self.env.send(master, master.handle_rerepl_ack, block, self.name)

    def handle_read(self, block: int) -> int:
        self.check_alive()
        with self.rt.function("DfsNode.handle_read"):
            if block not in self.replicas:
                raise IOEx("%s holds no replica of block %d" % (self.name, block))
            for _ in self.rt.loop("dn.read.chunks", range(self.cfg.chunks_per_block)):
                self.env.spin(self.cfg.read_chunk_cost_ms)
            return block

    # --------------------------------------------------------- master rpcs

    def handle_heartbeat(self, name: str, receipts: List[int]) -> Tuple[bool, bool, str]:
        self.check_alive()
        with self.rt.function("DfsNode.handle_heartbeat"):
            if not self.is_master:
                return (False, False, self.master_name)
            known = name in self.last_dn_heartbeat
            self.last_dn_heartbeat[name] = self.env.now
            for block in receipts:
                self.env.spin(0.1)
                self.block_map.setdefault(block, set()).add(name)
            return (True, not known, self.name)

    def handle_register(self, name: str, report: List[int]) -> bool:
        self.check_alive()
        with self.rt.function("DfsNode.handle_register"):
            self.rt.throw_point(
                "nn.write.not_master", IOEx, natural=not self.is_master
            )
            self.last_dn_heartbeat[name] = self.env.now
            for holders in self.block_map.values():
                holders.discard(name)
            for block in self.rt.loop("nn.report.blocks", report):
                self.env.spin(self.cfg.report_entry_cost_ms)
                self.block_map.setdefault(block, set()).add(name)
            return True

    def handle_allocate(self, block: int) -> List[str]:
        """Client block allocation: choose a write pipeline of
        ``replication_factor`` datanodes the master believes live."""
        self.check_alive()
        with self.rt.function("DfsNode.handle_allocate"):
            self.check_acl("client")
            self.rt.throw_point(
                "nn.write.not_master", IOEx, natural=not self.is_master
            )
            live = self.live_view()
            if not live:
                raise IOEx("no live datanodes")
            start = block % len(live)
            rotated = live[start:] + live[:start]
            return rotated[: self.cfg.replication_factor]

    # ------------------------------------------------- master periodic work

    def liveness_tick(self) -> None:
        """Master-side datanode liveness: queue re-replication for blocks
        on datanodes whose heartbeats went stale."""
        if not self.is_master:
            return
        with self.rt.function("DfsNode.liveness_tick"):
            live = set(self.live_view())
            for name in sorted(self.last_dn_heartbeat):
                dead = self.rt.detector("nn.dn.is_dead", name not in live)
                if dead and self.cfg.rerepl_enabled:
                    self._queue_under_replicated()
            self.update_metrics()

    def _queue_under_replicated(self) -> None:
        live = set(self.live_view())
        for block in sorted(self.block_map):
            holders = self.block_map[block] & live
            under = self.rt.detector(
                "nn.block.is_under", len(holders) < self.cfg.replication_factor
            )
            if under and block not in self.pending_rerepl and block not in self.inflight_acks:
                self.pending_rerepl.append(block)

    def rerepl_tick(self) -> None:
        """Master re-replication scan: restore the replication factor of
        pending blocks from surviving replicas."""
        if not self.is_master:
            return
        with self.rt.function("DfsNode.rerepl_tick"):
            live = self.live_view()
            issued = 0
            scan = list(self.pending_rerepl)
            # A failed transfer grew the backlog: re-verify that many
            # already-placed blocks, oldest first — each verification
            # re-copies the block between two live holders (an integrity
            # re-check is a full transfer, not a metadata lookup).
            verify: Set[int] = set()
            if self.rescan_backlog > 0:
                placed = [b for b in sorted(self.block_map) if b not in scan]
                verify = set(placed[: self.rescan_backlog])
                scan = sorted(verify) + scan  # distrusted placements first
            still_pending: List[int] = []
            verified = 0
            for block in self.rt.loop("nn.rerepl.scan", scan):
                self.env.spin(self.cfg.rerepl_scan_cost_ms)
                if block in self.inflight_acks:
                    continue  # the ack machinery owns it until acked or aged out
                holders = self.block_map.get(block, set())
                live_holders = sorted(h for h in holders if h in live)
                if block in verify:
                    sources = live_holders[:1]
                    targets = live_holders[1:2]
                else:
                    sources = live_holders
                    targets = [n for n in live if n not in holders]
                if not sources or not targets or issued >= self.cfg.rerepl_batch:
                    if block in self.pending_rerepl:
                        still_pending.append(block)
                    continue
                issued += 1
                if block in verify:
                    verified += 1
                target = next(
                    (p for p in self.datanodes() if p.name == targets[0]), None
                )
                if target is None:  # pragma: no cover - live view names peers
                    continue
                try:
                    self.rt.lib_call(
                        "nn.rerepl.rpc", IOEx, self.env.rpc, target,
                        target.handle_receive, block, [target.name], sources[0],
                        timeout_ms=self.cfg.rerepl_rpc_timeout_ms,
                    )
                except IOEx:
                    self.transfers_failed += 1
                    rescan = self.rt.branch(
                        "nn.rerepl.b_rescan", self.cfg.rescan_on_failure
                    )
                    still_pending.append(block)
                    if rescan:
                        # THE BUG (DFS-3): the transfer failed, so the
                        # placement bookkeeping is distrusted and a window
                        # of already-placed blocks is re-verified — more
                        # scan work and more transfers next tick, keeping
                        # the survivors too busy to answer this one.
                        self.rescan_backlog += self.cfg.rescan_window
                    continue
                if self.cfg.rerepl_ack_required and block not in verify:
                    # Placement is provisional until the target's ack
                    # datagram arrives (verify transfers stay immediate:
                    # both ends already hold the block).
                    self.inflight_acks[block] = (target.name, sources[0], self.env.now)
                else:
                    self.block_map.setdefault(block, set()).add(target.name)
            self.pending_rerepl = still_pending
            self.rescan_backlog = max(0, self.rescan_backlog - verified)

    def handle_rerepl_ack(self, block: int, name: str) -> None:
        """One-way transfer ack: the provisional placement is now trusted."""
        if not self.is_master:
            return
        self.acks_received += 1
        self.inflight_acks.pop(block, None)
        self.block_map.setdefault(block, set()).add(name)

    def ack_scan_tick(self) -> None:
        """Master overdue-ack scan: retry transfers whose ack never came.

        The retry re-copies the block to its target — correct when the
        *transfer* was lost, pure duplicate work when only the ack was.
        """
        if not self.is_master:
            return
        with self.rt.function("DfsNode.ack_scan_tick"):
            live = set(self.live_view())
            distrust = self.env.now < self.ack_panic_until
            overdue: List[int] = []
            for block in self.rt.loop("nn.ack.scan", sorted(self.inflight_acks)):
                self.env.spin(self.cfg.ack_scan_cost_ms)
                aged = self.env.now - self.inflight_acks[block][2] > self.cfg.ack_timeout_ms
                if aged or distrust:
                    overdue.append(block)
            for block in overdue:
                target_name, source_name, _ = self.inflight_acks[block]
                if target_name not in live:
                    # The target died: hand the block back to the normal
                    # re-replication planner.
                    self.inflight_acks.pop(block, None)
                    if block not in self.pending_rerepl:
                        self.pending_rerepl.append(block)
                    continue
                target = next(
                    (p for p in self.datanodes() if p.name == target_name), None
                )
                if target is None:  # pragma: no cover - live view names peers
                    self.inflight_acks.pop(block, None)
                    continue
                self.retries_issued += 1
                try:
                    self.rt.lib_call(
                        "nn.retry.rpc", IOEx, self.env.rpc, target,
                        target.handle_receive, block, [target_name], source_name,
                        timeout_ms=self.cfg.retry_rpc_timeout_ms,
                    )
                except IOEx:
                    panic = self.rt.branch("nn.ack.b_panic", self.cfg.retry_panic)
                    if panic:
                        # THE BUG (DFS-4): a retry that itself timed out
                        # reads as wholesale ack-channel loss, so the ack
                        # path is distrusted for a whole window — every
                        # scan inside it retries every inflight transfer,
                        # however fresh.  The duplicate copies keep the
                        # datanodes too busy to flush acks promptly, and
                        # any late retry answer re-opens the window.
                        self.ack_panic_until = (
                            self.env.now + self.cfg.ack_panic_window_ms
                        )
                    continue
                self.inflight_acks[block] = (target_name, source_name, self.env.now)

    def update_metrics(self) -> None:
        """Flush the master's gauge set (constant-bound loop: the §4.1
        scalability rule excludes it from the fault space)."""
        for _ in self.rt.loop("nn.metrics.flush", range(3)):
            self.env.spin(0.05)

    def check_acl(self, principal: str) -> None:
        """Allocation ACL check (security-related throw: excluded by the
        §4.1 exception filter)."""
        self.rt.throw_point("dfs.sec.acl_check", IOEx, natural=principal == "")

    # ------------------------------------------------------------ dead code

    def fsck_scan_legacy(self) -> int:
        """Pre-re-replication namespace audit, superseded by rerepl_tick.

        Dead code: no workload path or peer RPC calls it anymore, but its
        instrumented loop (``nn.fsck.scan``) is still in the site registry,
        declared dead, so its faults leave the space; the code-slice
        reachability analysis proves it unreachable from every workload
        entry point (``tests/unit/test_dead_sites.py``).
        """
        checked = 0
        for _ in self.rt.loop("nn.fsck.scan", sorted(self.block_map)):
            self.env.spin(1.0)
            checked += 1
        return checked


class DfsClient(Node):
    """Client writing and reading blocks through its master view."""

    def __init__(
        self,
        env: SimEnv,
        rt: Runtime,
        nodes: List[DfsNode],
        index: int,
        writes_per_tick: int = 2,
        reads_per_tick: int = 1,
        interval_ms: float = 4_000.0,
    ) -> None:
        super().__init__(env, "dfscli%d" % index)
        self.rt = rt
        self.nodes = nodes
        self.writes_per_tick = writes_per_tick
        self.reads_per_tick = reads_per_tick
        self.written: List[int] = []
        self._next_block = 1_000 + 10_000 * index
        env.every(self, interval_ms, self.submit_tick, jitter_ms=100.0)

    def _master(self) -> Optional[DfsNode]:
        acting = [n for n in self.nodes if n.is_master and not n.crashed]
        return acting[0] if acting else None

    def submit_tick(self) -> None:
        with self.rt.function("DfsClient.submit_tick"):
            master = self._master()
            ops = ["w"] * self.writes_per_tick + ["r"] * self.reads_per_tick
            for op in self.rt.loop("cli.ops.submit", ops):
                if master is None:
                    continue
                if op == "w":
                    self._write(master)
                else:
                    self._read(master)

    def _write(self, master: DfsNode) -> None:
        block = self._next_block
        try:
            pipeline = self.rt.lib_call(
                "cli.alloc.rpc", IOEx, self.env.rpc, master,
                master.handle_allocate, block,
            )
        except IOEx:
            return
        primary = next((n for n in self.nodes if n.name == pipeline[0]), None)
        if primary is None:
            return
        try:
            self.rt.lib_call(
                "cli.data.rpc", IOEx, self.env.rpc, primary,
                primary.handle_write, block, list(pipeline),
            )
        except IOEx:
            return
        self._next_block += 1
        self.written.append(block)

    def _read(self, master: DfsNode) -> None:
        if not self.written:
            return
        block = self.written[len(self.written) // 2]
        holders = sorted(master.block_map.get(block, set()))
        holder = next(
            (n for n in self.nodes if holders and n.name == holders[block % len(holders)]),
            None,
        )
        if holder is None:
            return
        try:
            self.rt.lib_call(
                "cli.read.rpc", IOEx, self.env.rpc, holder, holder.handle_read, block,
            )
        except IOEx:
            return
