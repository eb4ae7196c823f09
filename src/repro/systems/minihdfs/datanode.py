"""MiniHDFS DataNode: BPServiceActor (heartbeats, IBRs, commands), the
write pipeline, block recovery, the replica cache, and (v3) the deletion
service and EC-style block reconstruction."""

from __future__ import annotations

import zlib
from collections import OrderedDict, deque
from typing import Dict, List, Set

from ...errors import IOEx, NotPrimary, ReplicaAlreadyExists, RpcTimeout
from ...instrument.runtime import Runtime
from ...sim import Node, SimEnv
from .hconfig import HdfsConfig
from .namenode import NameNode


class RecoveryInProgress(IOEx):
    """A second recovery reached a block whose recovery is still running."""


class DataNode(Node):
    def __init__(self, env: SimEnv, rt: Runtime, nn: NameNode, cfg: HdfsConfig, index: int) -> None:
        super().__init__(env, "dn%d" % index)
        self.rt = rt
        self.nn = nn
        self.cfg = cfg
        self.finalized: Set[str] = set()
        self.tmp_replicas: Set[str] = set()
        self.rebuilt_genstamp: Set[str] = set()  # replicas left by pipeline rebuilds
        self.recovering_until: Dict[str, float] = {}
        self.pending_ibr: List[tuple] = []
        self.force_ibr = False
        self.last_ibr_sent = 0.0
        self.last_fbr_sent = 0.0
        self.must_register = True
        # Replica metadata cache (H2-5): ordered for LRU eviction.
        self.cache: "OrderedDict[str, float]" = OrderedDict()
        # v3 work queues.
        self.deletion_queue: deque = deque()
        self.recon_queue: deque = deque()

        env.every(self, cfg.heartbeat_interval_ms, self.offer_service, jitter_ms=60.0)
        env.every(self, cfg.cache_tick_ms, self.cache_tick)
        if cfg.scanner_interval_ms > 0:
            env.every(self, cfg.scanner_interval_ms, self.scanner_tick)
        if cfg.version >= 3:
            env.every(self, cfg.deletion_tick_ms, self.deletion_tick)
            if cfg.reconstruction:
                env.every(self, cfg.recon_tick_ms, self.reconstruction_tick)

    # -------------------------------------------------------- BPServiceActor

    def offer_service(self) -> None:
        """One heartbeat round: the Figure 5 loop structure — a wrapper
        iteration with the command loop and the IBR conversion loop nested
        inside it."""
        with self.rt.function("DataNode.offer_service"):
            for _ in self.rt.loop("dn.bpsa.offer", (0,)):
                if self.must_register:
                    self._register()
                    if self.must_register:
                        continue  # registration failed; retry next round
                try:
                    commands = self.rt.rpc_call(
                        "dn.hb.rpc", IOEx, self.env.rpc, self.nn, self.nn.heartbeat,
                        self.name, timeout_ms=self.cfg.hb_rpc_timeout_ms,
                    )
                except NotPrimary:
                    self.must_register = True
                    continue
                except IOEx:
                    continue
                for cmd in self.rt.loop("dn.bpsa.cmds", commands):
                    self.env.spin(0.5)
                    self._process_command(cmd)
                self._send_ibr_if_due()
                self._send_fbr_if_due()

    def _register(self) -> None:
        try:
            self.env.rpc(
                self.nn, self.nn.register, self.name, self, sorted(self.finalized)
            )
            self.must_register = False
        except IOEx:
            pass

    def _process_command(self, cmd: tuple) -> None:
        if cmd[0] == "replicate":
            _, bid, target_name = cmd
            target = self.nn.datanodes.get(target_name)
            if target is not None:
                self.replicate_block(bid, target)
        elif cmd[0] == "recover":
            self.recover_block(cmd[1])
        elif cmd[0] == "delete":
            if self.cfg.version >= 3:
                self.deletion_queue.append(cmd[1])
            else:
                self._delete_block(cmd[1])
        elif cmd[0] == "reconstruct":
            self.recon_queue.append(cmd[1])

    def _send_ibr_if_due(self) -> None:
        cfg = self.cfg
        force = self.rt.branch("dn.bpsa.b_force_ibr", self.force_ibr)
        due = (
            not cfg.ibr_throttling
            or force
            or self.env.now - self.last_ibr_sent >= cfg.ibr_interval_ms
        )
        if not self.pending_ibr or not due:
            return
        entries = []
        for entry in self.rt.loop("dn.ibr.convert", list(self.pending_ibr)):
            self.env.spin(0.05)
            entries.append(entry)
        try:
            if self.cfg.version >= 3:
                self.rt.rpc_call(
                    "dn.ibr.rpc", IOEx, self.env.rpc, self.nn, self.nn.enqueue_event,
                    self.name, "ibr", entries, timeout_ms=cfg.ibr_rpc_timeout_ms,
                )
            else:
                self.rt.rpc_call(
                    "dn.ibr.rpc", IOEx, self.env.rpc, self.nn, self.nn.process_ibr,
                    self.name, entries, timeout_ms=cfg.ibr_rpc_timeout_ms,
                )
            self.pending_ibr = self.pending_ibr[len(entries):]
            self.force_ibr = False
            self.last_ibr_sent = self.env.now
        except NotPrimary:
            self.must_register = True
            if cfg.ibr_throttling:
                self.force_ibr = True
            else:
                self.pending_ibr = self.pending_ibr[len(entries):]
        except IOEx:
            if cfg.ibr_throttling:
                # THE BUG (H2-6 / HDFS-17780): a failed IBR is retried at
                # the very next heartbeat, ignoring the configured interval.
                self.force_ibr = True
            else:
                # Fire-and-forget: the next full report will reconcile.
                self.pending_ibr = self.pending_ibr[len(entries):]

    def _send_fbr_if_due(self) -> None:
        if self.env.now - self.last_fbr_sent < self.cfg.fbr_interval_ms:
            return
        self.last_fbr_sent = self.env.now
        blocks = sorted(self.finalized)
        try:
            if self.cfg.version >= 3:
                self.rt.rpc_call(
                    "dn.fbr.rpc", IOEx, self.env.rpc, self.nn, self.nn.enqueue_event,
                    self.name, "fbr", [("added", b) for b in blocks],
                    timeout_ms=self.cfg.fbr_rpc_timeout_ms,
                )
            else:
                self.rt.rpc_call(
                    "dn.fbr.rpc", IOEx, self.env.rpc, self.nn, self.nn.process_full_report,
                    self.name, blocks, timeout_ms=self.cfg.fbr_rpc_timeout_ms,
                )
        except IOEx:
            pass  # the next full-report round retries

    # --------------------------------------------------------- write pipeline

    def receive_block(
        self, bid: str, pipeline: List["DataNode"], packets: int, is_transfer: bool = False
    ) -> None:
        """Receive a block and forward it down the pipeline."""
        self.check_alive()
        with self.rt.function("DataNode.receive_block"):
            self.create_tmp(bid, is_transfer)
            blocked = self.env.now < self.recovering_until.get(bid, -1.0)
            self.rt.branch("dn.pipe.b_downstream", bool(pipeline))
            self.rt.throw_point("dn.pipe.ioe", IOEx, natural=blocked)
            for p in self.rt.loop("dn.pipe.packets", range(packets)):
                self.env.spin(0.4)
                self.rt.branch("dn.pipe.b_last_packet", p == packets - 1)
            if pipeline:
                downstream, rest = pipeline[0], pipeline[1:]
                try:
                    self.env.rpc(
                        downstream, downstream.receive_block, bid, rest, packets,
                        is_transfer, timeout_ms=self.cfg.pipe_rpc_timeout_ms,
                    )
                except (RpcTimeout, IOEx):
                    self.rt.throw_point("dn.pipe.ioe", IOEx, natural=True)
            self._finalize(bid)

    def create_tmp(self, bid: str, is_transfer: bool) -> None:
        with self.rt.function("DataNode.create_tmp"):
            exists = (bid in self.tmp_replicas or bid in self.finalized) and not is_transfer
            self.rt.throw_point("dn.pipe.replica_exists", ReplicaAlreadyExists, natural=exists)
            self.tmp_replicas.add(bid)

    def _finalize(self, bid: str) -> None:
        self.tmp_replicas.discard(bid)
        if bid not in self.finalized:
            self.finalized.add(bid)
            self.pending_ibr.append(("added", bid))
        self.cache[bid] = self.env.now
        self.cache.move_to_end(bid)

    def abort_block(self, bid: str) -> None:
        """Client gave up on a pipeline attempt through this DN; the tmp
        replica lingers (with a stale genstamp if rebuilds conflict) and the
        NameNode must learn it is unusable."""
        self.check_alive()
        # The NameNode must learn the abandoned replica is unusable and
        # schedule its removal.
        self.pending_ibr.append(("corrupt", bid))
        self.pending_ibr.append(("deleted", bid))
        if self.cfg.genstamp_conflicts:
            self.rebuilt_genstamp.add(bid)

    # ---------------------------------------------------------- replication

    def replicate_block(self, bid: str, target: "DataNode") -> None:
        with self.rt.function("DataNode.replicate_block"):
            if bid not in self.finalized:
                return
            try:
                self.rt.lib_call(
                    "dn.repl.transfer", IOEx, self.env.rpc, target, target.receive_block,
                    bid, [], self.cfg.packets_per_block, True,
                    timeout_ms=self.cfg.pipe_rpc_timeout_ms,
                )
            except IOEx:
                self.pending_ibr.append(("corrupt", bid))

    # -------------------------------------------------------- block recovery

    def recover_block(self, bid: str) -> None:
        """Coordinate a recovery session for ``bid``.

        A session spans wall-clock time (the primary DN syncs the other
        replicas), so a recovery command arriving while a previous session
        is still open hits ``RecoveryInProgressException`` — which the
        NameNode handles by rescheduling, the retry loop H2-3 feeds on.
        """
        with self.rt.function("DataNode.recover_block"):
            in_progress = self.env.now < self.recovering_until.get(bid, -1.0)
            try:
                self.rt.throw_point("dn.rec.ioe", RecoveryInProgress, natural=in_progress)
            except RecoveryInProgress:
                self.pending_ibr.append(("corrupt", bid))
                self._reschedule_recovery(bid)
                return
            t_start = self.env.now
            attempts = 0
            ok = False
            while self.rt.loop_guard(
                "dn.rec.attempts", attempts < self.cfg.recovery_max_attempts
            ):
                attempts += 1
                self.env.spin(2.0)
                mismatch = self.rt.branch("dn.rec.b_genstamp", bid in self.rebuilt_genstamp)
                if mismatch:
                    if not self.cfg.genstamp_conflicts:
                        self.rebuilt_genstamp.discard(bid)
                    continue  # retry with a new genstamp
                ok = True
                break
            if self.env.now - t_start > self.cfg.recovery_session_lease_ms:
                # The recovery coordinator's lease expired mid-session: the
                # NameNode cannot accept the result.
                ok = False
            # The session covers the coordination work just performed plus a
            # grace period for the replica sync acknowledgements; failed
            # sessions hold the block longer (the sync is unresolved).
            grace = 4_000.0 if ok else 30_000.0
            self.recovering_until[bid] = self.env.now + grace
            try:
                self.env.rpc(self.nn, self.nn.finish_recovery, bid, ok)
            except IOEx:
                pass
            if ok and self.cfg.client_restream_on_ibr_loss:
                # Recovery truncated the replica: the writer re-streams the
                # tail (the H2-4 closing path).
                self.pending_ibr.append(("added", bid))

    def _reschedule_recovery(self, bid: str) -> None:
        def retry() -> None:
            self.recover_block(bid)

        self.env.after(self, 4_000.0, retry)

    def _delete_block(self, bid: str) -> None:
        self.finalized.discard(bid)
        self.cache.pop(bid, None)
        self.pending_ibr.append(("deleted", bid))

    # ---------------------------------------------------------- replica cache

    def cache_tick(self) -> None:
        with self.rt.function("DataNode.cache_tick"):
            full = self.rt.detector("dn.cache.is_full", len(self.cache) > self.cfg.cache_capacity)
            self.rt.branch("dn.cache.b_pressure", len(self.cache) > self.cfg.cache_capacity // 2)
            if not full:
                return
            target = max(1, int(self.cfg.cache_capacity * 0.9))
            evict = len(self.cache) - target
            victims = list(self.cache)[:evict]
            for bid in self.rt.loop("dn.cache.evict", victims):
                self.env.spin(self.cfg.cache_entry_cost_ms)
                self.cache.pop(bid, None)

    def scanner_tick(self) -> None:
        """DirectoryScanner analogue: refresh metadata cache entries for a
        quarter of the finalized replicas (cheap per entry, but it keeps the
        cache churning on replica-heavy nodes)."""
        for bid in sorted(self.finalized)[: len(self.finalized) // 4]:
            self.cache[bid] = self.env.now
            self.cache.move_to_end(bid)
            self.env.spin(0.02)

    # ------------------------------------------------------------- v3 only

    def deletion_tick(self) -> None:
        with self.rt.function("DataNode.deletion_tick"):
            batch = []
            while self.deletion_queue:
                batch.append(self.deletion_queue.popleft())
            self.rt.branch("dn3.del.b_batch", len(batch) > 8)
            for bid in self.rt.loop("dn3.del.work", batch):
                self.env.spin(0.8)
                self._delete_block(bid)

    def reconstruction_tick(self) -> None:
        with self.rt.function("DataNode.reconstruction_tick"):
            batch = []
            while self.recon_queue:
                batch.append(self.recon_queue.popleft())
            for bid in self.rt.loop("dn3.recon.work", batch):
                self.env.spin(1.5)
                sources = [
                    d
                    for n, d in sorted(self.nn.datanodes.items())
                    if n != self.name and isinstance(d, DataNode) and bid in d.finalized
                ]
                if not sources:
                    continue
                try:
                    self.rt.lib_call(
                        "dn3.recon.fetch", IOEx, self.env.rpc, sources[0],
                        sources[0].read_block, bid,
                        timeout_ms=self.cfg.recon_fetch_timeout_ms,
                    )
                except IOEx:
                    # A failed fetch invalidates the stripe group: retry the
                    # block and re-verify its neighbours.
                    self.recon_queue.append(bid)
                    group = sorted(self.nn.blocks)
                    if group:
                        start = zlib.crc32(bid.encode()) % len(group)
                        for i in range(8):
                            self.recon_queue.append(group[(start + i) % len(group)])
                    continue
                self._finalize(bid)

    def read_block(self, bid: str) -> int:
        self.check_alive()
        self.env.spin(1.0)
        if bid not in self.finalized:
            raise IOEx("%s missing %s" % (self.name, bid))
        return self.cfg.packets_per_block
