"""MiniHDFS NameNode: block manager, report processing, leases, edit log,
replication monitor, HA failover, and (v3) the async report event queue."""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from ...errors import IOEx, NotPrimary, SafeModeException
from ...instrument.runtime import Runtime
from ...sim import Node, SimEnv
from .hconfig import HdfsConfig


class NameNode(Node):
    """The (active) NameNode.  HA failover is modelled as a short window in
    which the node rejects RPCs with ``StandbyException`` until DataNodes
    reconnect — the state is shared via the journal, so the same object
    serves as the new active afterwards."""

    def __init__(self, env: SimEnv, rt: Runtime, cfg: HdfsConfig) -> None:
        super().__init__(env, "namenode")
        self.rt = rt
        self.cfg = cfg
        self.active = True
        self.safemode = False
        self.failovers = 0
        # Block state: block id -> set of DN names holding it.
        self.blocks: Dict[str, Set[str]] = {}
        # Blocks allocated to files (expected replication).
        self.expected: Dict[str, int] = {}
        self.under_replicated: deque = deque()
        self.recovering: Set[str] = set()
        # DataNode liveness.
        self.datanodes: Dict[str, object] = {}
        self.last_heartbeat: Dict[str, float] = {}
        self.reported_bad: Set[str] = set()
        self.dead: Set[str] = set()
        # Per-DN command queues delivered on heartbeats.
        self.commands: Dict[str, List[tuple]] = {}
        # Leases: file -> (client name, expiry, last block id).
        self.leases: Dict[str, Tuple[str, float, Optional[str]]] = {}
        # Edit log.
        self.edit_buffer: List[tuple] = []
        self.edits_flushed = 0
        self.ibr_backlog = 0
        # HDFS 3: async report event queue.
        self.event_queue: deque = deque()
        self._placement_seq = 0
        self._last_flush_done = 0.0
        self.recovery_started: Dict[str, float] = {}

        env.every(self, cfg.edit_flush_interval_ms, self.flush_edits)
        env.every(self, 4_000.0, self.replication_monitor)
        env.every(self, 5_000.0, self.lease_monitor)
        if cfg.version >= 3:
            env.every(self, 1_000.0, self.dispatch_events)

    # ----------------------------------------------------------------- util

    def _log_edit(self, op: str, arg: str) -> None:
        self.edit_buffer.append((op, arg))

    def check_active(self) -> None:
        self.rt.throw_point("nn.rpc.not_primary", NotPrimary, natural=not self.active)

    def check_safemode(self) -> None:
        self.rt.throw_point("nn.safemode.ioe", SafeModeException, natural=self.safemode)

    def _failover(self) -> None:
        """Edit backlog exceeded the journal cap: the active NN is fenced.
        The standby (same shared state) takes over after a short window."""
        if not self.active:
            return
        self.active = False
        self.failovers += 1
        self.edit_buffer.clear()  # journal handed to the standby

        def take_over() -> None:
            self.active = True

        # Fencing plus standby catch-up window.
        self.env.after(self, 4_000.0, take_over)

    # ------------------------------------------------------------ rpc: dn

    def register(self, dn_name: str, node: object, block_ids: List[str]) -> None:
        self.check_alive()
        self.datanodes[dn_name] = node
        self.commands.setdefault(dn_name, [])
        self.last_heartbeat[dn_name] = self.env.now
        self.dead.discard(dn_name)
        for bid in block_ids:
            self.blocks.setdefault(bid, set()).add(dn_name)
        self.env.spin(0.5)

    def heartbeat(self, dn_name: str) -> List[tuple]:
        # Heartbeats are served by active and standby alike (HA liveness).
        self.check_alive()
        self.last_heartbeat[dn_name] = self.env.now
        queued = self.commands.get(dn_name, [])
        batch, self.commands[dn_name] = queued[:8], queued[8:]
        self.env.spin(0.1)
        return batch

    def process_ibr(self, dn_name: str, entries: List[tuple]) -> None:
        """Incremental block report (synchronous path; v3 enqueues)."""
        self.check_alive()
        self.check_active()  # a fenced NN rejects reports with StandbyException
        with self.rt.function("NameNode.process_ibr"):
            self.rt.branch("nn.ibr.b_standby", not self.active)
            # NOTE: the overflow condition is the throw point's own guard —
            # recording it as a monitor point would make natural (guard
            # true) and injected (guard false) occurrences of the throw
            # look incompatible to the §6.2 check.
            overflow = self.ibr_backlog + len(entries) > self.cfg.nn_ibr_backlog_cap
            self.rt.throw_point("nn.ibr.overflow", IOEx, natural=overflow)
            # The backlog drains at a fixed rate per edit-flush tick, so IBR
            # storms (rebuilds, corrupt-replica floods) push it over the cap.
            self.ibr_backlog += len(entries)
            for kind, bid in self.rt.loop("nn.ibr.entries", entries):
                self.env.spin(self.cfg.nn_ibr_entry_cost_ms)
                self._apply_block_event(dn_name, kind, bid)
                self._log_edit("ibr", bid)

    def _apply_block_event(self, dn_name: str, kind: str, bid: str) -> None:
        if kind == "added":
            holders = self.blocks.setdefault(bid, set())
            if dn_name in holders and bid in self.recovering:
                # Duplicate receipt of a recovering block: restart recovery
                # to be safe (the H2-4 re-recovery path).
                self._issue_recovery(bid)
            holders.add(dn_name)
        elif kind == "deleted":
            self.blocks.get(bid, set()).discard(dn_name)
        elif kind == "corrupt":
            self.blocks.get(bid, set()).discard(dn_name)
            self.under_replicated.append(bid)
            if bid in self.recovering:
                # THE BUG (H2-3): a corrupt replica during recovery blindly
                # restarts the recovery, no matter how often it failed.
                self.recovery_started[bid] = 0.0  # force immediate re-issue
                self._issue_recovery(bid)

    def process_full_report(self, dn_name: str, block_ids: List[str]) -> None:
        self.check_alive()
        with self.rt.function("NameNode.process_full_report"):
            for bid in self.rt.loop("nn.fbr.entries", block_ids):
                self.env.spin(0.05)
                self.blocks.setdefault(bid, set()).add(dn_name)

    # -------------------------------------------------------- rpc: client

    def add_block(self, file_id: str, client: str) -> Tuple[str, List[object]]:
        self.check_alive()
        self.check_active()
        self.check_safemode()
        bid = "%s#b%d" % (file_id, len(self.expected))
        self.expected[bid] = self.cfg.replication
        live = [d for n, d in sorted(self.datanodes.items()) if n not in self.dead]
        # Rotate pipeline placement across the live set (block placement
        # policy balancing).
        if live:
            start = self._placement_seq % len(live)
            live = live[start:] + live[:start]
            self._placement_seq += 1
        pipeline = live[: max(1, self.cfg.replication)]
        if not pipeline:
            raise IOEx("no datanodes available")
        self.leases[file_id] = (client, self.env.now + self.cfg.lease_soft_ms, bid)
        self._log_edit("add_block", bid)
        self.env.spin(0.3)
        return bid, pipeline

    def renew_lease(self, file_id: str, client: str) -> None:
        self.check_alive()
        lease = self.leases.get(file_id)
        if lease is not None:
            self.leases[file_id] = (client, self.env.now + self.cfg.lease_soft_ms, lease[2])

    def complete_file(self, file_id: str, bid: str) -> bool:
        """True if the last block has been reported by at least one DN."""
        self.check_alive()
        self.check_active()
        reported = bool(self.blocks.get(bid))
        if reported:
            self.leases.pop(file_id, None)
            self._log_edit("complete", file_id)
        self.env.spin(0.2)
        return reported

    def report_bad_datanode(self, dn_name: str) -> None:
        self.check_alive()
        if self.cfg.client_report_bad_dn:
            self.reported_bad.add(dn_name)

    # -------------------------------------------------------------- periodic

    def flush_edits(self) -> None:
        with self.rt.function("NameNode.flush_edits"):
            lagged = self.env.now - self._last_flush_done > self.cfg.edit_lag_cap_ms
            over = len(self.edit_buffer) > self.cfg.edit_backlog_cap
            self.rt.branch("nn.edit.b_backlog", over or lagged)
            if (over or lagged) and self.cfg.ha:
                self._failover()
                self._last_flush_done = self.env.now
                return
            flush_started = self.env.now
            batch, self.edit_buffer = self.edit_buffer, []
            for _edit in self.rt.loop("nn.edit.flush", batch):
                self.env.spin(self.cfg.edit_cost_ms)
                self.edits_flushed += 1
            self._last_flush_done = self.env.now
            self.ibr_backlog = max(0, self.ibr_backlog - self.cfg.ibr_backlog_drain)
            if self.env.now - flush_started > self.cfg.edit_lag_cap_ms and self.cfg.ha:
                # The journal fell behind by more than the failover
                # controller tolerates: the active NN gets fenced.
                self._failover()

    def replication_monitor(self) -> None:
        with self.rt.function("NameNode.replication_monitor"):
            for dn_name in sorted(self.datanodes):
                gap = self.env.now - self.last_heartbeat.get(dn_name, 0.0)
                stale = self.rt.detector(
                    "nn.dn.is_stale",
                    gap > self.cfg.stale_timeout_ms or dn_name in self.reported_bad,
                )
                if stale and self.cfg.rereplication and dn_name not in self.dead:
                    self.dead.add(dn_name)
                    hosted = [b for b, holders in self.blocks.items() if dn_name in holders]
                    for bid in hosted[: self.cfg.rereplication_cap]:
                        self.blocks[bid].discard(dn_name)
                        self.under_replicated.append(bid)
                elif not stale:
                    self.dead.discard(dn_name)
                self.reported_bad.discard(dn_name)
            # Allocated-but-unreported blocks also count as under-replicated.
            for bid, expect in self.expected.items():
                holders = self.blocks.get(bid, set())
                if 0 < len(holders) < expect:
                    self.under_replicated.append(bid)
            self.expected = {
                b: e for b, e in self.expected.items() if len(self.blocks.get(b, set())) < e
            }
            work, self.under_replicated = list(self.under_replicated), deque()
            seen: Set[str] = set()
            for bid in self.rt.loop("nn.repl.scan", work):
                self.env.spin(0.1)
                if bid in seen:
                    continue
                seen.add(bid)
                holders = self.blocks.get(bid, set())
                under = self.rt.detector(
                    "nn.block.is_under_replicated", 0 < len(holders) < self.cfg.replication
                )
                urgent = self.rt.branch("nn.repl.b_urgent", len(holders) <= 1)
                if under or urgent:
                    src = sorted(h for h in holders if h not in self.dead)
                    dst = [
                        n
                        for n in sorted(self.datanodes)
                        if n not in holders and n not in self.dead
                    ]
                    if self.cfg.reconstruction and dst:
                        self.commands[dst[0]].append(("reconstruct", bid))
                        self._log_edit("reconstruct", bid)
                    elif src and dst:
                        self.commands[src[0]].append(("replicate", bid, dst[0]))
                        self._log_edit("replicate", bid)
            # Invalidate extra replicas of over-replicated blocks, the few
            # ids sorted, not every block's.
            replication = self.cfg.replication
            for bid in sorted(b for b in self.blocks if len(self.blocks[b]) > replication):
                holders = self.blocks[bid]
                for dn_name in sorted(holders)[replication:]:
                    holders.discard(dn_name)
                    self.commands.setdefault(dn_name, []).append(("delete", bid))
                    self._log_edit("invalidate", bid)
            # Recovery monitor: recoveries that have not concluded within
            # the re-issue timeout are issued again (the retry logic H2-3
            # and H2-4 feed on).
            for bid in sorted(self.recovering):
                started = self.recovery_started.get(bid, 0.0)
                if self.env.now - started > self.cfg.recovery_reissue_ms:
                    self._issue_recovery(bid)
                    self.recovery_started[bid] = self.env.now

    def lease_monitor(self) -> None:
        with self.rt.function("NameNode.lease_monitor"):
            for file_id in self.rt.loop("nn.lease.scan", sorted(self.leases)):
                self.env.spin(0.2)
                client, expiry, bid = self.leases[file_id]
                expired = self.rt.branch("nn.lease.b_expired", self.env.now > expiry)
                if expired:
                    del self.leases[file_id]
                    if bid is not None and self.cfg.recovery_enabled:
                        self._issue_recovery(bid)

    def _issue_recovery(self, bid: str) -> None:
        if bid not in self.recovering:
            self.recovery_started[bid] = self.env.now
        self.recovering.add(bid)
        holders = sorted(self.blocks.get(bid, set()) - self.dead)
        targets = holders or sorted(set(self.datanodes) - self.dead)
        if targets:
            queue = self.commands.setdefault(targets[0], [])
            if ("recover", bid) not in queue:
                queue.append(("recover", bid))
                self._log_edit("recover", bid)

    def finish_recovery(self, bid: str, ok: bool) -> None:
        self.check_alive()
        if ok:
            self.recovering.discard(bid)
            self.recovery_started.pop(bid, None)

    # ---------------------------------------------------------- v3: events

    def enqueue_event(self, dn_name: str, kind: str, payload: List[tuple]) -> None:
        """HDFS 3: reports are queued and handled asynchronously."""
        self.check_alive()
        saturated = self.rt.detector(
            "nn3.eventq.is_saturated", len(self.event_queue) >= self.cfg.eventq_cap
        )
        self.rt.throw_point("nn3.eventq.overflow", IOEx, natural=saturated)
        self.event_queue.append((dn_name, kind, payload))
        self.env.spin(0.05)

    def dispatch_events(self) -> None:
        with self.rt.function("NameNode.dispatch_events"):
            batch = []
            while self.event_queue:
                batch.append(self.event_queue.popleft())
            for dn_name, kind, payload in self.rt.loop("nn3.eventq.dispatch", batch):
                self.env.spin(0.2)
                self.rt.branch("nn3.eventq.b_kind", kind == "ibr")
                try:
                    if kind == "ibr":
                        self.process_ibr(dn_name, payload)
                    else:
                        self.process_full_report(dn_name, [b for _, b in payload])
                except IOEx:
                    # Async handler errors surface at a dedicated site — the
                    # extra error-handler layer HDFS 3 adds (§8.4.1).
                    try:
                        self.rt.throw_point("nn3.eventq.handler_ioe", IOEx, natural=True)
                    except IOEx:
                        pass
