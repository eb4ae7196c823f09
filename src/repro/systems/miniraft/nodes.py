"""MiniRaft nodes: a Raft-style replicated log on the virtual-time substrate.

Three peers run leader election, log replication (AppendEntries with
per-follower ``next_index`` bookkeeping), and snapshot install for lagging
followers.  A client appends commands to whichever node currently leads.
The consensus loops are exactly the retry/election feedback paths the
paper targets:

RAFT-1 (append retry storm): a slow follower apply loop times out the
leader's AppendEntries RPC; with resend-on-timeout configured, the leader
rolls ``next_index`` back a whole resend window, so the follower re-applies
entries it already has — which is what made it slow.

RAFT-2 (election-timeout livelock): slow AppendEntries application defers
the follower's next heartbeat until its node drains, the election-timeout
detector trips, and the ensuing election makes the new leader re-send a
conservative catch-up window to every peer — more apply work, later
heartbeats, further elections.

RAFT-3 (quorum resync storm): when the leader's quorum detector reports
lost quorum, the resync fallback distrusts every ``match_index`` and
re-sends a resync window to all followers; the duplicated apply work
delays the very acks the quorum detector is waiting for.

RAFT-4 (snapshot install churn): a slow snapshot install times out the
leader's InstallSnapshot RPC; with snapshot retry configured the next tick
restarts the transfer from chunk zero, and the follower installs the same
chunks again.

RAFT-5 (post-partition catch-up livelock): with reconnect catch-up
configured, a leader that hears from a peer again after a silence window
distrusts its replication bookkeeping and re-queues a catch-up window
(the ``ldr.reconnect.catchup`` loop).  A healed partition is the natural
trigger: the catch-up work makes the leader late with heartbeats, the
election-timeout detector trips, and the fresh leader — which treats
*every* peer as reconnecting — queues even more catch-up work.

RAFT-6 (restart catch-up probe livelock): with restart probes configured,
a freshly restarted follower asks the leader to verify a digest window of
its log before trusting it (``flw.probe.rpc`` against the leader's
``ldr.probe.scan``).  When the probe reply is lost, the follower
distrusts the digest and *grows* the window, so the next probe asks the
leader to scan even more — scan work that pushes the probe round trip
past its own timeout.  Only a partition overlapping a crash-restart (a
composed fault schedule) makes the reply loss last long enough to
compound; no single fault covers both the restart and the silence.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ...errors import IOEx
from ...instrument.runtime import Runtime
from ...sim import Node, SimEnv


class RaftConfig:
    def __init__(self, **kw: object) -> None:
        self.n_nodes = 3
        self.heartbeat_interval_ms = 2_000.0  # leader replicate tick
        self.election_tick_ms = 4_000.0  # follower timeout check period
        self.election_timeout_ms = 600_000.0  # elections off unless tightened
        self.append_rpc_timeout_ms = 10_000.0
        self.vote_rpc_timeout_ms = 8_000.0
        self.snap_rpc_timeout_ms = 10_000.0
        self.apply_cost_ms = 0.8  # per-entry cost in the follower apply loop
        self.commit_cost_ms = 0.2  # per-entry state-machine apply cost
        self.max_batch = 12  # entries per AppendEntries
        self.preload_entries = 40  # log entries present at cluster build
        self.resend_on_timeout = False  # roll next_index back on append timeout
        self.resend_window = 30  # entries re-sent per timeout when enabled
        self.quorum_window_ms = 600_000.0  # ack recency the quorum detector wants
        self.quorum_resync = False  # re-send a window to all peers on lost quorum
        self.resync_batch = 25  # entries re-sent per follower per resync
        self.reconnect_catchup = False  # re-send a window to peers seen after silence
        self.reconnect_silence_ms = 6_000.0  # ack gap that counts as a reconnect
        self.reconnect_window = 25  # entries re-queued per reconnecting peer
        self.catchup_cost_ms = 0.4  # per-entry cost of building the catch-up resend
        self.leader_catchup = 30  # window a fresh leader re-sends to every peer
        self.snapshot_threshold = 10_000  # follower lag that triggers a snapshot
        self.snapshot_chunks = 10
        self.chunk_cost_ms = 1.5  # per-chunk install cost on the follower
        self.snapshot_retry = False  # restart failed snapshot transfers
        self.flaky_follower = -1  # index of a follower that wipes its disk
        self.flaky_restart_ms = 0.0  # wipe period (0 = never)
        self.restart_probe = False  # verify a digest window after restart
        self.probe_interval_ms = 5_000.0  # probe tick period while backlogged
        self.probe_window = 8  # digest entries verified per probe
        self.probe_window_growth = 6  # window growth on a lost probe reply
        self.probe_max_window = 64  # backlog cap
        self.probe_cost_ms = 30.0  # per-entry digest cost on the follower
        self.probe_scan_cost_ms = 120.0  # per-entry scan cost on the leader
        self.probe_rpc_timeout_ms = 8_000.0
        for key, value in kw.items():
            if not hasattr(self, key):
                raise TypeError("unknown RaftConfig option %r" % key)
            setattr(self, key, value)


class RaftNode(Node):
    """One Raft peer: follower, candidate, or leader."""

    def __init__(self, env: SimEnv, rt: Runtime, cfg: RaftConfig, index: int) -> None:
        super().__init__(env, "raft%d" % index)
        self.rt = rt
        self.cfg = cfg
        self.index = index
        self.peers: List["RaftNode"] = []  # every *other* node, set by build
        self.role = "follower"
        self.term = 1
        self.voted_for: Dict[int, str] = {}  # term -> candidate name
        self.log: List[Tuple[int, str]] = []
        self.commit_index = 0
        self.last_applied = 0
        self.snap_index = 0  # log prefix replaced by a snapshot
        self.last_leader_contact = 0.0
        # Leader-side bookkeeping (meaningful only while leading).
        self.next_index: Dict[str, int] = {}
        self.match_index: Dict[str, int] = {}
        self.last_ack: Dict[str, float] = {}
        self.elections_started = 0
        self.append_timeouts = 0
        self.snapshots_sent = 0
        self.probe_backlog = 0  # digest entries still to verify post-restart
        self._register_ticks()

    def _register_ticks(self) -> None:
        """Periodic behaviour; re-registered after a crash-restart (the
        crash dropped the pending tail of every ``env.every`` chain)."""
        env, cfg = self.env, self.cfg
        env.every(self, cfg.heartbeat_interval_ms, self.replicate_tick, jitter_ms=40.0)
        env.every(self, cfg.election_tick_ms, self.election_tick, jitter_ms=80.0 * (self.index + 1))
        if cfg.flaky_follower == self.index and cfg.flaky_restart_ms > 0:
            env.every(self, cfg.flaky_restart_ms, self.wipe_disk)
        if cfg.restart_probe:
            env.every(self, cfg.probe_interval_ms, self.restart_probe_tick, jitter_ms=60.0)

    def on_restart(self) -> None:
        """Crash recovery: come back as a follower with fresh liveness
        bookkeeping (the log itself is durable in this model)."""
        self.role = "follower"
        self.last_leader_contact = self.env.now
        if self.cfg.restart_probe:
            self.probe_backlog = self.cfg.probe_window
        self._register_ticks()

    # ------------------------------------------------------------- helpers

    def quorum(self) -> int:
        return (len(self.peers) + 1) // 2 + 1

    def become_follower(self, term: int) -> None:
        self.term = term
        self.role = "follower"

    def become_leader(self) -> None:
        """Won an election: reconcile followers conservatively.

        A fresh leader does not trust the old leader's ``match_index``
        bookkeeping, so it re-sends a catch-up window to every peer — the
        RAFT-2 feedback path (each election creates apply work, which
        delays heartbeats, which invites the next election).
        """
        self.role = "leader"
        for peer in self.peers:
            self.next_index[peer.name] = max(
                self.snap_index, len(self.log) - self.cfg.leader_catchup
            )
            self.match_index[peer.name] = 0
            # With reconnect catch-up configured, a fresh leader has no ack
            # history to trust, so every peer's first ack reads as a
            # reconnect — the RAFT-5 feedback path (each election queues a
            # catch-up window per peer).
            self.last_ack[peer.name] = (
                -1.0e12 if self.cfg.reconnect_catchup else self.env.now
            )

    # -------------------------------------------------------------- client

    def client_append(self, cmd: str) -> int:
        self.check_alive()
        with self.rt.function("RaftNode.client_append"):
            self.rt.throw_point(
                "ldr.append.not_leader", IOEx, natural=self.role != "leader"
            )
            self.rt.throw_point(
                "flw.log.full_ioe", IOEx, natural=len(self.log) > 100_000
            )
            self.log.append((self.term, cmd))
            self.env.spin(0.2)
            return len(self.log)

    # ------------------------------------------------------------- leading

    def replicate_tick(self) -> None:
        """Leader heartbeat: AppendEntries (or InstallSnapshot) per peer."""
        if self.role != "leader":
            return
        with self.rt.function("RaftNode.replicate_tick"):
            for peer in self.rt.loop("ldr.append.peers", list(self.peers)):
                lagging = self.rt.detector(
                    "ldr.peer.is_lagging",
                    len(self.log) - self.next_index.get(peer.name, 0)
                    > self.cfg.snapshot_threshold,
                )
                if lagging:
                    self._send_snapshot(peer)
                    continue
                self._send_entries(peer)
            self._advance_commit()
            ok = self.rt.detector("ldr.quorum.has", self._quorum_fresh())
            if not ok:
                resync = self.rt.branch("ldr.quorum.b_resync", self.cfg.quorum_resync)
                if resync:
                    # THE BUG (RAFT-3): distrust every match_index and
                    # re-send a resync window to all followers.
                    for peer in self.peers:
                        self.next_index[peer.name] = max(
                            self.snap_index,
                            self.next_index.get(peer.name, 0) - self.cfg.resync_batch,
                        )

    def _send_entries(self, peer: "RaftNode") -> None:
        start = self.next_index.get(peer.name, len(self.log))
        batch: List[Tuple[int, str]] = []
        for entry in self.rt.loop("ldr.batch.build", self.log[start : start + self.cfg.max_batch]):
            self.env.spin(0.05)
            batch.append(entry)
        try:
            term, ok, match = self.rt.rpc_call(
                "ldr.append.rpc", IOEx, self.env.rpc, peer, peer.handle_append,
                self.term, self.name, start, batch, self.commit_index,
                timeout_ms=self.cfg.append_rpc_timeout_ms,
            )
        except IOEx:
            self.append_timeouts += 1
            retry = self.rt.branch("ldr.append.b_retry", self.cfg.resend_on_timeout)
            if retry:
                # THE BUG (RAFT-1): the ack was lost, not the work — rolling
                # next_index back a whole window re-sends entries the
                # follower has already applied.
                self.next_index[peer.name] = max(
                    self.snap_index, start - self.cfg.resend_window
                )
            return
        if term > self.term:
            self.become_follower(term)
            return
        gap = self.env.now - self.last_ack.get(peer.name, self.env.now)
        self.last_ack[peer.name] = self.env.now
        if ok:
            self.match_index[peer.name] = match
            self.next_index[peer.name] = match
            reconnect = self.rt.branch(
                "ldr.reconnect.b_catchup",
                self.cfg.reconnect_catchup and gap > self.cfg.reconnect_silence_ms,
            )
            if reconnect:
                # THE BUG (RAFT-5): the peer answered after a silence
                # window (healed partition, drained backlog, restart), so
                # its match bookkeeping is distrusted and a whole catch-up
                # window is re-queued — work the peer already applied.
                start_over = max(self.snap_index, match - self.cfg.reconnect_window)
                for _ in self.rt.loop(
                    "ldr.reconnect.catchup", self.log[start_over:match]
                ):
                    self.env.spin(self.cfg.catchup_cost_ms)
                self.next_index[peer.name] = start_over
        else:
            self.next_index[peer.name] = match  # follower told us where it is

    def _send_snapshot(self, peer: "RaftNode") -> None:
        self.snapshots_sent += 1
        try:
            self.rt.rpc_call(
                "ldr.snap.rpc", IOEx, self.env.rpc, peer, peer.install_snapshot,
                self.term, self.name, self.commit_index,
                timeout_ms=self.cfg.snap_rpc_timeout_ms,
            )
        except IOEx:
            retry = self.rt.branch("ldr.snap.b_retry", self.cfg.snapshot_retry)
            if retry:
                return  # THE BUG (RAFT-4): next tick restarts from chunk 0
            # Without retry, probe with entries from the snapshot point on.
            self.next_index[peer.name] = self.commit_index
            return
        self.next_index[peer.name] = self.commit_index
        self.last_ack[peer.name] = self.env.now

    def _advance_commit(self) -> None:
        matches = sorted(
            [self.match_index.get(p.name, 0) for p in self.peers] + [len(self.log)]
        )
        majority = matches[len(matches) // 2]
        if majority > self.commit_index:
            self.commit_index = majority

    def _quorum_fresh(self) -> bool:
        fresh = 1  # the leader counts itself
        for peer in self.peers:
            if self.env.now - self.last_ack.get(peer.name, 0.0) <= self.cfg.quorum_window_ms:
                fresh += 1
        return fresh >= self.quorum()

    # ----------------------------------------------------------- rpc target

    def handle_append(
        self, term: int, leader: str, start: int, entries: List[Tuple[int, str]], commit: int
    ) -> Tuple[int, bool, int]:
        self.check_alive()
        with self.rt.function("RaftNode.handle_append"):
            if term < self.term:
                return (self.term, False, len(self.log))
            if term > self.term or self.role != "follower":
                self.become_follower(term)
            # Receipt-time stamping: a backlogged apply loop leaves the
            # *next* heartbeat deferred behind busy_until, which is what the
            # election-timeout detector eventually sees.
            self.last_leader_contact = max(self.last_leader_contact, self.env.now)
            if start > len(self.log):
                return (self.term, False, len(self.log))  # gap: leader backs up
            for i, entry in enumerate(self.rt.loop("flw.append.apply", entries)):
                self.env.spin(self.cfg.apply_cost_ms)
                pos = start + i
                if pos < len(self.log):
                    self.log[pos] = entry  # duplicate delivery: overwrite
                else:
                    self.log.append(entry)
            newly_committed = min(commit, len(self.log)) - self.last_applied
            if newly_committed > 0:
                for _ in self.rt.loop("flw.commit.apply", range(newly_committed)):
                    self.env.spin(self.cfg.commit_cost_ms)
                self.last_applied += newly_committed
            self.commit_index = max(self.commit_index, min(commit, len(self.log)))
            return (self.term, True, len(self.log))

    def handle_vote(self, term: int, candidate: str, cand_log: int) -> Tuple[int, bool]:
        self.check_alive()
        with self.rt.function("RaftNode.handle_vote"):
            if term > self.term:
                self.become_follower(term)
            up_to_date = cand_log >= len(self.log)
            grant = self.rt.branch(
                "flw.vote.b_grant",
                term >= self.term and up_to_date and self.voted_for.get(term) is None,
            )
            if grant:
                self.voted_for[term] = candidate
                self.last_leader_contact = self.env.now  # reset the timer
            self.env.spin(0.2)
            return (self.term, grant)

    def install_snapshot(self, term: int, leader: str, snap_index: int) -> Tuple[int, bool]:
        self.check_alive()
        with self.rt.function("RaftNode.install_snapshot"):
            if term < self.term:
                return (self.term, False)
            self.last_leader_contact = max(self.last_leader_contact, self.env.now)
            for _ in self.rt.loop("flw.snap.chunks", range(self.cfg.snapshot_chunks)):
                self.env.spin(self.cfg.chunk_cost_ms)
            if snap_index > len(self.log):
                self.log = [(term, "snap")] * snap_index
            self.snap_index = snap_index
            self.commit_index = max(self.commit_index, snap_index)
            self.last_applied = max(self.last_applied, snap_index)
            return (self.term, True)

    def handle_probe(self, term: int, window: int) -> Tuple[int, bool]:
        """Leader side of the restart catch-up probe: verify ``window``
        digest entries against the authoritative log."""
        self.check_alive()
        with self.rt.function("RaftNode.handle_probe"):
            for _ in self.rt.loop("ldr.probe.scan", range(window)):
                self.env.spin(self.cfg.probe_scan_cost_ms)
            return (self.term, True)

    def compact_log_legacy(self) -> int:
        """Pre-snapshot log compaction, superseded by install_snapshot.

        Dead code: no workload path or peer RPC calls it anymore, but its
        instrumented loop (``ldr.compact.scan``) is still in the site
        registry.  The site is declared dead, so the analyzer prunes its
        faults from the space instead of spending injection budget on
        experiments that cannot perturb any run; the code-slice
        reachability analysis proves it unreachable from every workload
        entry point (``tests/unit/test_dead_sites.py``).
        """
        removed = 0
        for _ in self.rt.loop("ldr.compact.scan", range(max(0, self.snap_index))):
            self.env.spin(self.cfg.chunk_cost_ms)
            removed += 1
        return removed

    # ------------------------------------------------------------ elections

    def election_tick(self) -> None:
        """Follower-side liveness check; trips an election when stale."""
        if self.role == "leader":
            return
        with self.rt.function("RaftNode.election_tick"):
            timed_out = self.rt.detector(
                "flw.election.timed_out",
                self.env.now - self.last_leader_contact > self.cfg.election_timeout_ms,
            )
            if timed_out:
                self.start_election()

    def start_election(self) -> None:
        with self.rt.function("RaftNode.start_election"):
            self.elections_started += 1
            self.term += 1
            self.role = "candidate"
            self.voted_for[self.term] = self.name
            votes = 1
            for peer in self.rt.loop("cand.vote.requests", list(self.peers)):
                self.env.spin(0.3)
                try:
                    term, granted = self.rt.lib_call(
                        "cand.vote.rpc", IOEx, self.env.rpc, peer, peer.handle_vote,
                        self.term, self.name, len(self.log),
                        timeout_ms=self.cfg.vote_rpc_timeout_ms,
                    )
                except IOEx:
                    continue
                if term > self.term:
                    self.become_follower(term)
                    return
                if granted:
                    votes += 1
            won = self.rt.branch("cand.b_won", votes >= self.quorum())
            if won:
                self.become_leader()
            else:
                self.role = "follower"
                self.last_leader_contact = self.env.now  # back off before retrying

    # -------------------------------------------------------- restart probe

    def restart_probe_tick(self) -> None:
        """Post-restart digest verification against the current leader.

        A restarted follower does not trust its durable log until the
        leader has confirmed a digest window of it.  A confirmed probe
        clears the backlog; a lost reply (or a leaderless cluster) makes
        the follower distrust the digest and *grow* the window.
        """
        if self.probe_backlog <= 0 or self.role == "leader":
            return
        with self.rt.function("RaftNode.restart_probe_tick"):
            window = min(self.probe_backlog, self.cfg.probe_max_window)
            for _ in self.rt.loop("flw.restart.probe", range(window)):
                self.env.spin(self.cfg.probe_cost_ms)
            leader = next((p for p in self.peers if p.role == "leader"), None)
            if leader is None:
                self.probe_backlog = min(
                    self.cfg.probe_max_window,
                    self.probe_backlog + self.cfg.probe_window_growth,
                )
                return
            try:
                self.rt.lib_call(
                    "flw.probe.rpc", IOEx, self.env.rpc, leader, leader.handle_probe,
                    self.term, window, timeout_ms=self.cfg.probe_rpc_timeout_ms,
                )
            except IOEx:
                # THE BUG (RAFT-6): the reply was lost, not the log — but
                # the digest is distrusted and the window *grows*, so the
                # next probe asks the leader to scan even more.
                self.probe_backlog = min(
                    self.cfg.probe_max_window,
                    self.probe_backlog + self.cfg.probe_window_growth,
                )
                return
            self.probe_backlog = 0

    # ---------------------------------------------------------- flaky disk

    def wipe_disk(self) -> None:
        """Crash-recover cycle of a follower with a bad disk: the log is
        lost, so the leader must ship a snapshot to catch it back up."""
        if self.role != "follower":
            return
        with self.rt.function("RaftNode.wipe_disk"):
            self.log = []
            self.snap_index = 0
            self.commit_index = 0
            self.last_applied = 0


class RaftClient(Node):
    """Client appending command batches to whichever node leads."""

    def __init__(
        self,
        env: SimEnv,
        rt: Runtime,
        nodes: List[RaftNode],
        index: int,
        cmds_per_tick: int = 3,
        interval_ms: float = 3_000.0,
    ) -> None:
        super().__init__(env, "raftcli%d" % index)
        self.rt = rt
        self.nodes = nodes
        self.cmds_per_tick = cmds_per_tick
        self._seq = 0
        env.every(self, interval_ms, self.submit_tick, jitter_ms=100.0)

    def submit_tick(self) -> None:
        with self.rt.function("RaftClient.submit_tick"):
            leader = next((n for n in self.nodes if n.role == "leader"), None)
            for _ in self.rt.loop("cli.cmd.submit", range(self.cmds_per_tick)):
                self._seq += 1
                if leader is None:
                    continue
                try:
                    self.rt.lib_call(
                        "cli.submit.rpc", IOEx, self.env.rpc, leader,
                        leader.client_append, "c%d" % self._seq,
                    )
                except IOEx:
                    leader = None  # stop hammering a dead/demoted leader
