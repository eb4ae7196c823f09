"""Ground-truth self-sustaining cascade bugs seeded in MiniHDFS.

Each entry mirrors a Table 3 row (JIRA ids from the paper).  ``core_faults``
is the set of faults a reported cycle must involve to count as exposing the
bug; ``alt_detectable`` marks bugs the naive single-fault self-causation
strategy of §8.2 can trigger.
"""

from __future__ import annotations

from typing import List

from ...types import DELAY, EXCEPTION, NEGATION, FaultKey
from ..base import KnownBug


def _d(site: str) -> FaultKey:
    return FaultKey(site, DELAY)


def _e(site: str) -> FaultKey:
    return FaultKey(site, EXCEPTION)


def _n(site: str) -> FaultKey:
    return FaultKey(site, NEGATION)


def hdfs2_bugs() -> List[KnownBug]:
    return [
        KnownBug(
            bug_id="H2-1",
            description=(
                "Lease recovery delay stalls the NameNode; writers' complete() "
                "calls time out and their block retries hit "
                "ReplicaAlreadyExists; the resulting report storms overflow "
                "the IBR backlog, abandoned files pile up in the lease table, "
                "and lease recovery gets slower still."
            ),
            signature="1D|2E|0N",
            core_faults=frozenset(
                {_d("nn.lease.scan"), _e("dn.pipe.replica_exists"), _e("nn.ibr.overflow")}
            ),
            alt_detectable=False,
            jira="HDFS-17661",
        ),
        KnownBug(
            bug_id="H2-2",
            description=(
                "Edit-log flush delay grows the journal backlog past the cap, "
                "fencing the active NameNode; IBRs to the fenced node fail "
                "with StandbyException, and the throttling-bypass resend "
                "duplicates report entries — which are all logged as edits."
            ),
            signature="1D|1E|0N",
            core_faults=frozenset({_d("nn.edit.flush"), _e("dn.ibr.rpc")}),
            alt_detectable=False,
            jira="HDFS-17836",
        ),
        KnownBug(
            bug_id="H2-3",
            description=(
                "A slow block-recovery session outlives the recovery "
                "monitor's re-issue interval; the re-issued recovery hits "
                "RecoveryInProgressException, is rescheduled, and keeps the "
                "session window open — recovery attempts grow unboundedly."
            ),
            signature="1D|1E|0N",
            core_faults=frozenset({_d("dn.rec.attempts"), _e("dn.rec.ioe")}),
            alt_detectable=True,
            jira="HDFS-17662",
        ),
        KnownBug(
            bug_id="H2-4",
            description=(
                "Write-pipeline packet delay times out the downstream "
                "forward; the rebuild leaves stale genstamps that fail block "
                "recovery; failed recoveries mark replicas corrupt, and the "
                "re-replication transfers stream packets through the same "
                "slow pipeline path."
            ),
            signature="1D|2E|0N",
            core_faults=frozenset(
                {_d("dn.pipe.packets"), _e("dn.pipe.ioe"), _e("dn.rec.ioe")}
            ),
            alt_detectable=False,
            jira="HDFS-17837",
        ),
        KnownBug(
            bug_id="H2-5",
            description=(
                "Replica-cache eviction delay makes the DataNode miss "
                "pipeline deadlines and heartbeats; clients report it bad, "
                "the staleness detector trips, and the re-replication storm "
                "floods the cache with new entries to evict."
            ),
            signature="1D|1E|1N",
            core_faults=frozenset(
                {_d("dn.cache.evict"), _e("dn.pipe.ioe"), _n("nn.dn.is_stale")}
            ),
            alt_detectable=False,
            jira="HDFS-17660",
        ),
        KnownBug(
            bug_id="H2-6",
            description=(
                "§8.3.2: a failed IBR is retried at the next heartbeat, "
                "bypassing the configured report interval; under NameNode "
                "overload the timed-out report was actually processed, so "
                "the retry duplicates entries and adds processing load."
            ),
            signature="1D|1E|0N",
            core_faults=frozenset({_d("nn.ibr.entries"), _e("dn.ibr.rpc")}),
            # Paper: Alt ✗.  In our realization the throttled-IBR test also
            # self-sustains once the single fault lands (see EXPERIMENTS.md).
            alt_detectable=True,
            jira="HDFS-17780",
        ),
    ]


def hdfs3_bugs() -> List[KnownBug]:
    return [
        KnownBug(
            bug_id="H3-1",
            description=(
                "Async block-deletion delay makes the DataNode miss pipeline "
                "deadlines and heartbeats; the staleness detector trips, "
                "re-replication over-replicates when the node returns, and "
                "the invalidation commands refill the deletion queue."
            ),
            signature="1D|1E|1N",
            core_faults=frozenset(
                {_d("dn3.del.work"), _e("dn.pipe.ioe"), _n("nn.dn.is_stale")}
            ),
            alt_detectable=False,
            jira="HDFS-17838",
        ),
        KnownBug(
            bug_id="H3-2",
            description=(
                "Reconstruction-worker delay stalls heartbeats until nodes "
                "look dead; the resulting report traffic grows the IBR "
                "conversion work, replica transfers into busy nodes fail, "
                "and the failures queue more reconstruction."
            ),
            signature="1D|1E|0N",
            core_faults=frozenset(
                {
                    _d("dn3.recon.work"),
                    _e("dn3.recon.fetch"),
                }
            ),
            alt_detectable=False,
            jira="HDFS-17782",
        ),
    ]
