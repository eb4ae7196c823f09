"""Per-workload site-coverage contracts for the MiniDFS suite.

The campaign's phase-one allocation anchors every environment
disturbance on the highest-coverage workload, and the designated
feedback paths only fire on workloads that reach their sites — so the
coverage *shape* of the suite is load-bearing, not incidental.  These
tests pin it: which drill reaches which subsystem, which workload is the
unique coverage maximum, and which sites are error-path-only.
"""

import pytest

from repro.core.driver import seed_for, run_workload
from repro.systems import get_system

#: Sites every workload reaches: client traffic, the write pipeline, the
#: heartbeat/report/registration plane, and the liveness detectors.
BASE = {
    "cli.alloc.rpc", "cli.data.rpc", "cli.ops.submit",
    "dn.pipe.write", "dn.pipe.recv", "dn.pipe.rpc", "dn.disk.full_ioe",
    "dn.hb.rpc", "dn.ibr.build", "dn.report.build", "dn.reg.rpc",
    "nn.report.blocks", "nn.write.not_master",
    "dn.master.is_down", "nn.dn.is_dead",
    "dfs.sec.acl_check", "dn.conf.is_cached", "nn.metrics.flush",
}

#: Sites only the re-replication drills reach (liveness-driven recovery).
REREPL = {"nn.rerepl.scan", "nn.rerepl.rpc", "dn.serve.rpc", "nn.block.is_under"}

#: Sites only the failover drill reaches (promotion + namespace rebuild).
FAILOVER = {"fo.report.rpc", "fo.rebuild.entries"}

#: Sites only the churn drill reaches (explicit-ack transfer mode: the
#: batched ack flush, the overdue-ack scan, and the retry path the
#: flush-cadence/ack-timeout mismatch keeps naturally warm).
ACK = {"dn.ack.build", "nn.ack.scan", "nn.retry.rpc"}

#: Error-path branches (and one dead function): never reached by any
#: fault-free profile run — they exist for injections to steer.
ERROR_ONLY = {
    "dn.hb.b_rereg", "fo.b_promote", "nn.rerepl.b_rescan", "nn.ack.b_panic",
    "nn.fsck.scan",
}


@pytest.fixture(scope="module")
def reached():
    spec = get_system("minidfs")
    out = {}
    for test_id in spec.workload_ids():
        wl = spec.workloads[test_id]
        out[test_id] = run_workload(spec, wl, None, seed_for(test_id, 0, 7)).reached
    return out


def test_every_workload_covers_the_common_plane(reached):
    for test_id, sites in reached.items():
        missing = BASE - sites
        # The pure-ingest workload has no read traffic.
        if test_id == "dfs.write":
            missing -= {"cli.read.rpc", "dn.read.chunks"}
        assert not missing, (test_id, sorted(missing))


def test_drills_own_their_subsystems(reached):
    for test_id, sites in reached.items():
        assert (test_id in ("dfs.replicate", "dfs.churn")) == bool(REREPL & sites), test_id
        assert (test_id == "dfs.failover") == bool(FAILOVER & sites), test_id
        assert (test_id == "dfs.churn") == bool(ACK & sites), test_id
        if test_id == "dfs.churn":
            assert ACK <= sites, sorted(ACK - sites)


def test_churn_is_the_unique_coverage_maximum(reached):
    """Phase-one allocation sends every environment disturbance to the
    highest-coverage workload; DFS-3 needs that to be the churn drill
    (the only place the re-replication loop can respond to membership
    churn).  A coverage tie or a new maximum breaks campaign detection
    long before any assertion here would look related — so pin it."""
    counts = {test_id: len(sites) for test_id, sites in reached.items()}
    top = max(counts, key=lambda t: (counts[t], t))
    assert top == "dfs.churn", counts
    runner_up = max(v for t, v in counts.items() if t != "dfs.churn")
    assert counts["dfs.churn"] > runner_up, counts


def test_error_path_sites_unreached_fault_free(reached):
    union = set().union(*reached.values())
    assert not (ERROR_ONLY & union), sorted(ERROR_ONLY & union)
    spec = get_system("minidfs")
    env_sites = {s.site_id for s in spec.registry.env_sites()}
    code_sites = {s.site_id for s in spec.registry} - env_sites
    # Everything else IS reached by some profile: no accidental dead sites.
    assert code_sites - ERROR_ONLY == union
