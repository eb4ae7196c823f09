"""Every Table 3 bug is stitchable from its designated experiments.

For each of the 15 seeded bugs this runs only the (fault, test) injections
its propagation chain needs and asserts the beam search closes a cycle
containing the bug's core faults — validating FCA, the compatibility check,
and the stitching end to end (the 3PA benchmark then measures how reliably
the budget allocation *finds* these experiments).
"""

import pytest

from repro.config import CSnakeConfig
from repro.core.beam import BeamSearch
from repro.core.driver import ExperimentDriver
from repro.systems import get_system
from repro.types import DELAY, EXCEPTION, NEGATION, FaultKey

D, E, N = DELAY, EXCEPTION, NEGATION
CFG = dict(repeats=3, delay_values_ms=(250.0, 1000.0, 8000.0), seed=1234)

#: bug id -> (system, [(site, kind, test), ...]) — the designated chain.
CHAINS = {
    "H2-1": ("minihdfs2", [
        ("nn.lease.scan", D, "hdfs2.lease_writers"),
        ("dn.pipe.replica_exists", E, "hdfs2.ibr_cap"),
        ("nn.ibr.overflow", E, "hdfs2.lease_abandon"),
    ]),
    "H2-2": ("minihdfs2", [
        ("nn.edit.flush", D, "hdfs2.ha_editlog"),
        ("dn.ibr.rpc", E, "hdfs2.ibr_interval"),
    ]),
    "H2-3": ("minihdfs2", [
        ("dn.rec.attempts", D, "hdfs2.recovery_retry"),
        ("dn.rec.ioe", E, "hdfs2.recovery_retry"),
    ]),
    "H2-4": ("minihdfs2", [
        ("dn.pipe.packets", D, "hdfs2.pipe_heavy"),
        ("dn.pipe.ioe", E, "hdfs2.genstamp_recovery"),
        ("dn.rec.ioe", E, "hdfs2.genstamp_recovery"),
    ]),
    "H2-5": ("minihdfs2", [
        ("dn.cache.evict", D, "hdfs2.cache_small"),
        ("dn.pipe.ioe", E, "hdfs2.bad_dn_report"),
        ("nn.dn.is_stale", N, "hdfs2.replication_storm"),
    ]),
    "H2-6": ("minihdfs2", [
        ("nn.ibr.entries", D, "hdfs2.load_balancer"),
        ("dn.ibr.rpc", E, "hdfs2.ibr_interval"),
    ]),
    "H3-1": ("minihdfs3", [
        ("dn3.del.work", D, "hdfs3.deletion_heavy"),
        ("dn.pipe.ioe", E, "hdfs3.bad_dn_report"),
        ("nn.dn.is_stale", N, "hdfs3.deletion_heavy"),
    ]),
    "H3-2": ("minihdfs3", [
        ("dn3.recon.work", D, "hdfs3.reconstruction"),
        ("dn3.recon.fetch", E, "hdfs3.reconstruction"),
    ]),
    "HB-1": ("minihbase", [
        ("rs.wal.roll", D, "hbase.write_heavy"),
        ("rs.wal.premature_eof", N, "hbase.write_heavy"),
    ]),
    "HB-2": ("minihbase", [
        ("rs.deploy.regions", D, "hbase.create_heavy"),
        ("hm.assign.rpc", E, "hbase.rs_fault_tolerance"),
        ("hm.balancer.can_place", N, "hbase.balancer_long"),
    ]),
    "FL-1": ("miniflink", [
        ("tm.sink.process", D, "flink.stream_heavy"),
        ("tm.head.fail", E, "flink.restart_strategy"),
        ("jm.sink.cancel", E, "flink.rescale"),
    ]),
    "FL-2": ("miniflink", [
        ("tm.agg.process", D, "flink.checkpoint_barrier"),
        ("tm.barrier.fail", E, "flink.checkpoint_failover"),
        ("tm.state.transition", E, "flink.checkpoint_failover"),
    ]),
    "OZ-1": ("miniozone", [
        ("scm.eventq.dispatch", D, "ozone.reports_heavy"),
        ("scm.eventq.dispatch_ok", N, "ozone.requeue"),
    ]),
    "OZ-2": ("miniozone", [
        ("scm.hb.updates", D, "ozone.hb_pipeline"),
        ("scm.pipeline.is_healthy", N, "ozone.hb_pipeline"),
    ]),
    "OZ-3": ("miniozone", [
        ("dn.repl.handle", D, "ozone.repl_heavy"),
        ("dn.repl.push", E, "ozone.pipeline_small"),
        ("scm.pipeline.create_ioe", E, "ozone.fallback_repl"),
    ]),
}

_DRIVERS = {}


def _driver(system):
    if system not in _DRIVERS:
        _DRIVERS[system] = ExperimentDriver(get_system(system), CSnakeConfig(**CFG))
    return _DRIVERS[system]


@pytest.mark.parametrize("bug_id", sorted(CHAINS))
def test_bug_cycle_stitches_from_designated_experiments(bug_id):
    system, chain = CHAINS[bug_id]
    driver = _driver(system)
    for site, kind, test in chain:
        driver.run_experiment(FaultKey(site, kind), test)
    beam = BeamSearch(CSnakeConfig(beam_width=50_000, **CFG))
    cycles = beam.search(driver.edges.all_edges()).cycles
    bug = driver.spec.bug(bug_id)
    matching = [c for c in cycles if bug.matches(c)]
    assert matching, "%s: no cycle contains core faults %s" % (
        bug_id,
        sorted(str(f) for f in bug.core_faults),
    )
