"""Direct unit tests for the workload-suite entry points.

The workload modules were previously exercised only indirectly through
``test_systems.py`` campaigns; these tests pin their public contracts:
every entry point returns a well-formed, uniquely-identified, prefixed
``WorkloadSpec`` list whose setups actually build a cluster on the
simulator.
"""

import pytest

from repro.instrument.runtime import Runtime
from repro.instrument.trace import RunTrace
from repro.sim import SimEnv
from repro.systems import get_system
from repro.systems.base import WorkloadSpec
from repro.workloads.dfs import dfs_workloads
from repro.workloads.flink import flink_workloads
from repro.workloads.hbase import hbase_workloads
from repro.workloads.hdfs import hdfs_workloads
from repro.workloads.ozone import ozone_workloads
from repro.workloads.raft import raft_workloads

SUITES = {
    "hdfs2": (lambda: hdfs_workloads(2), "hdfs2", "minihdfs2"),
    "hdfs3": (lambda: hdfs_workloads(3), "hdfs3", "minihdfs3"),
    "hbase": (hbase_workloads, "hbase", "minihbase"),
    "flink": (flink_workloads, "flink", "miniflink"),
    "ozone": (ozone_workloads, "ozone", "miniozone"),
    "raft": (raft_workloads, "raft", "miniraft"),
    "dfs": (dfs_workloads, "dfs", "minidfs"),
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_entry_point_returns_wellformed_specs(suite):
    build, prefix, _system = SUITES[suite]
    specs = build()
    assert len(specs) >= 4
    ids = [spec.test_id for spec in specs]
    assert len(set(ids)) == len(ids), "duplicate workload ids"
    for spec in specs:
        assert isinstance(spec, WorkloadSpec)
        assert spec.test_id.startswith(prefix + "."), spec.test_id
        assert (spec.setup.__doc__ or "").strip(), spec.test_id
        assert callable(spec.setup)
        assert spec.duration_ms > 0


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_entry_point_matches_registered_system(suite):
    """The system spec ships exactly the suite the entry point returns."""
    build, _prefix, system = SUITES[suite]
    assert sorted(s.test_id for s in build()) == get_system(system).workload_ids()


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_setups_build_a_live_cluster(suite):
    """Each suite's first workload schedules real work on the simulator.

    A short horizon keeps this cheap: the full-duration behaviour is
    covered by the campaign tests in ``test_systems.py``.
    """
    build, _prefix, system = SUITES[suite]
    spec = build()[0]
    registry = get_system(system).registry
    trace = RunTrace(test_id=spec.test_id)
    runtime = Runtime(registry, trace=trace)
    env = SimEnv(spec.sim_config, seed=7)
    env.runtime = runtime
    runtime.bind_env(env)
    spec.setup(env, runtime)
    assert env.nodes, "setup registered no nodes"
    env.run(10_000.0)
    assert env.events_processed > 0
    assert trace.reached, "no instrumented site reached in 10s of virtual time"
