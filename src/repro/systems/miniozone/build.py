"""Assemble the MiniOzone system spec."""

from __future__ import annotations

from ...types import DELAY, EXCEPTION, NEGATION, FaultKey
from ...workloads.ozone import ozone_workloads
from ..base import KnownBug, SystemSpec
from .sites import build_registry


def build_system() -> SystemSpec:
    spec = SystemSpec(
        name="miniozone",
        registry=build_registry(),
        source_modules=("repro.systems.miniozone.nodes", "repro.workloads.ozone"),
    )
    for workload in ozone_workloads():
        spec.add_workload(workload)
    spec.known_bugs = [
        KnownBug(
            bug_id="OZ-1",
            description=(
                "A slow container-report dispatcher saturates the SCM event "
                "queue; with requeue configured, failed dispatches (plus a "
                "resync batch) go back onto the queue the dispatcher cannot "
                "drain."
            ),
            signature="1D|0E|1N",
            core_faults=frozenset(
                {
                    FaultKey("scm.eventq.dispatch", DELAY),
                    FaultKey("scm.eventq.dispatch_ok", NEGATION),
                }
            ),
            alt_detectable=False,
            jira="HDDS-13020",
        ),
        KnownBug(
            bug_id="OZ-2",
            description=(
                "Slow heartbeat handling makes DataNodes look dead; their "
                "pipelines are closed, re-creation fails with too few "
                "healthy nodes, and the creation retries add yet more SCM "
                "work."
            ),
            signature="1D|0E|1N",
            core_faults=frozenset(
                {
                    FaultKey("scm.hb.updates", DELAY),
                    FaultKey("scm.pipeline.is_healthy", NEGATION),
                }
            ),
            alt_detectable=True,
            jira="HDDS-11856(1)",
        ),
        KnownBug(
            bug_id="OZ-3",
            description=(
                "A slow replication handler times out container pushes; the "
                "failure closes the pipeline, creation fails on the minimal "
                "cluster, and the fallback re-replication floods the "
                "replication handler."
            ),
            signature="1D|2E|0N",
            core_faults=frozenset(
                {
                    FaultKey("dn.repl.handle", DELAY),
                    FaultKey("dn.repl.push", EXCEPTION),
                    FaultKey("scm.pipeline.create_ioe", EXCEPTION),
                }
            ),
            alt_detectable=False,
            jira="HDDS-11856(2)",
        ),
    ]
    return spec
