"""Assemble the MiniHBase system spec."""

from __future__ import annotations

from ...types import DELAY, EXCEPTION, NEGATION, FaultKey
from ...workloads.hbase import hbase_workloads
from ..base import KnownBug, SystemSpec
from .sites import build_registry


def build_system() -> SystemSpec:
    spec = SystemSpec(
        name="minihbase",
        registry=build_registry(),
        source_modules=("repro.systems.minihbase.nodes", "repro.workloads.hbase"),
    )
    for workload in hbase_workloads():
        spec.add_workload(workload)
    spec.known_bugs = [
        KnownBug(
            bug_id="HB-1",
            description=(
                "A slow WAL roll tears the segment tail; the next roll's "
                "validator hits PrematureEndOfFile and repairs by "
                "re-appending the tail, growing the roll that was already "
                "too slow."
            ),
            signature="1D|0E|1N",
            core_faults=frozenset(
                {
                    FaultKey("rs.wal.roll", DELAY),
                    FaultKey("rs.wal.premature_eof", NEGATION),
                }
            ),
            alt_detectable=True,
            jira="HBASE-29600",
        ),
        KnownBug(
            bug_id="HB-2",
            description=(
                "§8.3.1: region deployment overload times out assignment "
                "RPCs; the IOE excludes the server from the favored set, "
                "canPlaceFavoredNodes fails below three servers, and the "
                "blind assignment retry reloads the deployment loop."
            ),
            signature="1D|1E|1N",
            core_faults=frozenset(
                {
                    FaultKey("rs.deploy.regions", DELAY),
                    FaultKey("hm.assign.rpc", EXCEPTION),
                    FaultKey("hm.balancer.can_place", NEGATION),
                }
            ),
            alt_detectable=False,
            jira="HBASE-29006",
        ),
    ]
    return spec
