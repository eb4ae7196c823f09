"""Assemble the MiniFlink system spec."""

from __future__ import annotations

from ...types import DELAY, EXCEPTION, FaultKey
from ...workloads.flink import flink_workloads
from ..base import KnownBug, SystemSpec
from .sites import build_registry


def build_system() -> SystemSpec:
    spec = SystemSpec(
        name="miniflink",
        registry=build_registry(),
        source_modules=("repro.systems.miniflink.nodes", "repro.workloads.flink"),
    )
    for workload in flink_workloads():
        spec.add_workload(workload)
    spec.known_bugs = [
        KnownBug(
            bug_id="FL-1",
            description=(
                "A slow sink worker backs the pipeline up until the head "
                "task fails; the restart strategy cancels all tasks, the "
                "sink cancellation fails on in-flight data, and the dirty "
                "restart replays records into the slow sink."
            ),
            signature="1D|2E|0N",
            core_faults=frozenset(
                {
                    FaultKey("tm.sink.process", DELAY),
                    FaultKey("tm.head.fail", EXCEPTION),
                    FaultKey("jm.sink.cancel", EXCEPTION),
                }
            ),
            # Paper: Alt ✗; our restart-strategy test self-sustains once the
            # single fault lands (see EXPERIMENTS.md).
            alt_detectable=True,
            jira="FLINK-38367",
        ),
        KnownBug(
            bug_id="FL-2",
            description=(
                "A slow aggregator breaks barrier alignment; the checkpoint "
                "failure policy cancels the task mid-restore "
                "(IllegalStateException), and the dirty restart replays "
                "records into the aggregator."
            ),
            signature="1D|2E|0N",
            core_faults=frozenset(
                {
                    FaultKey("tm.agg.process", DELAY),
                    FaultKey("tm.barrier.fail", EXCEPTION),
                    FaultKey("tm.state.transition", EXCEPTION),
                }
            ),
            alt_detectable=True,
            jira="FLINK-38368",
        ),
    ]
    return spec
