#!/usr/bin/env python3
"""Quickstart: detect self-sustaining cascading failures in the toy system.

Runs the whole CSnake pipeline — static analysis, profile runs, 3PA-
allocated fault injection, fault causality analysis, causal stitching, and
the beam search for cycles — against the bundled toy client/server system,
then prints the detected cascades.

    python examples/quickstart.py
"""

from repro.config import CSnakeConfig
from repro.pipeline import (
    AllocationStage,
    BeamSearchStage,
    PipelineContext,
    ProfileStage,
    ReportStage,
    StaticAnalysisStage,
)
from repro.systems import get_system


def main() -> None:
    config = CSnakeConfig(
        repeats=3,                                # profile/injection repetitions
        delay_values_ms=(500.0, 2000.0, 8000.0),  # contention sweep
        seed=7,
    )
    # One stage at a time, to look at what each publishes;
    # ``Pipeline(spec, config).run()`` runs the same five in one call.
    ctx = PipelineContext(get_system("toy"), config)

    StaticAnalysisStage().run(ctx)
    analysis = ctx.require("analysis")
    print("fault space: %d injectable faults (%d sites filtered)" % (
        len(analysis.faults), len(analysis.excluded)))

    ProfileStage().run(ctx)
    AllocationStage().run(ctx)
    allocation = ctx.require("allocation").outcome
    print("experiments: %d (budget %d), causal edges discovered: %d" % (
        allocation.budget_used,
        allocation.budget_total,
        len(ctx.driver.edges),
    ))
    for edge in ctx.driver.edges.all_edges():
        print("   ", edge)

    BeamSearchStage().run(ctx)
    ReportStage().run(ctx)
    report = ctx.require("report")
    print("\ncycles: %d in %d clusters" % (len(report.cycles), len(report.cycle_clusters)))
    for match in report.bug_matches:
        status = "DETECTED" if match.detected else "missed"
        print("\n[%s] %s — %s" % (status, match.bug.bug_id, match.bug.description))
        if match.detected:
            cycle = match.best_cycle
            print("    cycle: %s" % cycle)
            print("    stitched from tests: %s" % ", ".join(cycle.tests()))


if __name__ == "__main__":
    main()
