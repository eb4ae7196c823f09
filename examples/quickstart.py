#!/usr/bin/env python3
"""Quickstart: detect self-sustaining cascading failures in the toy system.

Runs the whole CSnake pipeline — static analysis, profile runs, 3PA-
allocated fault injection, fault causality analysis, causal stitching, and
the beam search for cycles — against the bundled toy client/server system,
then prints the detected cascades.

    python examples/quickstart.py
"""

from repro.config import CSnakeConfig
from repro.pipeline import STAGES, PipelineContext
from repro.systems import get_system


def main() -> None:
    config = CSnakeConfig(
        repeats=3,                                # profile/injection repetitions
        delay_values_ms=(500.0, 2000.0, 8000.0),  # contention sweep
        seed=7,
    )
    # The stages by hand, to look at what they publish between
    # ``allocate`` and ``search``; ``Pipeline(spec, config).run()`` runs
    # the same five in one call.
    ctx = PipelineContext(get_system("toy"), config)
    for _, stage in STAGES[:3]:  # analyze, profile, allocate
        stage(ctx)

    analysis = ctx.get("analysis")
    print("fault space: %d injectable faults (%d sites filtered)" % (
        len(analysis.faults), len(analysis.excluded)))
    allocation = ctx.get("allocation").outcome
    print("experiments: %d (budget %d), causal edges discovered: %d" % (
        allocation.budget_used,
        allocation.budget_total,
        len(ctx.driver.edges),
    ))
    for edge in ctx.driver.edges.all_edges():
        print("   ", edge)

    for _, stage in STAGES[3:]:  # search, report
        stage(ctx)
    report = ctx.get("report")
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
