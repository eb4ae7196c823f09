"""The CSnake Figure-3 pipeline: five stage functions in a fixed order.

Each stage reads what earlier stages published on the context, and
every stage but ``profile`` publishes one artifact of its own:
``analyze`` selects the fault space (``analysis``), ``profile`` runs
every workload fault-free into the driver's profile cache, ``allocate``
runs the 3PA-scheduled injection experiments over the context's
executor (``allocation``), ``search`` stitches the discovered edge DB
into cycles (``beam``) and ``report`` matches them against ground truth
(``report``).  :data:`STAGES` is the order; running a prefix of it is
``for _, stage in STAGES[:3]: stage(ctx)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from ..core.allocation import AllocationOutcome, ThreePhaseAllocator
from ..core.beam import BeamSearch
from ..core.report import build_report
from ..instrument.analyzer import analyze
from .context import PipelineContext


@dataclass
class AllocationArtifact:
    """The ``allocation`` artifact: the 3PA outcome.  The edge DB and the
    run counters it fed live on the context's driver."""

    outcome: AllocationOutcome


def analyze_stage(ctx: PipelineContext) -> None:
    """Stage 1: static analyzer selects the injectable fault space F
    (restricted to the fault kinds and schedules the campaign's config
    enables, less the faults of dead sites)."""
    ctx.put("analysis", analyze(ctx.spec.registry, ctx.config.fault_kinds + ctx.config.schedules))


def profile_stage(ctx: PipelineContext) -> None:
    """Stage 2: fault-free profile runs of every workload (parallel)."""
    ctx.driver.profile_all(ctx.executor)


def allocate_stage(ctx: PipelineContext) -> None:
    """Stage 3: 3PA budget allocation driving the injection experiments.

    The (fault, test) experiments scheduled within each 3PA phase are
    independent, so they fan out over the context's executor — the hot
    path of every campaign.
    """
    faults = list(ctx.get("analysis").faults)
    allocator = ThreePhaseAllocator(ctx.driver, faults, ctx.config, executor=ctx.executor)
    ctx.put("allocation", AllocationArtifact(outcome=allocator.run()))


def search_stage(ctx: PipelineContext) -> None:
    """Stages 4-5: stitch compatible edges, beam-search for cycles."""
    beam = BeamSearch(ctx.config, ctx.get("allocation").outcome.fault_scores)
    ctx.put("beam", beam.search(ctx.driver.edges.all_edges()))


def report_stage(ctx: PipelineContext) -> None:
    """Final stage: cycle clustering and ground-truth matching."""
    allocation = ctx.get("allocation").outcome
    ctx.put(
        "report",
        build_report(
            ctx.spec,
            ctx.get("beam").cycles,
            allocation.clustering,
            n_faults=len(ctx.get("analysis").faults),
            budget_used=allocation.budget_used,
            runs_executed=ctx.driver.runs_executed,
            n_edges=len(ctx.driver.edges),
            # Trigger-gated bugs (env-fault ground truth) are matched
            # against the campaign's discovered edge set.
            edges=ctx.driver.edges.all_edges(),
            # Runs that hit the sim step limit under a composed fault
            # (graceful degradation: recorded, not raised).
            aborted_step_limit=sum(r.aborted for r in ctx.driver.results),
        ),
    )


#: The campaign, in order: (stage name for progress events, stage).
STAGES: Tuple[Tuple[str, Callable[[PipelineContext], None]], ...] = (
    ("analyze", analyze_stage),
    ("profile", profile_stage),
    ("allocate", allocate_stage),
    ("search", search_stage),
    ("report", report_stage),
)
