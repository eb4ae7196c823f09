"""The CSnake Figure-3 pipeline, ported to composable stages.

Stage graph (artifact names on the edges)::

    analyze ──analysis──┐
                        ├─> allocate ──allocation──> search ──beam──┐
    profile ──profiles──┘        │                                  ├─> report
                                 └──────────(edge DB, counters)─────┘

``analyze`` and ``profile`` are independent roots; ``allocate`` consumes
both and runs the 3PA-scheduled injection experiments (fanning them out
over the context's executor); ``search`` stitches the discovered edge DB
into cycles; ``report`` matches them against ground truth.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.allocation import ThreePhaseAllocator
from ..core.beam import BeamSearch
from ..core.report import build_report
from ..instrument.analyzer import analyze
from .artifacts import AllocationArtifact, ProfilesArtifact
from .context import PipelineContext
from .stage import Stage


class StaticAnalysisStage(Stage):
    """Stage 1: static analyzer selects the injectable fault space F
    (restricted to the fault kinds the campaign's config enables, and
    pruned by code-slice reachability when the system is sliceable)."""

    name = "analyze"
    provides = ("analysis",)

    def run(self, ctx: PipelineContext) -> None:
        ctx.put(
            "analysis",
            analyze(
                ctx.spec.registry,
                ctx.config.fault_kinds,
                slices=ctx.spec.slice_analysis(),
                schedules=ctx.config.schedules,
            ),
        )


class ProfileStage(Stage):
    """Stage 2: fault-free profile runs of every workload (parallel)."""

    name = "profile"
    provides = ("profiles",)

    def run(self, ctx: PipelineContext) -> None:
        ctx.driver.profile_all(ctx.executor)
        ctx.put(
            "profiles",
            ProfilesArtifact(groups=ctx.driver.profiles(), runs_executed=ctx.driver.runs_executed),
        )

    def hydrate(self, ctx: PipelineContext, artifacts: Dict[str, Any]) -> None:
        profiles: ProfilesArtifact = artifacts["profiles"]
        ctx.driver.install_profiles(profiles.groups)
        ctx.driver.runs_executed = profiles.runs_executed


class AllocationStage(Stage):
    """Stage 3: 3PA budget allocation driving the injection experiments.

    The (fault, test) experiments scheduled within each 3PA phase are
    independent, so they fan out over the context's executor — the hot
    path of every campaign.
    """

    name = "allocate"
    requires = ("analysis", "profiles")
    provides = ("allocation",)

    def run(self, ctx: PipelineContext) -> None:
        faults = list(ctx.require("analysis").faults)
        allocator = ThreePhaseAllocator(ctx.driver, faults, ctx.config, executor=ctx.executor)
        outcome = allocator.run()
        ctx.put(
            "allocation",
            AllocationArtifact(
                outcome=outcome,
                experiments_run=ctx.driver.experiments_run,
                runs_executed=ctx.driver.runs_executed,
            ),
        )

    def hydrate(self, ctx: PipelineContext, artifacts: Dict[str, Any]) -> None:
        allocation: AllocationArtifact = artifacts["allocation"]
        # Replaying each record's edges in record order rebuilds the edge DB
        # exactly as the live run left it (insertion order, merged states).
        for record in allocation.outcome.records:
            if record.result is None:
                continue
            ctx.driver.edges.add_all(record.result.edges)
            ctx.driver.results.append(record.result)
        ctx.driver.experiments_run = allocation.experiments_run
        ctx.driver.runs_executed = allocation.runs_executed


class BeamSearchStage(Stage):
    """Stages 4-5: stitch compatible edges, beam-search for cycles."""

    name = "search"
    requires = ("allocation",)
    provides = ("beam",)

    def run(self, ctx: PipelineContext) -> None:
        outcome = ctx.require("allocation").outcome
        beam = BeamSearch(ctx.config, outcome.fault_scores)
        ctx.put("beam", beam.search(ctx.driver.edges.all_edges()))


class ReportStage(Stage):
    """Final stage: cycle clustering and ground-truth matching."""

    name = "report"
    requires = ("analysis", "allocation", "beam")
    provides = ("report",)

    def run(self, ctx: PipelineContext) -> None:
        allocation = ctx.require("allocation").outcome
        beam = ctx.require("beam")
        ctx.put(
            "report",
            build_report(
                ctx.spec,
                beam.cycles,
                allocation.clustering,
                n_faults=len(ctx.require("analysis").faults),
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


def default_stages() -> List[Stage]:
    """The standard five-stage CSnake pipeline, in dependency order."""
    return [
        StaticAnalysisStage(),
        ProfileStage(),
        AllocationStage(),
        BeamSearchStage(),
        ReportStage(),
    ]


#: Stage names accepted by ``--stages``, in canonical order.
STAGE_NAMES = tuple(s.name for s in default_stages())


def producer_of(artifact: str) -> Optional[Stage]:
    """The default stage that provides ``artifact`` (None if not standard).

    Used when resuming a *filtered* stage list: a live stage's requirement
    may have to be loaded from the session even though its producing stage
    is absent, and hydration logic lives on the producer.
    """
    for stage in default_stages():
        if artifact in stage.provides:
            return stage
    return None
