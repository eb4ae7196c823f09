"""Campaign runners shared by the benchmark suite.

A *campaign* is one full CSnake evaluation of one system: static analysis,
profile runs, 3PA-allocated fault injection, FCA, beam search, cycle
clustering, and ground-truth matching.  Campaigns run through the staged
:class:`repro.pipeline.Pipeline`, so the benchmarks exercise exactly the
code path of ``repro run``.  The benchmark files regenerate the paper's
tables from campaign results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import FAST_DELAY_VALUES_MS, CSnakeConfig
from ..core.allocation import AllocationOutcome
from ..core.beam import BeamSearch
from ..core.driver import ExperimentDriver
from ..core.report import DetectionReport, build_report
from ..baselines.random_alloc import RandomAllocator
from ..instrument.analyzer import analyze
from ..pipeline import Pipeline, PipelineContext
from ..systems import get_system
from ..types import CausalEdge

#: Per-system budget multiplier.  The paper uses 4 x |F| against thousands
#: of tests; our suites have 7-16 tests per system, so the multiplier is
#: scaled to reach a comparable fraction of the (fault, reaching-test)
#: space (documented in DESIGN.md).
BUDGET_PER_FAULT: Dict[str, int] = {
    "toy": 4,
    "minihdfs2": 10,
    "minihdfs3": 12,
    "minihbase": 8,
    "miniflink": 8,
    "miniozone": 8,
}


def bench_config(system: str, **overrides: object) -> CSnakeConfig:
    """The evaluation configuration: 3 repetitions and a 3-point delay sweep
    keep the campaign tractable; everything else is the paper default."""
    params = dict(
        repeats=3,
        delay_values_ms=FAST_DELAY_VALUES_MS,
        seed=7,
        budget_per_fault=BUDGET_PER_FAULT.get(system, 8),
        beam_width=30_000,
        max_chain_len=5,
    )
    params.update(overrides)
    return CSnakeConfig(**params)


@dataclass
class CampaignResult:
    system: str
    report: DetectionReport
    ctx: PipelineContext
    wall_time_s: float = 0.0

    @property
    def edges(self) -> List[CausalEdge]:
        return self.ctx.driver.edges.all_edges()

    @property
    def allocation(self) -> AllocationOutcome:
        return self.ctx.get("allocation").outcome

    def detection_phase(self, bug_id: str) -> Optional[int]:
        """3PA phase after which all of the bug's cycle edges were known
        (Table 3's "Alloc." column)."""
        self.ctx.spec.bug(bug_id)  # raises KeyError on unknown ids
        match = next(m for m in self.report.bug_matches if m.bug.bug_id == bug_id)
        if not match.detected:
            return None
        cycle = match.best_cycle
        needed = {e.key() for e in cycle.edges}
        discovered: Dict[Tuple, int] = {}
        for record in self.allocation.records:
            for edge in record.result.edges:
                discovered.setdefault(edge.key(), record.phase)
        phases = [discovered.get(k) for k in needed]
        if any(p is None for p in phases):
            return 3  # closed only by the full edge set
        return max(1, max(phases))


def run_campaign(system: str, config: Optional[CSnakeConfig] = None) -> CampaignResult:
    """One full CSnake evaluation of one system, through the pipeline."""
    import time

    t0 = time.perf_counter()
    ctx = Pipeline(get_system(system), config or bench_config(system)).run()
    return CampaignResult(
        system=system, report=ctx.get("report"), ctx=ctx,
        wall_time_s=time.perf_counter() - t0,
    )


def run_random_campaign(system: str, config: Optional[CSnakeConfig] = None) -> DetectionReport:
    """Same budget, random allocation (Table 3's "Rnd.?" column)."""
    spec = get_system(system)
    cfg = config or bench_config(system)
    driver = ExperimentDriver(spec, cfg)
    faults = analyze(spec.registry).faults
    driver.profile_all()
    allocator = RandomAllocator(driver, faults, cfg)
    outcome = allocator.run()
    beam = BeamSearch(cfg, {})
    result = beam.search(driver.edges.all_edges())
    return build_report(
        spec, result.cycles, None,
        n_faults=len(faults), budget_used=outcome.budget_used,
        runs_executed=driver.runs_executed, n_edges=len(driver.edges),
    )


def table3_rows(campaign: CampaignResult) -> List[List[object]]:
    """Rows of the Table 3 reproduction for one system."""
    rows: List[List[object]] = []
    for match in campaign.report.bug_matches:
        bug = match.bug
        if match.detected:
            cycle = match.best_cycle
            sig = cycle.signature()
            tests = len(cycle.tests())
            phase = campaign.detection_phase(bug.bug_id)
        else:
            sig, tests, phase = "-", 0, None
        rows.append(
            [
                bug.bug_id,
                "yes" if match.detected else "NO",
                bug.signature,
                sig,
                phase if phase is not None else "-",
                tests,
                bug.jira,
            ]
        )
    return rows


def table4_row(campaign: CampaignResult) -> Tuple[List[object], List[object]]:
    """(unlimited, <=1 delay) Table 4 numbers for one system."""
    unlimited = campaign.report
    cfg_capped = bench_config(campaign.system, max_delay_faults=1)
    beam = BeamSearch(cfg_capped, campaign.allocation.fault_scores)
    capped_cycles = beam.search(campaign.edges).cycles
    capped = build_report(
        campaign.ctx.spec, capped_cycles, campaign.allocation.clustering
    )

    def nums(report: DetectionReport) -> List[object]:
        return [
            len(report.cycles),
            len(report.cycle_clusters),
            len(report.true_positive_clusters()),
            len(report.detected_bugs),
        ]

    return nums(unlimited), nums(capped)
