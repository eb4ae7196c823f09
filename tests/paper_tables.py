"""The paper's §8 tables, the baselines they compare against, and four
ablations: one pytest module.

* Table 2: injection points, monitor points and tests per system;
* Table 3: the 15 self-sustaining cascades, with its "Rnd.?" column (the
  same campaign with random allocation) and "Alt.?" column (the naive
  single-fault strategy of §8.2);
* Table 4: cycles, clusters and true positives, unlimited and with at
  most one delay per cycle;
* §8.2.1: Jepsen/Blockade-style blackbox fuzzing;
* the design ablations DESIGN.md calls out, and the §8.5 agent overhead.

Its name matches no ``test_*.py`` pattern, so the tier-1 suite does not
collect it; run it by path (``-s`` prints the tables)::

    PYTHONPATH=src python -m pytest -q -s tests/paper_tables.py

A campaign is :data:`repro.pipeline.STAGES` run on one
:class:`~repro.pipeline.PipelineContext`, with the allocate stage passed
in: the 3PA ``allocate_stage`` or :func:`random_allocate`.  Everything
else (fault space, profiles, FCA, beam search, report) is the code path
of ``repro run``, so the two differ in allocation alone.  Each system's
3PA campaign runs once per session (:func:`evaluation_campaign`) and
every table reads it.
"""

import functools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
import pytest

from repro.config import CSnakeConfig
from repro.core.allocation import AllocationOutcome, AllocationRecord
from repro.core.beam import BeamSearch
from repro.core.clustering import cluster_faults
from repro.core.driver import ExperimentDriver, seed_for
from repro.core.idf import IdfVectorizer
from repro.core.report import DetectionReport, build_report
from repro.instrument.analyzer import analyze
from repro.instrument.runtime import Runtime
from repro.instrument.trace import RunTrace
from repro.pipeline import STAGES, PipelineContext
from repro.pipeline.stages import AllocationArtifact, allocate_stage, analyze_stage
from repro.sim import SimEnv
from repro.systems import evaluation_systems, get_system
from repro.systems.base import SystemSpec
from repro.types import FaultKey

# ---------------------------------------------------------------- config

#: Reduced three-point delay sweep of the evaluation: one value per decade
#: keeps campaigns tractable while still exercising the short/medium/long
#: contention regimes (the paper default is ``DELAY_VALUES_MS``).
FAST_DELAY_VALUES_MS: Tuple[float, ...] = (250.0, 1000.0, 8000.0)

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


# ------------------------------------------------------------- baselines


class RandomAllocator:
    """Random test-budget allocation (§8.1).

    Spends the 3PA budget on (fault, test) combinations picked uniformly at
    random *with replacement*: the sampling a tester without the causal
    feedback loop would do.
    """

    def __init__(
        self,
        driver: ExperimentDriver,
        faults: Sequence[FaultKey],
        config: Optional[CSnakeConfig] = None,
    ) -> None:
        self.driver = driver
        self.faults = sorted(set(faults))
        self.config = config or driver.config
        self.rng = random.Random(self.config.seed * 17 + 3)
        self.outcome = AllocationOutcome()

    def run(self) -> AllocationOutcome:
        budget = self.config.budget_per_fault * len(self.faults)
        self.outcome.budget_total = budget
        reaching = {
            fault: self.driver.tests_reaching(fault) for fault in self.faults
        }
        candidates: List[FaultKey] = [f for f in self.faults if reaching[f]]
        self.outcome.unreachable = [f for f in self.faults if not reaching[f]]
        if not candidates:
            return self.outcome
        seen = set()
        for _ in range(budget):
            fault = self.rng.choice(candidates)
            test_id = self.rng.choice(reaching[fault])
            if (fault, test_id) in seen:
                # Re-running an identical experiment yields nothing new; it
                # still consumes budget (with-replacement sampling).
                self.outcome.budget_used += 1
                continue
            seen.add((fault, test_id))
            result = self.driver.run_experiment(fault, test_id)
            self.outcome.records.append(
                AllocationRecord(phase=0, fault=fault, test_id=test_id, result=result)
            )
            self.outcome.budget_used += 1
        return self.outcome


def random_allocate(ctx: PipelineContext) -> None:
    """The allocate stage of Table 3's "Rnd.?" column: the 3PA budget over
    the same fault space, spent by :class:`RandomAllocator`."""
    allocator = RandomAllocator(ctx.driver, ctx.get("analysis").faults, ctx.config)
    ctx.put("allocation", AllocationArtifact(outcome=allocator.run()))


@dataclass
class NaiveResult:
    """Self-causing faults found, and known-bug attribution."""

    self_causing: List[Tuple[FaultKey, str]] = field(default_factory=list)
    experiments: int = 0
    detected_bugs: Dict[str, bool] = field(default_factory=dict)


class NaiveSelfCausation:
    """The naive single-fault self-causation strategy of §8.2.

    Injects one fault into one test and checks whether the fault *causes
    itself*: a delayed loop whose own iteration count increases, or an
    exception/negation that re-occurs naturally after the injection.  No
    causal stitching across tests.  A known bug counts as detected if any
    of its core faults is self-causing in some single test.  Each fault of
    the campaign's fault space (the ``analysis`` artifact) is tried in up
    to :attr:`MAX_TESTS_PER_FAULT` of its reaching tests.
    """

    MAX_TESTS_PER_FAULT = 4

    def __init__(self, spec: SystemSpec, config: CSnakeConfig) -> None:
        ctx = PipelineContext(spec, config)
        analyze_stage(ctx)
        self.spec = spec
        self.driver = ctx.driver
        self.faults = sorted(set(ctx.get("analysis").faults))

    def run(self) -> NaiveResult:
        result = NaiveResult()
        self_causing: Set[FaultKey] = set()
        for fault in self.faults:
            reaching = self.driver.tests_reaching(fault)
            # Highest-coverage tests first (the strategy's best shot).
            reaching.sort(key=lambda t: -self.driver.coverage_of(t))
            for test_id in reaching[: self.MAX_TESTS_PER_FAULT]:
                outcome = self.driver.run_experiment(fault, test_id)
                result.experiments += 1
                if fault in outcome.interference:
                    result.self_causing.append((fault, test_id))
                    self_causing.add(fault)
                    break
        for bug in self.spec.known_bugs:
            result.detected_bugs[bug.bug_id] = bool(bug.core_faults & self_causing)
        return result


@dataclass
class BlackboxResult:
    runs: int = 0
    crashes_injected: int = 0
    partitions_injected: int = 0
    detected_bugs: Dict[str, bool] = field(default_factory=dict)


class BlackboxFuzzer:
    """Jepsen/Blockade-style blackbox fault fuzzing (§8.2.1).

    Injects coarse-grained *external* faults (node crashes and restarts,
    network partitions and heals) at random times during a workload, with
    no instrumentation-driven injection and no view of internal fault
    sites.  A known cascade counts as triggered only if the run both
    naturally exhibits every core fault of the bug and shows runaway load
    (event saturation): the observable signature such a tool could flag.
    The paper finds these tools detect none of the 15 bugs, because the
    required conditions are fine-grained internal faults (loop contention,
    specific exceptions, detector negations) that coarse external faults do
    not produce.
    """

    FAULTS_PER_RUN = 3

    def __init__(self, spec: SystemSpec, config: CSnakeConfig, runs_per_workload: int) -> None:
        self.spec = spec
        self.config = config
        self.runs_per_workload = runs_per_workload

    def _schedule_chaos(self, env: SimEnv, rng: random.Random, result: BlackboxResult) -> None:
        """Arm random crash/restart and partition/heal pairs."""
        nodes = [n for n in env.nodes if not n.name.startswith("<")]
        if len(nodes) < 2:
            return
        horizon = 100_000.0
        for _ in range(self.FAULTS_PER_RUN):
            victim = rng.choice(nodes)
            at = rng.uniform(10_000.0, horizon * 0.7)
            duration = rng.uniform(5_000.0, 20_000.0)
            if rng.random() < 0.5:
                result.crashes_injected += 1
                env.schedule_at(at, victim, victim.crash)
                env.schedule_at(at + duration, victim, victim.restart)
            else:
                other = rng.choice([n for n in nodes if n is not victim])
                result.partitions_injected += 1
                pair = (victim.name, other.name)
                env.schedule_at(at, victim, lambda p=pair: env.partition_names(*p))
                env.schedule_at(at + duration, victim, lambda p=pair: env.heal_names(*p))

    def run(self) -> BlackboxResult:
        result = BlackboxResult()
        triggered: Dict[str, bool] = {b.bug_id: False for b in self.spec.known_bugs}
        for test_id in self.spec.workload_ids():
            workload = self.spec.workloads[test_id]
            for i in range(self.runs_per_workload):
                seed = seed_for(test_id, 1000 + i, self.config.seed)
                rng = random.Random(seed)
                trace = RunTrace(test_id=test_id, injection=None, seed=seed)
                runtime = Runtime(self.spec.registry, trace=trace)
                env = SimEnv(workload.sim_config, seed=seed)
                runtime.bind_env(env)
                env.runtime = runtime
                try:
                    workload.setup(env, runtime)
                    self._schedule_chaos(env, rng, result)
                    env.run(workload.duration_ms)
                    saturated = env.saturated
                finally:
                    env.close()
                    runtime.close()
                result.runs += 1
                natural = trace.natural_faults()
                for bug in self.spec.known_bugs:
                    if bug.core_faults <= natural and saturated:
                        triggered[bug.bug_id] = True
        result.detected_bugs = triggered
        return result


# ------------------------------------------------------------- campaigns


def campaign(
    system: str,
    config: Optional[CSnakeConfig] = None,
    allocate: Callable[[PipelineContext], None] = allocate_stage,
) -> PipelineContext:
    """One campaign of ``system``: :data:`STAGES` in order on a fresh
    context, with ``allocate`` as the allocate stage."""
    ctx = PipelineContext(get_system(system), config or bench_config(system))
    for name, stage in STAGES:
        (allocate if name == "allocate" else stage)(ctx)
    return ctx


#: The 3PA evaluation campaign of each system, run once per session.
evaluation_campaign = functools.lru_cache(maxsize=None)(campaign)


def detection_phase(ctx: PipelineContext, bug_id: str) -> Optional[int]:
    """3PA phase after which all of the bug's cycle edges were known
    (Table 3's "Alloc." column)."""
    ctx.spec.bug(bug_id)  # raises KeyError on unknown ids
    match = next(m for m in ctx.get("report").bug_matches if m.bug.bug_id == bug_id)
    if not match.detected:
        return None
    needed = {e.key() for e in match.best_cycle.edges}
    discovered: Dict[Tuple, int] = {}
    for record in ctx.get("allocation").outcome.records:
        for edge in record.result.edges:
            discovered.setdefault(edge.key(), record.phase)
    phases = [discovered.get(k) for k in needed]
    if any(p is None for p in phases):
        return 3  # closed only by the full edge set
    return max(1, max(phases))


# ---------------------------------------------------------------- tables


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned ASCII table (paper-style output)."""
    cells: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        cells.append([str(c) for c in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        line = "  ".join(c.ljust(w) for c, w in zip(row, widths))
        lines.append(line.rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def test_table2():
    """Table 2: the per-system inventory of loop / exception / negation
    injection points, branch monitor points and integration tests.
    Absolute numbers are simulator-scale; the shape (every system exposes
    all site kinds, HDFS 3 exposes more than HDFS 2) is what carries over."""
    rows = []
    for name in evaluation_systems():
        spec = get_system(name)
        counts = spec.registry.counts()
        rows.append(
            [
                name,
                counts["loop"],
                counts["throw"] + counts["lib_call"],
                counts["detector"],
                counts["branch"],
                len(spec.workloads),
                analyze(spec.registry).counts["injectable"],
            ]
        )
    print()
    print("Table 2 — injection points, monitor points, and tests per system")
    print(
        format_table(
            ["System", "Loop", "Exception", "Negation", "Branch", "Test", "Injectable"],
            rows,
        )
    )
    assert len(rows) == 5
    for row in rows:
        assert all(c > 0 for c in row[1:]), row
    # HDFS 3 exposes more handlers/sites than HDFS 2 (§8.4.1).
    hdfs2 = next(r for r in rows if r[0] == "minihdfs2")
    hdfs3 = next(r for r in rows if r[0] == "minihdfs3")
    assert hdfs3[6] > hdfs2[6]


@pytest.mark.parametrize("system", evaluation_systems())
def test_table3(system):
    """Table 3: per known bug, detected?, expected vs measured cycle
    composition, the 3PA phase after which the cycle's relationships were
    all known, and the number of distinct tests stitched."""
    ctx = evaluation_campaign(system)
    report = ctx.get("report")
    rows: List[List[object]] = []
    for match in report.bug_matches:
        bug = match.bug
        if match.detected:
            cycle = match.best_cycle
            sig, tests = cycle.signature(), len(cycle.tests())
            phase = detection_phase(ctx, bug.bug_id)
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
    print()
    print("Table 3 (%s) — campaign: %s" % (system, report.summary()))
    print(
        format_table(
            ["Bug", "Detected", "Paper sig", "Measured sig", "Alloc.", "Tests", "JIRA"], rows
        )
    )
    # Shape assertions: the campaign detects a clear majority of the seeded
    # bugs (allocation is randomized; the designated-chain integration test
    # proves all 15 are detectable given the right experiments).
    detected = sum(1 for r in rows if r[1] == "yes")
    assert detected >= max(1, len(rows) // 2), rows


@pytest.mark.parametrize("system", evaluation_systems())
def test_table4(system):
    """Table 4: raw cycles > distinct clusters > true-positive clusters, and
    capping the delay injections per cycle at one cuts the raw cycle count
    while keeping most true positives."""
    ctx = evaluation_campaign(system)
    allocation = ctx.get("allocation").outcome
    beam = BeamSearch(bench_config(system, max_delay_faults=1), allocation.fault_scores)
    capped_cycles = beam.search(ctx.driver.edges.all_edges()).cycles
    capped = build_report(ctx.spec, capped_cycles, allocation.clustering)

    def nums(report: DetectionReport) -> List[int]:
        return [
            len(report.cycles),
            len(report.cycle_clusters),
            len(report.true_positive_clusters()),
        ]

    cycles, clusters, tp = nums(ctx.get("report"))
    cycles1, clusters1, tp1 = nums(capped)
    print()
    print("Table 4 (%s)" % system)
    print(
        format_table(
            ["System", "Cycles", "Clusters", "TP", "Cycles(1D)", "Clusters(1D)", "TP(1D)"],
            [[system, cycles, clusters, tp, cycles1, clusters1, tp1]],
        )
    )
    assert cycles >= clusters >= tp
    assert cycles1 <= cycles  # the delay cap prunes cycles
    assert clusters1 <= clusters


@pytest.mark.parametrize("system", ["minihdfs2", "minihbase", "miniozone"])
def test_random_allocation_underperforms_3pa(system):
    """Table 3's "Rnd.?": the same budget, allocated at random."""
    report = evaluation_campaign(system).get("report")
    random_report = campaign(system, allocate=random_allocate).get("report")
    rows = [
        ["3PA", len(report.detected_bugs), report.budget_used],
        ["random", len(random_report.detected_bugs), random_report.budget_used],
    ]
    print()
    print("Allocation comparison (%s)" % system)
    print(format_table(["Protocol", "Bugs detected", "Budget"], rows))
    assert len(random_report.detected_bugs) <= len(report.detected_bugs)


@pytest.mark.parametrize("system", evaluation_systems())
def test_naive_single_fault_strategy(system):
    """Table 3's "Alt.?" (§8.2): the naive strategy misses most bugs (the
    paper: 11 of 15)."""
    spec = get_system(system)
    result = NaiveSelfCausation(spec, bench_config(system)).run()
    rows = [[bug_id, "yes" if hit else "no"] for bug_id, hit in sorted(result.detected_bugs.items())]
    print()
    print("Naive single-fault self-causation (%s)" % system)
    print(format_table(["Bug", "Naive detects"], rows))
    for bug in spec.known_bugs:
        if not bug.alt_detectable:
            assert not result.detected_bugs[bug.bug_id], (
                "%s should require stitching" % bug.bug_id
            )


@pytest.mark.parametrize("system", evaluation_systems())
def test_blackbox_fuzzing_finds_nothing(system):
    """§8.2.1: coarse external faults trigger none of the 15 cascades."""
    result = BlackboxFuzzer(get_system(system), bench_config(system), runs_per_workload=3).run()
    print()
    print(
        "Blackbox fuzzing (%s): %d runs, %d crashes, %d partitions -> %d bugs"
        % (
            system,
            result.runs,
            result.crashes_injected,
            result.partitions_injected,
            sum(result.detected_bugs.values()),
        )
    )
    assert result.crashes_injected + result.partitions_injected > 0
    assert not any(result.detected_bugs.values())


# ------------------------------------------------------------- ablations


def test_compat_check_ablation():
    """§6.2: without the local compatibility check, unsound stitches let
    extra (invalid) cycles through."""
    ctx = evaluation_campaign("minihdfs2")
    edges = ctx.driver.edges.all_edges()
    scores = ctx.get("allocation").outcome.fault_scores
    on = BeamSearch(bench_config("minihdfs2"), scores).search(edges)
    off = BeamSearch(bench_config("minihdfs2", compat_check=False), scores).search(edges)
    rejected = on.compat.rejected_state
    print()
    print(
        "compat check ON: %d cycles (%d stitches rejected by state) | OFF: %d cycles"
        % (len(on.cycles), rejected, len(off.cycles))
    )
    assert rejected > 0
    assert len(off.cycles) >= len(on.cycles)


def _cycles_by(knob: str, values: Sequence[int]) -> Dict[int, int]:
    """Cycle count of the minihdfs2 campaign's edges searched with each
    value of one beam knob."""
    ctx = evaluation_campaign("minihdfs2")
    edges = ctx.driver.edges.all_edges()
    scores = ctx.get("allocation").outcome.fault_scores
    counts = {}
    for value in values:
        beam = BeamSearch(bench_config("minihdfs2", **{knob: value}), scores)
        counts[value] = len(beam.search(edges).cycles)
    return counts


def test_beam_width_ablation():
    """Wider beams recover more cycles until the chain space is exhausted."""
    counts = _cycles_by("beam_width", (100, 1_000, 30_000))
    print()
    print(format_table(["Beam width", "Cycles"], sorted(counts.items())))
    widths = sorted(counts)
    assert counts[widths[0]] <= counts[widths[-1]]


def test_chain_length_ablation():
    """Longer chains expose longer cycles (at a cost)."""
    counts = _cycles_by("max_chain_len", (2, 3, 5))
    print()
    print(format_table(["Max chain len", "Cycles"], sorted(counts.items())))
    assert counts[2] <= counts[5]


def test_idf_weighting_ablation():
    """IDF weighting de-noises ubiquitous faults: clustering with uniform
    weights merges faults that IDF keeps apart (or vice versa), changing
    the cluster structure the 3PA protocol allocates over."""
    records = evaluation_campaign("minihdfs2").get("allocation").outcome.records
    faults = sorted({r.fault for r in records})
    docs = [r.result.interference for r in records]
    vec = IdfVectorizer(faults).fit(docs)
    idf_vectors = [vec.vectorize(d) for d in docs]
    idx = {f: i for i, f in enumerate(faults)}
    uniform_vectors = []
    for doc in docs:
        v = np.zeros(len(faults))
        for fault in doc:
            if fault in idx:
                v[idx[fault]] = 1.0
        n = np.linalg.norm(v)
        uniform_vectors.append(v / n if n else v)
    observed = [r.fault for r in records]
    n_idf = len(cluster_faults(observed, idf_vectors))
    n_uni = len(cluster_faults(observed, uniform_vectors))
    print()
    print("clusters with IDF weights: %d, with uniform weights: %d" % (n_idf, n_uni))
    assert n_idf > 0 and n_uni > 0


# -------------------------------------------------------------- overhead


def run_profile(spec: SystemSpec, test_id: str, enabled: bool) -> float:
    """Seconds of one profile run of ``test_id``, agent on or off."""
    workload = spec.workloads[test_id]
    seed = seed_for(test_id, 0, 99)
    runtime = Runtime(spec.registry, trace=RunTrace(test_id=test_id), enabled=enabled)
    env = SimEnv(workload.sim_config, seed=seed)
    runtime.bind_env(env)
    env.runtime = runtime
    started = time.perf_counter()
    try:
        workload.setup(env, runtime)
        env.run(workload.duration_ms)
        return time.perf_counter() - started
    finally:
        # Timed before the teardown; torn down, the run leaves no cyclic
        # world for the collector to free during a later timed run.
        env.close()
        runtime.close()


@pytest.mark.parametrize("system", ["minihdfs2", "minihbase", "miniozone"])
def test_instrumentation_overhead(system):
    """§8.5: wall-clock time of profile runs with the full runtime agent
    against runs with a disabled agent (the paper measures 63-376%, avg
    185%, for branch tracing and call-stack recording)."""
    spec = get_system(system)
    tests = spec.workload_ids()
    bare = sum(min(run_profile(spec, t, enabled=False) for _ in range(3)) for t in tests)
    instrumented = sum(min(run_profile(spec, t, enabled=True) for _ in range(3)) for t in tests)
    overhead = (instrumented - bare) / bare * 100.0
    print()
    print(
        "%s: bare %.3fs, instrumented %.3fs -> overhead %.0f%%"
        % (system, bare, instrumented, overhead)
    )
    # Instrumentation costs something; we only assert the direction and a
    # sane bound (the paper reports 63-376%).
    assert instrumented > bare
    assert overhead < 2_000.0
