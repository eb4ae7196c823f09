"""Three-phase allocation (3PA) protocol of the test budget (§5, §A).

Phase one (25%) injects each fault into its highest-coverage reaching test
and clusters faults by the IDF-vectorized similarity of their interference
lists (*causally equivalent faults*).  Phase two (50%) distributes quota
round-robin across clusters, injecting a random cluster member into a new
workload each time.  Phase three (25%) allocates by weighted random draw,
weighting clusters by ``max(ε, 1 − SimScore)`` so clusters with
*conditional* causal consequences — a fault causing different things in
different workloads — receive more budget.  Unused quota transfers between
clusters per §5.2.

Within one phase, allocation *decisions* depend only on the seeded RNG and
on which (fault, test) combinations were already scheduled — never on the
outcome of an experiment; results only feed the clustering and SimScore
steps *between* phases.  The allocator exploits this: it schedules a whole
phase first, then flushes the scheduled experiments as one batch through
``driver.run_experiments`` (parallel when the executor has workers),
committing results in schedule order.  A parallel allocation is therefore
bit-identical to a serial one.

**Adaptive budget** (``CSnakeConfig.adaptive_budget``): a quarter of the
phase-two and phase-three quotas is carved into a reallocation pool spent
on the faults whose committed experiments showed the most *promising*
(smallest) loop-interference p-values — "almost significant" faults earn
extra repeats.  To preserve the parity guarantee above, the promise
ranking is computed only from already-flushed results, frozen before the
pool is spent, and ties break on the fault sort order; no RNG draw and no
mid-batch result ever feeds an adaptive decision, so serial, process, and
remote campaigns still commit identical records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..pipeline.executor import Executor

from ..config import CLUSTER_DISTANCE, CSnakeConfig
from ..types import FaultKey
from .clustering import Clustering, cluster_faults
from .driver import ExperimentDriver
from .fca import FcaResult
from .idf import IdfVectorizer
from .simscore import allocation_weight, cluster_sim_scores, fault_sim_scores


@dataclass
class AllocationRecord:
    """One consumed budget unit: a (fault, test) injection experiment.

    ``result`` is ``None`` only transiently, while the experiment is
    scheduled but not yet flushed.
    """

    phase: int
    fault: FaultKey
    test_id: str
    result: Optional[FcaResult]


@dataclass
class AllocationOutcome:
    """Everything downstream stages need from the budget allocation."""

    records: List[AllocationRecord] = field(default_factory=list)
    clustering: Optional[Clustering] = None
    cluster_scores: Dict[int, float] = field(default_factory=dict)
    fault_scores: Dict[FaultKey, float] = field(default_factory=dict)
    budget_total: int = 0
    budget_used: int = 0
    unreachable: List[FaultKey] = field(default_factory=list)

    def records_in_phase(self, phase: int) -> List[AllocationRecord]:
        return [r for r in self.records if r.phase == phase]


class ThreePhaseAllocator:
    """Runs the 3PA protocol against an experiment driver."""

    def __init__(
        self,
        driver: ExperimentDriver,
        faults: Sequence[FaultKey],
        config: Optional[CSnakeConfig] = None,
        executor: Optional["Executor"] = None,
    ) -> None:
        self.driver = driver
        self.faults = sorted(set(faults))
        self.config = config or driver.config
        self.executor = executor
        self.rng = random.Random(self.config.seed * 31 + 7)
        self._used_tests: Dict[FaultKey, Set[str]] = {f: set() for f in self.faults}
        self._reaching: Dict[FaultKey, List[str]] = {}
        self._scheduled: List[AllocationRecord] = []
        self.outcome = AllocationOutcome()

    # ------------------------------------------------------------- plumbing

    def _reaching_tests(self, fault: FaultKey) -> List[str]:
        tests = self._reaching.get(fault)
        if tests is None:
            tests = self.driver.tests_reaching(fault)
            self._reaching[fault] = tests
        return tests

    def _unused_tests(self, fault: FaultKey) -> List[str]:
        used = self._used_tests[fault]
        return [t for t in self._reaching_tests(fault) if t not in used]

    def _run(self, phase: int, fault: FaultKey, test_id: str) -> AllocationRecord:
        """Schedule one budget unit; `_flush` executes it."""
        self._used_tests[fault].add(test_id)
        record = AllocationRecord(phase=phase, fault=fault, test_id=test_id, result=None)
        self._scheduled.append(record)
        self.outcome.records.append(record)
        self.outcome.budget_used += 1
        return record

    def _flush(self) -> None:
        """Execute all scheduled experiments as one batch, in schedule order."""
        pairs = [(r.fault, r.test_id) for r in self._scheduled]
        results = self.driver.run_experiments(pairs, self.executor)
        for record, result in zip(self._scheduled, results):
            record.result = result
        self._scheduled = []

    def _draw_from_cluster(self, cluster, phase: int) -> Optional[AllocationRecord]:
        """Random fault from the cluster into a random new workload."""
        candidates = [f for f in cluster if self._unused_tests(f)]
        if not candidates:
            return None
        fault = self.rng.choice(candidates)
        test_id = self.rng.choice(self._unused_tests(fault))
        return self._run(phase, fault, test_id)

    # ----------------------------------------------------------- vectorizers

    def _fit_and_vectorize(self) -> List[Tuple[FaultKey, "object"]]:
        """(Re)fit the IDF vectorizer on all interference lists so far and
        return (fault, vector) observations (§5.2: the phase-two vectorizer
        is trained on data from both phases)."""
        interferences = [r.result.interference for r in self.outcome.records]
        vectorizer = IdfVectorizer(self.faults).fit(interferences)
        return [
            (r.fault, vectorizer.vectorize(r.result.interference)) for r in self.outcome.records
        ]

    # -------------------------------------------------------------- adaptive

    def _adaptive_split(self, budget: int) -> Tuple[int, int]:
        """Carve the adaptive reallocation pool (a quarter) off a phase
        quota; ``(budget, 0)`` when adaptivity is off."""
        if not self.config.adaptive_budget or budget <= 1:
            return budget, 0
        pool = budget // 4
        return budget - pool, pool

    def _promising_faults(self) -> List[FaultKey]:
        """Faults ranked by their best committed loop p-value (ascending:
        most promising first; ties break on the fault sort order)."""
        promise: Dict[FaultKey, float] = {}
        for record in self.outcome.records:
            result = record.result
            if result is None or result.min_p is None:
                continue
            best = promise.get(record.fault)
            if best is None or result.min_p < best:
                promise[record.fault] = result.min_p
        return sorted(promise, key=lambda f: (promise[f], f))

    def _spend_adaptive(self, pool: int, phase: int) -> int:
        """Spend the carved pool on the most promising faults.

        The ranking is frozen from committed (flushed) results before the
        first unit is spent, and spending walks the ranking round-robin (one
        extra repeat per fault per round) until the pool or the unused
        reaching tests run out.
        Returns the unspendable remainder.
        """
        if pool <= 0:
            return 0
        ranked = self._promising_faults()
        remaining = pool
        progressed = True
        while remaining > 0 and progressed:
            progressed = False
            for fault in ranked:
                if remaining <= 0:
                    break
                unused = self._unused_tests(fault)
                if not unused:
                    continue
                self._run(phase, fault, unused[0])
                remaining -= 1
                progressed = True
        self._flush()
        return remaining

    # ---------------------------------------------------------------- phases

    def _phase_one(self, budget: int) -> int:
        """Each fault once, into its highest-coverage reaching test."""
        used_before = self.outcome.budget_used
        for fault in self.faults:
            if self.outcome.budget_used - used_before >= budget:
                break
            best = self.driver.best_test_for(fault)
            if best is None:
                self.outcome.unreachable.append(fault)
                continue
            self._run(1, fault, best)
        return budget - (self.outcome.budget_used - used_before)

    def _cluster_phase_one(self) -> Clustering:
        observed = self.outcome.records_in_phase(1)
        faults = [r.fault for r in observed]
        vectorizer = IdfVectorizer(self.faults).fit([r.result.interference for r in observed])
        vectors = [vectorizer.vectorize(r.result.interference) for r in observed]
        return cluster_faults(faults, vectors, CLUSTER_DISTANCE)

    def _phase_two(self, budget: int, clustering: Clustering) -> int:
        """Round-robin quota over clusters; leftover moves to larger clusters."""
        remaining = budget
        clusters = list(clustering.clusters)
        exhausted: Set[int] = set()
        idx = 0
        while remaining > 0 and len(exhausted) < len(clusters):
            cluster = clusters[idx % len(clusters)]
            idx += 1
            if cluster.cluster_id in exhausted:
                continue
            record = self._draw_from_cluster(cluster, 2)
            if record is None:
                exhausted.add(cluster.cluster_id)
                # Quota transfer: hand this unit to a random larger,
                # non-exhausted cluster (§5.2).
                larger = [
                    c
                    for c in clusters
                    if c.cluster_id not in exhausted and len(c) >= len(cluster)
                ]
                target = self.rng.choice(larger) if larger else None
                if target is not None:
                    record = self._draw_from_cluster(target, 2)
                    if record is None:
                        exhausted.add(target.cluster_id)
            if record is not None:
                remaining -= 1
        return remaining

    def _phase_three(self, budget: int, clustering: Clustering) -> int:
        """Weighted random allocation favouring conditional clusters."""
        remaining = budget
        clusters = list(clustering.clusters)
        while remaining > 0:
            live = [c for c in clusters if any(self._unused_tests(f) for f in c)]
            if not live:
                break
            weights = [
                allocation_weight(self.outcome.cluster_scores.get(c.cluster_id, 1.0))
                for c in live
            ]
            chosen = self.rng.choices(live, weights=weights, k=1)[0]
            record = self._draw_from_cluster(chosen, 3)
            if record is None:
                # Transfer to the live cluster with the smallest weight (§5.2).
                fallback = min(
                    live,
                    key=lambda c: allocation_weight(
                        self.outcome.cluster_scores.get(c.cluster_id, 1.0)
                    ),
                )
                record = self._draw_from_cluster(fallback, 3)
            if record is not None:
                remaining -= 1
        return remaining

    # ----------------------------------------------------------------- main

    def run(self) -> AllocationOutcome:
        p1, p2, p3 = self.config.phase_budgets(len(self.faults))
        self.outcome.budget_total = p1 + p2 + p3

        leftover = self._phase_one(p1)
        self._flush()
        clustering = self._cluster_phase_one()
        self.outcome.clustering = clustering

        p2_main, p2_pool = self._adaptive_split(p2 + leftover)
        leftover = self._phase_two(p2_main, clustering)
        self._flush()
        leftover += self._spend_adaptive(p2_pool, 2)

        observations = self._fit_and_vectorize()
        self.outcome.cluster_scores = cluster_sim_scores(clustering, observations)

        p3_main, p3_pool = self._adaptive_split(p3 + leftover)
        leftover = self._phase_three(p3_main, clustering)
        self._flush()
        self._spend_adaptive(p3_pool + leftover, 3)

        observations = self._fit_and_vectorize()
        self.outcome.cluster_scores = cluster_sim_scores(clustering, observations)
        self.outcome.fault_scores = fault_sim_scores(clustering, self.outcome.cluster_scores)
        return self.outcome
