"""Workload driver: executes profile and injection runs and feeds FCA.

Each (fault, test) experiment runs the workload ``repeats`` times with the
*same* per-repetition seeds as the test's profile runs — the injection run
is then an exact counterfactual of its profile run (identical seeded
randomness, differing only in the armed fault), which is the strongest
form of the paper's profile/injection comparison.  Delay injections sweep
the configured delay values (§4.2), one FCA per value, interferences
unioned; the sweep counts as a single budget unit.

Every experiment and every profile group runs through one path:
**resolve** (each item of a batch looked up once in the content-addressed
cache, :mod:`repro.cache`), **execute** only the misses (pure: seeded
workload repetitions and FCA, no driver state touched), **store** each
result as it arrives, then **commit** in submission order (edge DB,
result log, counters).  ``run_experiments`` is that path over (fault,
test) pairs, ``run_experiment`` a batch of one, ``profile`` /
``profile_all`` the same shape over tests without a commit step.  A
replayed result commits exactly like a fresh one, so warm ≡ cold, and
commit order is input order, so parallel ≡ serial.

Only *where the misses execute* differs between backends: in this
process, one after the other, through :meth:`ExperimentDriver.execute_experiment`
(each finished experiment is on disk before the next starts); or on
workers — pool processes, a manager's agent fleet — which cannot run the
driver's closures and so receive picklable :class:`ExperimentTask`
*descriptors* (system **name**, test id, fault, injection-plan payload,
config snapshot, and the task's result key) through
``executor.map(execute_experiment_task, tasks)``.
:func:`execute_experiment_task` is the one worker entry point: it finds
this process's driver for the task (:func:`worker_driver`: each worker
builds its spec once and computes each profile group at most once) and
resolves the task through that driver's own resolve → execute → store.
Runs are pure functions of (spec, config, seeds), which is what makes a
worker's result — or a re-queued task's re-execution on another worker —
bit-identical to the parent's.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover
    from ..pipeline.executor import Executor

from ..config import CSnakeConfig
from ..errors import ReproError, UnknownSite
from ..faults import model_for
from ..instrument.plan import InjectionPlan
from ..instrument.runtime import Runtime
from ..instrument.trace import RunGroup, RunTrace
from ..sim import SimEnv
from ..systems.base import SystemSpec, WorkloadSpec
from ..types import FaultKey
from .edges import EdgeDB
from .fca import FaultCausalityAnalysis, FcaResult


def seed_for(test_id: str, rep: int, base: int) -> int:
    """Stable per-(test, repetition) seed shared by profile and injection."""
    digest = hashlib.sha256(("%s#%d#%d" % (test_id, rep, base)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_workload(
    spec: SystemSpec,
    workload: WorkloadSpec,
    plan: Optional[InjectionPlan],
    seed: int,
) -> RunTrace:
    """Execute one run of one workload, optionally with an armed fault."""
    trace = RunTrace(test_id=workload.test_id, injection=plan, seed=seed)
    runtime = Runtime(spec.registry, trace=trace, plan=plan)
    env = SimEnv(workload.sim_config, seed=seed)
    env.runtime = runtime
    runtime.bind_env(env)
    try:
        if plan is not None:
            # Code-level kinds are armed by the runtime hooks; environment
            # kinds schedule their disturbance on the sim here (a no-op arm
            # for the classic models).
            model_for(plan.fault.kind).arm(env, runtime, plan)
        workload.setup(env, runtime)
        env.run(workload.duration_ms)
        trace.saturated = env.saturated
    finally:
        # The world is cyclic garbage now; torn down, reference counting
        # frees it and the cycle collector has nothing to find.
        env.close()
        runtime.close()
    return trace


@dataclass(frozen=True)
class ExperimentTask:
    """Picklable by-name work item executed inside a worker process.

    ``fault is None`` marks a profile task (compute the fault-free run
    group of ``test_id``); otherwise the task carries the injection-plan
    payload of one (fault, test) experiment.  The worker resolves
    ``system_name`` through the systems registry — specs themselves hold
    closures and never cross the process boundary.  ``key`` is the
    submitting driver's :class:`~repro.cache.ResultKey` of the task: the
    manager deduplicates on it, and an agent whose own tree keys the task
    differently refuses it.
    """

    system_name: str
    test_id: str
    config_json: str
    fault: Optional[FaultKey] = None
    plans: Tuple[InjectionPlan, ...] = ()
    key: str = ""


#: Per-process cache of (system name, config) -> driver, so one worker
#: builds each system spec once and computes each profile group once.
_WORKER_DRIVERS: Dict[Tuple[str, str], "ExperimentDriver"] = {}
#: One slice resolve per process at a time.  A manager's campaign threads
#: build their drivers side by side, and on a cold cache each would slice
#: the source, but ``ast.parse`` is not safe to run on two threads of every
#: supported interpreter; behind the lock the second finds the entry the
#: first stored, and slices nothing.
_SLICES_LOCK = threading.Lock()


def worker_driver(task: ExperimentTask) -> "ExperimentDriver":
    """This process's driver for the task's (system, config snapshot)."""
    key = (task.system_name, task.config_json)
    driver = _WORKER_DRIVERS.get(key)
    if driver is None:
        from ..systems import get_system  # deferred: systems import core

        config = CSnakeConfig.from_dict(json.loads(task.config_json))
        driver = ExperimentDriver(get_system(task.system_name), config)
        _WORKER_DRIVERS[key] = driver
    return driver


def execute_experiment_task(task: ExperimentTask) -> Union[RunGroup, Tuple[FcaResult, int]]:
    """The one worker entry point of every worker process (a campaign's
    pool or an agent's)."""
    return worker_driver(task).execute_task(task)


def _fans_out(executor: Optional["Executor"], misses: Sequence[object]) -> bool:
    """Whether a batch's misses go to the executor's workers; a single miss
    (or a serial executor) runs in this process instead."""
    return executor is not None and executor.max_workers > 1 and len(misses) > 1


@dataclass
class ExperimentDriver:
    """Runs experiments against one system, caching profile runs."""

    spec: SystemSpec
    config: CSnakeConfig = field(default_factory=CSnakeConfig)

    def __post_init__(self) -> None:
        self._profiles: Dict[str, RunGroup] = {}
        self._plans: Dict[FaultKey, List[InjectionPlan]] = {}
        #: Canonical config snapshot shipped with every task descriptor.
        self._config_json = json.dumps(self.config.to_dict(), sort_keys=True)
        self.fca = FaultCausalityAnalysis(self.spec.registry, self.config)
        self.edges = EdgeDB()
        self.results: List[FcaResult] = []
        self.experiments_run = 0  # budget units consumed
        self.runs_executed = 0  # individual simulated runs
        from ..cache import ExperimentCache, ResultKey  # deferred: avoids an import cycle

        self.cache = None
        if self.config.cache_dir:
            self.cache = ExperimentCache(self.config.cache_dir, self.spec, self.config)
            self._resolve_slices()
        #: The one identity of this driver's results (cache entries and
        #: worker tasks alike).
        self.key = ResultKey(self.spec, self.config) if self.cache is None else self.cache.key

    def _resolve_slices(self) -> None:
        """Attach the spec's code-slice analysis before the first key is
        computed (keys embed its source digest): looked up in the cache
        under the digest of the source files, sliced and stored on a miss
        — so a system is sliced once per source edit, not once per
        campaign, worker or agent.  A spec that already carries an
        analysis (tests key on other source text) is left alone."""
        spec = self.spec
        if spec.attached_slice_analysis is not None or not spec.source_modules:
            return
        # Deferred: importing the driver does not load the analysis
        # package, and ``analyze_system`` is looked up through it at call
        # time.
        from .. import analysis

        sources = analysis.live_sources(spec.source_modules)
        key = self.cache.slices_key(sources)
        with _SLICES_LOCK:
            slices = self.cache.lookup_slices(key)
            if slices is None:
                slices = analysis.analyze_system(spec, sources)
                self.cache.store_slices(key, slices)
        spec.attach_slice_analysis(slices)

    # -------------------------------------------------------------- profiles

    def _compute_profile(self, test_id: str) -> RunGroup:
        """Run the profile repetitions of a test (pure; no caching)."""
        return RunGroup.of(test_id, None, self._run_repeats(test_id, None))

    def _run_repeats(self, test_id: str, plan: Optional[InjectionPlan]) -> List[RunTrace]:
        """The ``repeats`` seeded runs of a test, under ``plan`` or fault-free."""
        workload = self.spec.workloads[test_id]
        return [
            run_workload(self.spec, workload, plan, seed_for(test_id, rep, self.config.seed))
            for rep in range(self.config.repeats)
        ]

    def _resolve_profiles(
        self, test_ids: Sequence[str], executor: Optional["Executor"] = None
    ) -> List[RunGroup]:
        """Profile groups of distinct tests, in input order: each looked up
        in the experiment cache once, only the misses simulated (in this
        process, or fanned out as profile tasks), each stored as it
        arrives."""
        groups: Dict[str, RunGroup] = {}
        keys: Dict[str, str] = {}
        if self.cache is not None:
            for test_id in test_ids:
                keys[test_id] = self.cache.profile_key(test_id)
                hit = self.cache.lookup_profile(keys[test_id])
                if hit is not None:
                    groups[test_id] = hit
        misses = [t for t in test_ids if t not in groups]
        if _fans_out(executor, misses):
            computed: Iterable[RunGroup] = executor.map(
                execute_experiment_task, [self._task(t) for t in misses]
            )
        else:
            computed = map(self._compute_profile, misses)
        for test_id, group in zip(misses, computed):
            groups[test_id] = group
            if self.cache is not None:
                self.cache.store_profile(keys[test_id], test_id, group)
        return [groups[t] for t in test_ids]

    def _ensure_profiles(
        self, test_ids: Iterable[str], executor: Optional["Executor"] = None
    ) -> None:
        """Fill the in-memory profile table for ``test_ids``, in that order."""
        pending = [t for t in test_ids if t not in self._profiles]
        for group in self._resolve_profiles(pending, executor):
            self._profiles[group.test_id] = group
            self.runs_executed += group.n_runs

    def profile(self, test_id: str) -> RunGroup:
        """Profile (fault-free) run group of a test; cached."""
        group = self._profiles.get(test_id)
        if group is None:
            self._ensure_profiles([test_id])
            group = self._profiles[test_id]
        return group

    def profile_all(self, executor: Optional["Executor"] = None) -> None:
        """Profile every workload, optionally fanning tests out over workers.

        Profile runs of different tests are fully independent, so they can
        execute concurrently; with an experiment cache attached only the
        cache-missing tests are simulated, and either way the in-memory
        table is filled in workload-id order with identical counters.
        """
        self._ensure_profiles(self.spec.workload_ids(), executor)

    def profiles(self) -> Dict[str, RunGroup]:
        """Snapshot of the profile cache (test id -> run group)."""
        return dict(self._profiles)

    # -------------------------------------------------------------- coverage

    def tests_reaching(self, fault: FaultKey) -> List[str]:
        """Tests whose profile runs reach the fault's program location.

        Environment faults have no program location — the simulated world
        they disturb exists in every run — so every workload reaches them.
        """
        if model_for(fault.kind).environment:
            return self.spec.workload_ids()
        out = []
        for test_id in self.spec.workload_ids():
            if fault.site_id in self.profile(test_id).reached:
                out.append(test_id)
        return out

    def coverage_of(self, test_id: str) -> int:
        return len(self.profile(test_id).reached)

    def best_test_for(self, fault: FaultKey) -> Optional[str]:
        """Reaching test with the highest code coverage (phase one rule)."""
        reaching = self.tests_reaching(fault)
        if not reaching:
            return None
        return max(reaching, key=lambda t: (self.coverage_of(t), t))

    # ----------------------------------------------------------- experiments

    def _plans_for(self, fault: FaultKey) -> List[InjectionPlan]:
        """The fault's plan sweep, as declared by its registered model's
        :meth:`FaultModel.plans_for` against the system's site registry.

        Memoized per fault: each experiment derives the same sweep three
        times (cache key, task descriptor, execution), and plans are pure
        functions of (fault, config, registry) — all fixed for the
        driver's lifetime.
        """
        plans = self._plans.get(fault)
        if plans is None:
            plans = model_for(fault.kind).plans_for(fault, self.config, self.spec.registry)
            self._plans[fault] = plans
        return plans

    def execute_experiment(self, fault: FaultKey, test_id: str) -> Tuple[FcaResult, int]:
        """Pure execution of one experiment: returns (FCA result, runs used).

        Touches no driver state beyond the profile and plan memos.
        """
        if fault.site_id not in self.spec.registry:
            raise UnknownSite(fault.site_id)
        profile = self.profile(test_id)
        combined = FcaResult(fault=fault, test_id=test_id)
        interference: Set[FaultKey] = set()
        runs = 0
        for plan in self._plans_for(fault):
            traces = self._run_repeats(test_id, plan)
            runs += len(traces)
            # Graceful degradation: a runaway injection (e.g. a composed
            # schedule saturating the event loop) stops at the sim step
            # limit instead of raising; count the aborted runs and keep
            # the campaign going.
            combined.aborted += sum(trace.saturated for trace in traces)
            partial = self.fca.analyze(profile, RunGroup.of(test_id, plan, traces))
            combined.edges.extend(partial.edges)
            interference.update(partial.interference)
            if partial.min_p is not None and (
                combined.min_p is None or partial.min_p < combined.min_p
            ):
                combined.min_p = partial.min_p
        combined.interference = sorted(interference)
        return combined, runs

    def _resolve_experiments(
        self,
        pairs: Sequence[Tuple[FaultKey, str]],
        executor: Optional["Executor"] = None,
    ) -> List[Tuple[FcaResult, int]]:
        """``(result, runs)`` of each (fault, test) pair, in input order:
        each looked up in the experiment cache once, only the misses
        executed (in this process through :meth:`execute_experiment`, or
        fanned out as experiment tasks), each stored as it arrives — so a
        serial batch has every finished experiment on disk before the
        next one starts.  Commits nothing."""
        resolved: Dict[int, Tuple[FcaResult, int]] = {}
        keys: Dict[int, str] = {}
        if self.cache is not None:
            for i, (fault, test_id) in enumerate(pairs):
                keys[i] = self.cache.experiment_key(test_id, fault, self._plans_for(fault))
                hit = self.cache.lookup_experiment(keys[i])
                if hit is not None:
                    resolved[i] = hit
        misses = [i for i in range(len(pairs)) if i not in resolved]
        if _fans_out(executor, misses):
            executed: Iterable[Tuple[FcaResult, int]] = executor.map(
                execute_experiment_task, [self._task(pairs[i][1], pairs[i][0]) for i in misses]
            )
        else:
            executed = (self.execute_experiment(*pairs[i]) for i in misses)
        for i, (result, runs) in zip(misses, executed):
            resolved[i] = (result, runs)
            if self.cache is not None:
                fault, test_id = pairs[i]
                self.cache.store_experiment(keys[i], test_id, fault, result, runs)
        return [resolved[i] for i in range(len(pairs))]

    # ------------------------------------------------------ worker tasks

    def _task(self, test_id: str, fault: Optional[FaultKey] = None) -> ExperimentTask:
        """Descriptor of one miss: a profile task, or with ``fault`` an
        experiment task carrying its plan sweep, stamped with its key.
        Fails fast for ad-hoc specs, which workers could not rebuild by
        name."""
        from ..systems import available_systems  # deferred: systems import core

        if self.spec.name not in available_systems():
            raise ReproError(
                "parallel backends need a system registered under "
                "repro.systems to rebuild %r inside workers; use the serial "
                "backend for ad-hoc specs" % (self.spec.name,)
            )
        plans = () if fault is None else tuple(self._plans_for(fault))
        return ExperimentTask(
            system_name=self.spec.name,
            test_id=test_id,
            config_json=self._config_json,
            fault=fault,
            plans=plans,
            key=self.key(test_id, fault, plans),
        )

    def execute_task(self, task: ExperimentTask) -> Union[RunGroup, Tuple[FcaResult, int]]:
        """Worker side of a fanned-out miss: resolve the task through this
        driver's own cache, run it on a miss, store, and return what the
        submitting driver will commit.  The shipped plan sweep is what
        gets keyed and executed."""
        if task.fault is None:
            return self.profile(task.test_id)
        self._plans.setdefault(task.fault, list(task.plans))
        return self._resolve_experiments([(task.fault, task.test_id)])[0]

    # ---------------------------------------------------------------- commit

    def commit_result(self, result: FcaResult, runs: int = 0) -> FcaResult:
        """Fold an executed experiment into the edge DB and counters."""
        self.edges.add_all(result.edges)
        self.results.append(result)
        self.experiments_run += 1
        self.runs_executed += runs
        return result

    def run_experiment(self, fault: FaultKey, test_id: str) -> FcaResult:
        """One budget unit: inject ``fault`` into ``test_id`` and run FCA."""
        return self.run_experiments([(fault, test_id)])[0]

    def run_experiments(
        self,
        pairs: Iterable[Tuple[FaultKey, str]],
        executor: Optional["Executor"] = None,
    ) -> List[FcaResult]:
        """Run a batch of independent (fault, test) experiments.

        Resolve the batch (cache lookups, then only the misses execute —
        across the executor's workers when it has any), then commit in
        ``pairs`` order: the hot path of every campaign, bit-identical
        across backends and between cold and warm caches, because a
        replayed result commits exactly like a fresh one (runs counter
        included).
        """
        return [
            self.commit_result(result, runs)
            for result, runs in self._resolve_experiments(list(pairs), executor)
        ]
