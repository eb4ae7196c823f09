"""Workload driver: executes profile and injection runs and feeds FCA.

Each (fault, test) experiment runs the workload ``repeats`` times with the
*same* per-repetition seeds as the test's profile runs — the injection run
is then an exact counterfactual of its profile run (identical seeded
randomness, differing only in the armed fault), which is the strongest
form of the paper's profile/injection comparison.  Delay injections sweep
the configured delay values (§4.2), one FCA per value, interferences
unioned; the sweep counts as a single budget unit.

Experiment execution is split into a pure *execute* step (run the seeded
workload repetitions and FCA — no driver state touched) and an ordered
*commit* step (edge DB, result log, counters).  ``run_experiments`` fans
the execute steps out over a :class:`~repro.pipeline.executor.Executor`
and commits in submission order, so a parallel campaign produces the
exact same ``EdgeDB`` contents and counters as a serial one.

The same split is what makes the content-addressed experiment cache
(:mod:`repro.cache`, enabled via ``CSnakeConfig.cache_dir``) safe: before
dispatching to any backend, the driver resolves cached (fault, test)
results and profile run groups by key digest, and commits replayed
results exactly like fresh ones — a warm campaign skips the simulation
but leaves identical edge-DB contents, counters, and report JSON.

Parallel backends (worker processes, or a manager's agent fleet) cannot
run the driver's closures, so work always reaches them as a picklable
:class:`ExperimentTask` *descriptor* — system **name**, test id, fault,
injection-plan payload, and a config snapshot.  The worker resolves the
name through the systems registry and keeps a per-process driver cache
(:func:`execute_experiment_task`), so each worker builds its system spec
once and recomputes each test's profile group at most once.  Profile and
injection runs are pure functions of (spec, config, seeds), which is what
makes the worker-side recomputation bit-identical to the parent's.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple, Union

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


def _seed_for(test_id: str, rep: int, base: int) -> int:
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
    if plan is not None:
        # Code-level kinds are armed by the runtime hooks; environment
        # kinds schedule their disturbance on the sim here (a no-op arm
        # for the classic models).
        model_for(plan.fault.kind).arm(env, runtime, plan)
    workload.setup(env, runtime)
    env.run(workload.duration_ms)
    trace.saturated = env.saturated
    trace.virtual_end_ms = env.now
    return trace


@dataclass(frozen=True)
class ExperimentTask:
    """Picklable by-name work item executed inside a worker process.

    ``fault is None`` marks a profile task (compute the fault-free run
    group of ``test_id``); otherwise the task carries the injection-plan
    payload of one (fault, test) experiment.  The worker resolves
    ``system_name`` through the systems registry — specs themselves hold
    closures and never cross the process boundary.
    """

    system_name: str
    test_id: str
    config_json: str
    fault: Optional[FaultKey] = None
    plans: Tuple[InjectionPlan, ...] = ()


#: Per-process cache of (system name, config) -> driver, so one worker
#: builds each system spec once and computes each profile group once.
_WORKER_DRIVERS: Dict[Tuple[str, str], "ExperimentDriver"] = {}


def _worker_driver(system_name: str, config_json: str) -> "ExperimentDriver":
    key = (system_name, config_json)
    driver = _WORKER_DRIVERS.get(key)
    if driver is None:
        from ..systems import get_system  # deferred: systems import core

        config = CSnakeConfig.from_dict(json.loads(config_json))
        driver = ExperimentDriver(get_system(system_name), config)
        _WORKER_DRIVERS[key] = driver
    return driver


def execute_experiment_task(task: ExperimentTask) -> Union[RunGroup, Tuple[FcaResult, int]]:
    """Worker-process entry point: run one :class:`ExperimentTask`."""
    driver = _worker_driver(task.system_name, task.config_json)
    if task.fault is None:
        return driver.profile(task.test_id)
    return driver._execute_plans(task.fault, task.test_id, list(task.plans))


@dataclass
class ExperimentDriver:
    """Runs experiments against one system, caching profile runs."""

    spec: SystemSpec
    config: CSnakeConfig = field(default_factory=CSnakeConfig)

    def __post_init__(self) -> None:
        self._profiles: Dict[str, RunGroup] = {}
        self._profile_lock = threading.Lock()
        self._plans: Dict[FaultKey, List[InjectionPlan]] = {}
        self.fca = FaultCausalityAnalysis(self.spec.registry, self.config)
        self.edges = EdgeDB()
        self.results: List[FcaResult] = []
        self.experiments_run = 0  # budget units consumed
        self.runs_executed = 0  # individual simulated runs
        self.cache = None
        if self.config.cache_dir:
            from ..cache import ExperimentCache  # deferred: avoids an import cycle

            self.cache = ExperimentCache(self.config.cache_dir, self.spec, self.config)
            # Resolve the code-slice analysis once, eagerly: cache keys
            # embed slice digests, and an agent's execution threads
            # (which share one worker driver) computing keys concurrently
            # would otherwise race the spec's lazy memoization (benign —
            # the analysis is deterministic — but needlessly repeated
            # work).
            self.spec.slice_analysis()

    # -------------------------------------------------------------- profiles

    def _compute_profile(self, test_id: str) -> RunGroup:
        """Run the profile repetitions of a test (pure; no caching)."""
        workload = self.spec.workloads[test_id]
        group = RunGroup(test_id=test_id, injection=None)
        for rep in range(self.config.repeats):
            seed = _seed_for(test_id, rep, self.config.seed)
            group.add(run_workload(self.spec, workload, None, seed))
        return group

    def _cached_profile(self, test_id: str) -> RunGroup:
        """Profile group via the experiment cache (compute + store on miss)."""
        if self.cache is None:
            return self._compute_profile(test_id)
        key = self.cache.profile_key(test_id)
        group = self.cache.lookup_profile(key)
        if group is None:
            group = self._compute_profile(test_id)
            self.cache.store_profile(key, test_id, group)
        return group

    def profile(self, test_id: str) -> RunGroup:
        """Profile (fault-free) run group of a test; cached."""
        with self._profile_lock:
            group = self._profiles.get(test_id)
            if group is None:
                group = self._cached_profile(test_id)
                self._profiles[test_id] = group
                self.runs_executed += len(group)
        return group

    def profile_all(self, executor: Optional["Executor"] = None) -> None:
        """Profile every workload, optionally fanning tests out over workers.

        Profile runs of different tests are fully independent, so they can
        execute concurrently; with an experiment cache attached only the
        cache-missing tests are simulated, and either way the in-memory
        cache is filled in workload-id order with identical counters.
        """
        pending = [t for t in self.spec.workload_ids() if t not in self._profiles]
        groups: Dict[str, RunGroup] = {}
        to_run = pending
        keys: Dict[str, str] = {}
        if self.cache is not None:
            for test_id in pending:
                keys[test_id] = self.cache.profile_key(test_id)
                hit = self.cache.lookup_profile(keys[test_id])
                if hit is not None:
                    groups[test_id] = hit
            to_run = [t for t in pending if t not in groups]
        if to_run:
            if executor is None or executor.max_workers <= 1 or len(to_run) <= 1:
                computed = [self._compute_profile(t) for t in to_run]
            else:
                tasks = [self._profile_task(t) for t in to_run]
                computed = executor.map(execute_experiment_task, tasks)
            for test_id, group in zip(to_run, computed):
                groups[test_id] = group
                if self.cache is not None:
                    # Workers (which rebuild this driver, cache
                    # included) may already have stored the group;
                    # re-writing identical bytes is cheap and keeps the
                    # parent's miss==store counters uniform across backends.
                    self.cache.store_profile(keys[test_id], test_id, group)
        with self._profile_lock:
            for test_id in pending:
                if test_id not in self._profiles:
                    self._profiles[test_id] = groups[test_id]
                    self.runs_executed += len(groups[test_id])

    def profiles(self) -> Dict[str, RunGroup]:
        """Snapshot of the profile cache (test id -> run group)."""
        with self._profile_lock:
            return dict(self._profiles)

    def install_profiles(self, groups: Dict[str, RunGroup]) -> None:
        """Seed the profile cache from persisted run groups (session resume)."""
        with self._profile_lock:
            self._profiles.update(groups)

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
            if fault.site_id in self.profile(test_id).reached():
                out.append(test_id)
        return out

    def coverage_of(self, test_id: str) -> int:
        return self.profile(test_id).coverage()

    def best_test_for(self, fault: FaultKey) -> Optional[str]:
        """Reaching test with the highest code coverage (phase one rule)."""
        reaching = self.tests_reaching(fault)
        if not reaching:
            return None
        return max(reaching, key=lambda t: (self.coverage_of(t), t))

    # ----------------------------------------------------------- experiments

    def _plans_for(self, fault: FaultKey) -> List[InjectionPlan]:
        """The fault's plan sweep, as declared by its registered model.

        Planned through :meth:`FaultModel.plans_for_spec` so models that
        resolve plan content against the system topology (fault
        schedules) see the site registry; single-fault models fall back
        to their plain ``plans_for``.

        Memoized per fault: each experiment derives the same sweep three
        times (cache key, task descriptor, execution), and plans are pure
        functions of (fault, config, registry) — all fixed for the
        driver's lifetime.  An agent's execution threads may race the
        memo benignly: plan derivation is deterministic, so losers
        overwrite winners with identical content.
        """
        plans = self._plans.get(fault)
        if plans is None:
            plans = model_for(fault.kind).plans_for_spec(
                fault, self.config, self.spec.registry
            )
            self._plans[fault] = plans
        return plans

    def execute_experiment(self, fault: FaultKey, test_id: str) -> Tuple[FcaResult, int]:
        """Pure execution of one experiment: returns (FCA result, runs used).

        Touches no driver state beyond the (lock-protected) profile cache,
        so executions of distinct (fault, test) pairs may run concurrently.
        """
        return self._execute_plans(fault, test_id, self._plans_for(fault))

    def _execute_plans(
        self, fault: FaultKey, test_id: str, plans: List[InjectionPlan]
    ) -> Tuple[FcaResult, int]:
        if fault.site_id not in self.spec.registry:
            raise UnknownSite(fault.site_id)
        workload = self.spec.workloads[test_id]
        profile = self.profile(test_id)
        combined = FcaResult(fault=fault, test_id=test_id)
        interference: Set[FaultKey] = set()
        runs = 0
        for plan in plans:
            group = RunGroup(test_id=test_id, injection=plan)
            for rep in range(self.config.repeats):
                seed = _seed_for(test_id, rep, self.config.seed)
                trace = run_workload(self.spec, workload, plan, seed)
                group.add(trace)
                runs += 1
                if trace.saturated:
                    # Graceful degradation: a runaway injection (e.g. a
                    # composed schedule saturating the event loop) stops
                    # at the sim step limit instead of raising; count the
                    # aborted run and keep the campaign going.
                    combined.aborted += 1
            partial = self.fca.analyze(profile, group)
            combined.edges.extend(partial.edges)
            interference.update(partial.interference)
            if partial.min_p is not None and (
                combined.min_p is None or partial.min_p < combined.min_p
            ):
                combined.min_p = partial.min_p
        combined.interference = sorted(interference)
        return combined, runs

    # ------------------------------------------------------ worker tasks

    def _config_json(self) -> str:
        """Cached canonical config snapshot shipped with task descriptors."""
        snapshot = getattr(self, "_config_json_cache", None)
        if snapshot is None:
            snapshot = json.dumps(self.config.to_dict(), sort_keys=True)
            self._config_json_cache = snapshot
        return snapshot

    def _task_system_name(self) -> str:
        """The registry name workers resolve; fails fast for ad-hoc specs."""
        from ..systems import available_systems  # deferred: systems import core

        name = self.spec.name
        if name not in available_systems():
            raise ReproError(
                "parallel backends need a system registered under "
                "repro.systems to rebuild %r inside workers; use the serial "
                "backend for ad-hoc specs" % (name,)
            )
        return name

    def _experiment_task(self, fault: FaultKey, test_id: str) -> ExperimentTask:
        return ExperimentTask(
            system_name=self._task_system_name(),
            test_id=test_id,
            config_json=self._config_json(),
            fault=fault,
            plans=tuple(self._plans_for(fault)),
        )

    def _profile_task(self, test_id: str) -> ExperimentTask:
        return ExperimentTask(
            system_name=self._task_system_name(),
            test_id=test_id,
            config_json=self._config_json(),
        )

    def commit_result(self, result: FcaResult, runs: int = 0) -> FcaResult:
        """Fold an executed experiment into the edge DB and counters."""
        self.edges.add_all(result.edges)
        self.results.append(result)
        self.experiments_run += 1
        self.runs_executed += runs
        return result

    def run_experiment(self, fault: FaultKey, test_id: str) -> FcaResult:
        """One budget unit: inject ``fault`` into ``test_id`` and run FCA.

        With an experiment cache attached, the cache is consulted first
        and a replayed result commits exactly like a fresh one (including
        the runs counter), so cache-warm campaigns stay bit-identical.
        """
        key = None
        if self.cache is not None:
            key = self.cache.experiment_key(test_id, fault, self._plans_for(fault))
            hit = self.cache.lookup_experiment(key)
            if hit is not None:
                return self.commit_result(*hit)
        result, runs = self.execute_experiment(fault, test_id)
        if key is not None:
            self.cache.store_experiment(key, test_id, fault, result, runs)
        return self.commit_result(result, runs)

    def run_experiments(
        self,
        pairs: Iterable[Tuple[FaultKey, str]],
        executor: Optional["Executor"] = None,
    ) -> List[FcaResult]:
        """Run a batch of independent (fault, test) experiments.

        With an executor, executions fan out across its workers while
        commits happen in ``pairs`` order — the hot path of every campaign,
        and bit-identical to running the batch serially.  With an
        experiment cache attached, cached experiments are resolved before
        dispatch and only the misses reach the backend.
        """
        pairs = list(pairs)
        if executor is None or executor.max_workers <= 1 or len(pairs) <= 1:
            return [self.run_experiment(fault, test_id) for fault, test_id in pairs]
        by_index: Dict[int, Tuple[FcaResult, int]] = {}
        keys: Dict[int, str] = {}
        to_run = list(range(len(pairs)))
        if self.cache is not None:
            for i, (fault, test_id) in enumerate(pairs):
                keys[i] = self.cache.experiment_key(test_id, fault, self._plans_for(fault))
                hit = self.cache.lookup_experiment(keys[i])
                if hit is not None:
                    by_index[i] = hit
            to_run = [i for i in range(len(pairs)) if i not in by_index]
        if to_run:
            tasks = [self._experiment_task(*pairs[i]) for i in to_run]
            executed = executor.map(execute_experiment_task, tasks)
            for i, (result, runs) in zip(to_run, executed):
                by_index[i] = (result, runs)
                if self.cache is not None:
                    fault, test_id = pairs[i]
                    self.cache.store_experiment(keys[i], test_id, fault, result, runs)
        return [self.commit_result(*by_index[i]) for i in range(len(pairs))]
