"""Jepsen/Blockade-style blackbox fault fuzzing (§8.2.1).

The fuzzer injects coarse-grained *external* faults — node crashes and
restarts, network partitions and heals — at random times during a workload,
with no bytecode instrumentation and no view of internal fault sites.  A
known self-sustaining cascade counts as triggered only if the run both
(a) naturally exhibits every core fault of the bug and (b) shows runaway
load (event saturation) — the observable signature such a tool could flag.

The paper finds these tools detect none of the 15 bugs, because the
required conditions are fine-grained internal faults (loop contention,
specific exceptions, detector negations) that coarse external faults do
not produce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..config import CSnakeConfig
from ..core.driver import seed_for
from ..instrument.runtime import Runtime
from ..instrument.trace import RunTrace
from ..sim import SimEnv
from ..systems.base import SystemSpec


@dataclass
class BlackboxResult:
    runs: int = 0
    crashes_injected: int = 0
    partitions_injected: int = 0
    saturated_runs: int = 0
    detected_bugs: Dict[str, bool] = field(default_factory=dict)


class BlackboxFuzzer:
    """Random crash/partition fuzzing over a system's workloads."""

    def __init__(
        self,
        spec: SystemSpec,
        config: Optional[CSnakeConfig] = None,
        runs_per_workload: int = 4,
        faults_per_run: int = 3,
    ) -> None:
        self.spec = spec
        self.config = config or CSnakeConfig()
        self.runs_per_workload = runs_per_workload
        self.faults_per_run = faults_per_run

    def _schedule_chaos(self, env: SimEnv, rng: random.Random, result: BlackboxResult) -> None:
        """Arm random crash/restart and partition/heal pairs."""
        nodes = [n for n in env.nodes if not n.name.startswith("<")]
        if len(nodes) < 2:
            return
        horizon = 100_000.0
        for _ in range(self.faults_per_run):
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
                env.schedule_at(at, victim, lambda a=victim, b=other: env.partition(a, b))
                env.schedule_at(at + duration, victim, lambda a=victim, b=other: env.heal(a, b))

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
                if saturated:
                    result.saturated_runs += 1
                natural = trace.natural_faults()
                for bug in self.spec.known_bugs:
                    if bug.core_faults <= natural and saturated:
                        triggered[bug.bug_id] = True
        result.detected_bugs = triggered
        return result
