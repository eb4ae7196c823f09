"""§8.5 reproduction: instrumentation and monitoring overhead.

The paper measures 63-376% (avg 185%) wall-clock overhead of branch tracing
and call-stack recording on profile runs.  Here we compare the wall-clock
time of profile runs with the full runtime agent against runs with a
disabled (NullRuntime-style) agent.
"""

import time

import pytest

from repro.core.driver import seed_for
from repro.instrument.runtime import Runtime
from repro.instrument.trace import RunTrace
from repro.sim import SimEnv
from repro.systems import get_system

SYSTEMS = ["minihdfs2", "minihbase", "miniozone"]


def run_profile(spec, test_id, enabled: bool) -> float:
    workload = spec.workloads[test_id]
    seed = seed_for(test_id, 0, 99)
    trace = RunTrace(test_id=test_id)
    runtime = Runtime(spec.registry, trace=trace, enabled=enabled)
    env = SimEnv(workload.sim_config, seed=seed)
    runtime.bind_env(env)
    env.runtime = runtime
    started = time.perf_counter()
    workload.setup(env, runtime)
    env.run(workload.duration_ms)
    return time.perf_counter() - started


@pytest.mark.parametrize("system", SYSTEMS)
def test_instrumentation_overhead(benchmark, system):
    spec = get_system(system)
    tests = spec.workload_ids()

    def measure():
        bare = sum(min(run_profile(spec, t, enabled=False) for _ in range(3)) for t in tests)
        instrumented = sum(
            min(run_profile(spec, t, enabled=True) for _ in range(3)) for t in tests
        )
        return bare, instrumented

    bare, instrumented = benchmark.pedantic(measure, rounds=1, iterations=1)
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
