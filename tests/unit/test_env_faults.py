"""Semantics of the environment fault models against the sim substrate."""

import dataclasses

import pytest

from repro.faults import model_for
from repro.faults.environment import ENV_STATE
from repro.instrument.plan import InjectionPlan, make_params
from repro.sim import Node, SimEnv
from repro.systems import get_system
from repro.core.driver import seed_for, run_workload
from repro.types import EXCEPTION, FaultKey


@pytest.fixture(scope="module")
def spec():
    return get_system("miniraft")


def _run(spec, test_id, plan, seed=None):
    if seed is None:
        seed = seed_for(test_id, 0, 99)
    return run_workload(spec, spec.workloads[test_id], plan, seed)


def _crash_plan(node, restart_ms, warmup=30_000.0):
    return InjectionPlan(
        FaultKey("env.node.%s" % node, "node_crash"),
        warmup_ms=warmup,
        params=make_params(restart_ms=restart_ms),
    )


# ------------------------------------------------------------------ recording


def test_env_injection_records_one_injected_event(spec):
    plan = _crash_plan("raft1", restart_ms=20_000.0)
    workload = spec.workloads["raft.steady"]
    crashed = {}

    def setup(env, rt):
        workload.setup(env, rt)
        for at in (plan.warmup_ms - 1.0, plan.warmup_ms + 1.0):
            env.schedule_at(
                at, None, lambda at=at: crashed.__setitem__(at, env.node_named("raft1").crashed)
            )

    probed = dataclasses.replace(workload, setup=setup)
    trace = run_workload(spec, probed, plan, seed_for("raft.steady", 0, 99))
    injected = [e for e in trace.events if e.injected]
    assert len(injected) == 1
    assert injected[0].fault == plan.fault
    assert injected[0].state == ENV_STATE
    # Dormant until the warm-up, fired at it.
    assert crashed == {plan.warmup_ms - 1.0: False, plan.warmup_ms + 1.0: True}
    assert plan.fault.site_id in trace.reached


def test_env_runs_are_deterministic(spec):
    plan = _crash_plan("raft0", restart_ms=15_000.0)
    a = _run(spec, "raft.steady", plan)
    b = _run(spec, "raft.steady", plan)
    assert a.loop_counts == b.loop_counts
    assert [e.fault for e in a.events] == [e.fault for e in b.events]


# ---------------------------------------------------------------- node crash


def test_crash_without_restart_keeps_node_down(spec):
    # Crashing a follower for good starves the append path for that peer:
    # the leader's AppendEntries to it times out for the rest of the run.
    plan = _crash_plan("raft1", restart_ms=0.0)
    trace = _run(spec, "raft.steady", plan)
    profile = _run(spec, "raft.steady", None)
    rpc_fault = FaultKey("ldr.append.rpc", EXCEPTION)
    assert rpc_fault not in profile.natural_faults()
    assert rpc_fault in trace.natural_faults()


def test_crash_with_restart_resumes_replication(spec):
    # A restarted follower answers appends again: strictly more apply work
    # than under a permanent crash (the backlog gets replayed to it).
    down = _run(spec, "raft.steady", _crash_plan("raft1", restart_ms=0.0))
    bounced = _run(spec, "raft.steady", _crash_plan("raft1", restart_ms=20_000.0))
    assert bounced.loop_counts["flw.append.apply"] > down.loop_counts["flw.append.apply"]


def test_restart_hook_rebuilds_periodic_ticks():
    env = SimEnv(seed=1)
    calls = []

    class Ticker(Node):
        def __init__(self):
            super().__init__(env, "t")
            self._tick_registration()

        def _tick_registration(self):
            env.every(self, 1_000.0, lambda: calls.append(env.now))

        def on_restart(self):
            self._tick_registration()

    node = Ticker()
    env.schedule_at(3_500.0, None, node.crash)
    env.schedule_at(6_000.0, None, node.restart)
    env.run(10_000.0)
    assert any(t < 3_500.0 for t in calls)
    assert not any(3_600.0 < t < 6_000.0 for t in calls)  # down while crashed
    assert any(t > 6_500.0 for t in calls)  # ticking again after restart


def test_crash_cancels_ticks_scheduled_beyond_the_restart():
    """A periodic chain whose next tick falls *after* the restart must not
    survive the outage — otherwise it runs alongside the chain that
    ``on_restart`` re-registers, double-rate ticking after recovery."""
    env = SimEnv(seed=1)
    calls = []

    class SlowTicker(Node):
        def __init__(self):
            super().__init__(env, "t")
            self._register()

        def _register(self):
            env.every(self, 35_000.0, lambda: calls.append(env.now))

        def on_restart(self):
            self._register()

    node = SlowTicker()
    env.schedule_at(50_000.0, None, node.crash)   # pending tick sits at ~70s
    env.schedule_at(60_000.0, None, node.restart)
    env.run(400_000.0)
    # Exactly one chain: ticks ~35s apart after restart, never two chains
    # interleaved (which would halve some inter-tick gaps).
    post = [t for t in calls if t > 60_000.0]
    gaps = [b - a for a, b in zip(post, post[1:])]
    assert gaps and all(gap > 30_000.0 for gap in gaps), gaps


# ----------------------------------------------------------------- partition


def test_partition_is_timed_and_heals(spec):
    fault = FaultKey("env.link.raft0~raft1", "partition")
    plan = InjectionPlan(fault, warmup_ms=30_000.0, params=make_params(duration_ms=20_000.0))
    trace = _run(spec, "raft.steady", plan)
    profile = _run(spec, "raft.steady", None)
    # During the cut, appends to raft1 time out; after the heal the
    # follower catches back up, so it still applied entries overall.
    assert FaultKey("ldr.append.rpc", EXCEPTION) in trace.natural_faults()
    assert trace.loop_counts["flw.append.apply"] > 0
    assert not profile.natural_faults()


def test_partition_names_cut_exactly_one_link():
    env = SimEnv(seed=0)
    a, b, c = Node(env, "a"), Node(env, "b"), Node(env, "c")
    env.partition_names("a", "b")
    assert not env.reachable(a, b)
    assert env.reachable(a, c) and env.reachable(b, c)
    env.heal_names("a", "b")
    assert env.reachable(a, b)


# ------------------------------------------------------------------ msg drop


def test_drop_rule_is_seeded_and_probabilistic():
    dropped = {}
    for seed in (1, 2):
        env = SimEnv(seed=0)
        src, dst = Node(env, "s"), Node(env, "d")
        env.set_drop_rule("s", "d", 0.5, seed)
        delivered = []

        def emit():
            for i in range(200):
                env.send(dst, delivered.append, i)

        env.schedule_at(0.0, src, emit)
        env.run(10_000.0)
        assert 0 < len(delivered) < 200  # probabilistic, not all-or-nothing
        dropped[seed] = tuple(delivered)
    assert dropped[1] != dropped[2]  # seed-dependent ...
    env = SimEnv(seed=0)
    src, dst = Node(env, "s"), Node(env, "d")
    env.set_drop_rule("s", "d", 0.5, 1)
    redelivered = []

    def emit():
        for i in range(200):
            env.send(dst, redelivered.append, i)

    env.schedule_at(0.0, src, emit)
    env.run(10_000.0)
    assert tuple(redelivered) == dropped[1]  # ... and reproducible


def test_drop_rule_draws_from_its_own_rng():
    # A rule on an *unrelated* link must leave the main RNG stream (latency
    # and jitter draws) untouched: drop decisions never consume env.rng.
    # (A drop that fires skips the dropped message's latency draw, exactly
    # like a partitioned send — that is the fault's effect, not leakage.)
    def jitter_stream(with_rule):
        env = SimEnv(seed=42)
        src, dst = Node(env, "s"), Node(env, "d")
        Node(env, "x")
        if with_rule:
            env.set_drop_rule("s", "x", 1.0, 7)
        env.schedule_at(0.0, src, lambda: env.send(dst, lambda: None))
        env.run(100.0)
        return [env.rng.random() for _ in range(5)]

    assert jitter_stream(False) == jitter_stream(True)


def test_arm_rejects_non_env_site(spec):
    model = model_for("partition")
    plan = InjectionPlan(
        FaultKey("env.link.raft0~raft1", "partition"),
        params=make_params(duration_ms=1_000.0),
    )
    bad = InjectionPlan.__new__(InjectionPlan)  # bypass validation to fake a site
    object.__setattr__(bad, "fault", FaultKey("ldr.append.peers", "partition"))
    object.__setattr__(bad, "warmup_ms", 0.0)
    object.__setattr__(bad, "params", plan.params)
    object.__setattr__(bad, "delay_ms", None)

    class FakeRuntime:
        registry = spec.registry

        class trace:  # noqa: N801 - stand-in namespace
            pass

    with pytest.raises(ValueError, match="not an environment site"):
        model.arm(SimEnv(seed=0), FakeRuntime(), bad)
