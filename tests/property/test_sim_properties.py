"""Property-based tests on the virtual-time simulation substrate."""

import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.sim import Node, SimEnv


def make_env(seed=0):
    return SimEnv(SimConfig(network_latency_ms=1.0, network_jitter_ms=0.0), seed=seed)


@given(st.lists(st.floats(0.1, 1000.0), min_size=1, max_size=20))
@settings(max_examples=50)
def test_events_execute_in_nondecreasing_time(delays):
    env = make_env()
    node = Node(env, "n")
    times = []
    for d in delays:
        env.schedule_at(d, node, lambda: times.append(env.now))
    env.run(10_000.0)
    assert times == sorted(times)
    assert len(times) == len(delays)


@given(
    st.lists(st.tuples(st.floats(0.1, 100.0), st.floats(0.0, 50.0)), min_size=1, max_size=12)
)
@settings(max_examples=50)
def test_busy_node_serialises_spins(jobs):
    """Total busy time equals the sum of spins; handlers never overlap."""
    env = make_env()
    node = Node(env, "n")
    spans = []

    def work(cost):
        start = env.now
        env.spin(cost)
        spans.append((start, env.now))

    for at, cost in jobs:
        env.schedule_at(at, node, work, cost)
    env.run(1e9)
    spans.sort()
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2 + 1e-6  # no overlap on a single-threaded node


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_same_seed_same_execution(seed):
    def run():
        env = make_env(seed)
        node = Node(env, "n")
        out = []
        env.every(node, 10.0, lambda: out.append(env.rng.random()), jitter_ms=5.0)
        env.run(200.0)
        return out

    assert run() == run()


@given(st.floats(1.0, 50.0), st.floats(0.1, 200.0))
@settings(max_examples=50)
def test_rpc_round_trip_time_accounting(latency, service):
    from repro.errors import RpcTimeout

    env = SimEnv(SimConfig(network_latency_ms=latency, network_jitter_ms=0.0), seed=1)
    a, b = Node(env, "a"), Node(env, "b")
    out = {}

    def callee():
        env.spin(service)
        return "ok"

    def caller():
        t0 = env.now
        try:
            env.rpc(b, callee, timeout_ms=10_000.0)
            out["elapsed"] = env.now - t0
        except RpcTimeout:
            out["elapsed"] = None

    env.schedule_at(1.0, a, caller)
    env.run(1e6)
    if out["elapsed"] is not None:
        expected = 2 * latency + service
        assert abs(out["elapsed"] - expected) < 1e-6


@given(st.floats(0.1, 100.0))
@settings(max_examples=30)
def test_crashed_node_never_executes(delay):
    env = make_env()
    node = Node(env, "n")
    node.crash()
    fired = []
    env.schedule_at(delay, node, lambda: fired.append(1))
    env.run(10_000.0)
    assert fired == []


# ------------------------------------------------------- event-loop ordering


class _ListEnv:
    """Reference event loop the heap must agree with: pending events in a
    list re-sorted (stably) by ``(time, seq)`` before every pop, a crash
    cancelling by scanning that list.  No heap, no tuples, no watermark."""

    def __init__(self):
        self.pending = []
        self.nodes = []
        self.seq = 0
        self.loop_time = 0.0
        self.cursor = None
        self.events_processed = 0

    @property
    def now(self):
        return self.loop_time if self.cursor is None else self.cursor

    def spin(self, ms):
        self.cursor += ms

    def schedule_at(self, at, node, fn, *args):
        ev = SimpleNamespace(
            time=max(at, 0.0), seq=self.seq, node=node, fn=fn, args=args, cancelled=False
        )
        ev.cancel = lambda: setattr(ev, "cancelled", True)
        self.seq += 1
        self.pending.append(ev)
        return ev

    def cancel_events_for(self, node):
        for ev in self.pending:
            if ev.node is node:
                ev.cancelled = True

    def run(self, horizon):
        while self.pending:
            self.pending.sort(key=lambda ev: (ev.time, ev.seq))
            ev = self.pending.pop(0)
            if ev.cancelled:
                continue
            if ev.time > horizon:
                self.pending.append(ev)
                break
            self.loop_time = max(self.loop_time, ev.time)
            node = ev.node
            if node.crashed:
                continue
            if node.busy_until > ev.time + 1e-9:
                ev.time = node.busy_until  # busy-deferral keeps the seq
                self.pending.append(ev)
                continue
            self.events_processed += 1
            self.cursor = max(ev.time, node.busy_until)
            ev.fn(*ev.args)
            node.busy_until = max(node.busy_until, self.cursor)
            self.cursor = None
        if not self.pending:
            self.loop_time = max(self.loop_time, horizon)


_ACTIONS = ("none", "spawn", "cancel", "crash", "restart")
_SCENARIO = st.lists(
    st.tuples(
        st.floats(0.0, 100.0),  # fire time
        st.integers(0, 2),  # node
        st.sampled_from((0.0, 0.0, 3.0, 17.5, 40.0)),  # spin: idle or busy enough to defer
        st.sampled_from(_ACTIONS),
        st.integers(0, 30),  # the action's target (node or event handle)
        st.sampled_from((0.0, 1.0, 12.5, 60.0)),  # the spawned event's delay
    ),
    min_size=1,
    max_size=25,
)


def _play(env, scenario, horizons):
    """Run ``scenario`` on ``env``; the log of (event, start time)."""
    nodes = [Node(env, "n%d" % i) for i in range(3)]
    log, handles = [], []

    def handler(name, cost, action, target, delay):
        log.append((name, env.now))
        env.spin(cost)
        if action == "spawn":
            node = nodes[target % 3]
            handles.append(
                env.schedule_at(env.now + delay, node, handler, name + "'", cost, "none", 0, 0.0)
            )
        elif action == "cancel":
            handles[target % len(handles)].cancel()
        elif action == "crash":
            nodes[target % 3].crash()
        elif action == "restart":
            nodes[target % 3].restart()

    for i, (at, node, cost, action, target, delay) in enumerate(scenario):
        handles.append(
            env.schedule_at(at, nodes[node], handler, "e%d" % i, cost, action, target, delay)
        )
    for horizon in horizons:
        env.run(horizon)
    return log, env.events_processed, env.now


@given(_SCENARIO, st.lists(st.floats(0.0, 400.0), max_size=2))
@settings(max_examples=200)
def test_firing_order_is_the_stable_sort_by_time_and_seq(scenario, partial_horizons):
    """Schedule / cancel / busy-deferral / crash / restart interleavings
    fire in exactly the order, and at exactly the times, of a stable sort
    by ``(time, seq)`` — also across ``run()`` calls that stop early."""
    horizons = sorted(partial_horizons) + [1e9]
    assert _play(make_env(), scenario, horizons) == _play(_ListEnv(), scenario, horizons)


@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1e4),
    st.floats(1e-6, 1e4),
    st.integers(1, 50),
)
@settings(max_examples=100)
def test_inlined_jitter_draw_is_uniform_float_for_float(seed, base, jitter, draws):
    """``base + jitter * rng.random()`` is the draw and the float of
    ``base + rng.uniform(0.0, jitter)``: the seeded latency/jitter stream
    profile and injection runs share is the one the helper produced."""
    inlined, helper = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        assert base + jitter * inlined.random() == base + helper.uniform(0.0, jitter)
    assert inlined.getstate() == helper.getstate()
