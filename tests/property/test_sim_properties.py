"""Property-based tests on the virtual-time simulation substrate."""

import functools
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.errors import IOEx, NodeCrashed, RpcTimeout, SimFault
from repro.sim import Node, SimEnv

pytestmark = pytest.mark.contract


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
    cancelling by scanning that list, a periodic handler a closure that
    re-schedules itself through :meth:`schedule_at`, and every running
    handler or ``rpc`` callee an activity with its own time cursor.  No
    heap, no tuples, no watermark, no clock attribute."""

    def __init__(self, cfg, seed):
        self.cfg = cfg
        self.rng = random.Random(seed)
        self.pending = []
        self.nodes = []
        self.seq = 0
        self.loop_time = 0.0
        self.activities = []  # [node, cursor] pairs, innermost last
        self.events_processed = 0

    @property
    def now(self):
        return self.activities[-1][1] if self.activities else self.loop_time

    def spin(self, ms):
        self.activities[-1][1] += ms

    def schedule_at(self, at, node, fn, *args):
        ev = SimpleNamespace(time=max(at, 0.0), seq=self.seq, node=node, fn=fn, args=args)
        ev.cancelled = False
        self.seq += 1
        self.pending.append(ev)

    def every(self, node, interval_ms, fn, jitter_ms=0.0):
        def tick():
            fn()
            delay = interval_ms
            if jitter_ms:
                delay += self.rng.uniform(0.0, jitter_ms)
            if not node.crashed:
                self.schedule_at(self.now + delay, node, tick)

        self.schedule_at(self.now + interval_ms, node, tick)

    def cancel_events_for(self, node):
        for ev in self.pending:
            if ev.node is node:
                ev.cancelled = True

    def _leg(self):
        jitter = self.cfg.network_jitter_ms
        return self.cfg.network_latency_ms + (self.rng.uniform(0.0, jitter) if jitter else 0.0)

    def rpc(self, dst, fn, *args, timeout_ms):
        caller = self.activities[-1]
        src, t_call = caller
        if dst.crashed or src.crashed:
            caller[1] = t_call + timeout_ms
            raise RpcTimeout("unreachable")
        arrival = t_call + self._leg()
        busy = dst.busy_until
        callee = [dst, max(arrival, busy)]
        self.activities.append(callee)
        error = result = None
        try:
            result = fn(*args)
        except SimFault as exc:
            error = exc
        finally:
            self.activities.pop()
            dst.busy_until = max(busy, callee[1])
        if isinstance(error, NodeCrashed):
            caller[1] = t_call + timeout_ms
            raise RpcTimeout("crashed mid-call")
        reply_at = callee[1] + self._leg()
        if reply_at - t_call > timeout_ms:
            caller[1] = t_call + timeout_ms
            raise RpcTimeout("slow")
        caller[1] = reply_at
        if error is not None:
            raise error
        return result

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
            busy = node.busy_until
            if busy > ev.time + 1e-9:
                ev.time = busy  # busy-deferral keeps the seq
                self.pending.append(ev)
                continue
            self.events_processed += 1
            act = [node, max(ev.time, busy)]
            self.activities.append(act)
            try:
                ev.fn(*ev.args)
            except SimFault:
                pass
            self.activities.pop()
            node.busy_until = max(busy, act[1])
        if not self.pending:
            self.loop_time = max(self.loop_time, horizon)


_ACTIONS = ("none", "spawn", "crash", "restart", "every", "rpc", "probe")
_SCENARIO = st.lists(
    st.tuples(
        st.floats(0.0, 100.0),  # fire time
        st.integers(0, 2),  # node
        st.sampled_from((0.0, 0.0, 3.0, 17.5, 40.0)),  # spin: idle or busy enough to defer
        st.sampled_from(_ACTIONS),
        st.integers(0, 30),  # the action's target node, and its variant
        st.sampled_from((0.0, 1.0, 12.5, 60.0)),  # the spawned event's delay / the period
    ),
    min_size=1,
    max_size=25,
)
#: Latency jitter on, so ``rpc`` legs and periodic jitter share one stream.
_SCENARIO_SIM = SimConfig(network_latency_ms=1.0, network_jitter_ms=0.5)


def _play(env, scenario, horizons):
    """Run ``scenario`` on ``env``: the log of (what, virtual time), the
    event count, the final clock, every node's ``busy_until`` and the next
    draw of the seeded stream."""
    nodes = [Node(env, "n%d" % i) for i in range(3)]
    log = []
    ticks = Counter()

    def periodic(name, cost, limit, node):
        log.append((name, env.now))
        env.spin(cost)
        ticks[name] += 1
        if ticks[name] == limit:
            if limit % 2:
                raise IOEx("the chain ends here")
            node.crash()  # ends it too, after the jitter draw

    def inner(name, target):
        log.append((name + ">>", env.now))
        env.spin(2.5)
        nodes[(target + 2) % 3].check_alive()
        return "inner"

    def callee(name, cost, target):
        log.append((name + ">", env.now))
        env.spin(cost / 2)
        variant = target // 3 % 4
        if variant == 1:  # a nested rpc
            try:
                got = env.rpc(nodes[(target + 1) % 3], inner, name, target, timeout_ms=20.0)
            except RpcTimeout:
                got = "inner timeout"
            log.append((name + " " + got, env.now))
        elif variant == 2:
            nodes[(target + 2) % 3].check_alive()
        elif variant == 3:
            raise IOEx("callee fault")
        return "reply"

    def handler(name, cost, action, target, delay):
        log.append((name, env.now))
        env.spin(cost)
        if action == "spawn":
            node = nodes[target % 3]
            env.schedule_at(env.now + delay, node, handler, name + "'", cost, "none", 0, 0.0)
        elif action == "crash":
            nodes[target % 3].crash()
        elif action == "restart":
            nodes[target % 3].restart()
        elif action == "every":
            node = nodes[target % 3]
            tick = functools.partial(periodic, name + "*", cost, 1 + target % 4, node)
            env.every(node, delay, tick, jitter_ms=7.5 if target // 4 % 2 else 0.0)
        elif action == "rpc":
            try:
                got = env.rpc(nodes[target % 3], callee, name, cost, target, timeout_ms=30.0)
            except SimFault as exc:
                got = type(exc).__name__
            log.append((name + " " + got, env.now))
        elif action == "probe":
            nodes[target % 3].check_alive()
            log.append((name + " alive", env.now))

    for i, (at, node, cost, action, target, delay) in enumerate(scenario):
        env.schedule_at(at, nodes[node], handler, "e%d" % i, cost, action, target, delay)
    for horizon in horizons:
        env.run(horizon)
    busy = [node.busy_until for node in nodes]
    return log, env.events_processed, env.now, busy, env.rng.random()


@given(_SCENARIO, st.lists(st.floats(0.0, 400.0), max_size=2))
@settings(max_examples=200)
def test_firing_order_is_the_stable_sort_by_time_and_seq(scenario, partial_horizons):
    """Schedule / busy-deferral / crash / restart / periodic (with and
    without jitter, ended by a fault or a crash) / nested-``rpc``
    interleavings fire in exactly the order, at exactly the times and with
    exactly the clock readings of the reference — also across ``run()``
    calls that stop early."""
    horizons = sorted(partial_horizons) + [1e9]
    got = _play(SimEnv(_SCENARIO_SIM, seed=5), scenario, horizons)
    assert got == _play(_ListEnv(_SCENARIO_SIM, seed=5), scenario, horizons)


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
