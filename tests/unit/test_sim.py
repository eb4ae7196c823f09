"""Unit tests for the virtual-time simulation substrate."""

import pytest

from repro.config import SimConfig
from repro.errors import RpcTimeout
from repro.sim import Node, SimEnv


def make_env(**kwargs):
    defaults = dict(network_latency_ms=1.0, network_jitter_ms=0.0)
    defaults.update(kwargs)
    return SimEnv(SimConfig(**defaults), seed=42)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        env = make_env()
        node = Node(env, "n1")
        fired = []
        env.schedule_at(10.0, node, lambda: fired.append(("a", env.now)))
        env.schedule_at(5.0, node, lambda: fired.append(("b", env.now)))
        env.run(100.0)
        assert [name for name, _ in fired] == ["b", "a"]
        assert fired[0][1] == pytest.approx(5.0)
        assert fired[1][1] == pytest.approx(10.0)

    def test_after_is_relative_to_now(self):
        env = make_env()
        node = Node(env, "n1")
        times = []

        def first():
            env.after(node, 7.0, lambda: times.append(env.now))

        env.schedule_at(3.0, node, first)
        env.run(100.0)
        assert times == [pytest.approx(10.0)]

    def test_every_reschedules_with_fixed_delay(self):
        env = make_env()
        node = Node(env, "n1")
        times = []
        env.every(node, 10.0, lambda: times.append(env.now))
        env.run(45.0)
        assert times == [pytest.approx(10.0), pytest.approx(20.0), pytest.approx(30.0), pytest.approx(40.0)]

    def test_run_horizon_leaves_future_events(self):
        env = make_env()
        node = Node(env, "n1")
        fired = []
        env.schedule_at(50.0, node, lambda: fired.append(1))
        env.run(10.0)
        assert fired == []
        env.run(100.0)
        assert fired == [1]


class TestBusyNode:
    def test_spin_delays_subsequent_handlers(self):
        env = make_env()
        node = Node(env, "n1")
        times = []
        env.schedule_at(1.0, node, lambda: env.spin(20.0))
        env.schedule_at(2.0, node, lambda: times.append(env.now))
        env.run(100.0)
        # The second handler cannot start before the first one's cost ends.
        assert times == [pytest.approx(21.0)]

    def test_spin_does_not_delay_other_nodes(self):
        env = make_env()
        busy = Node(env, "busy")
        idle = Node(env, "idle")
        times = []
        env.schedule_at(1.0, busy, lambda: env.spin(50.0))
        env.schedule_at(2.0, idle, lambda: times.append(env.now))
        env.run(100.0)
        assert times == [pytest.approx(2.0)]

    def test_busy_periodic_handler_falls_behind(self):
        env = make_env()
        node = Node(env, "n1")
        times = []

        def tick():
            times.append(env.now)
            env.spin(15.0)

        env.every(node, 10.0, tick)
        env.run(60.0)
        # Each firing is scheduled 10ms after the previous one *finishes*
        # (start + 15 spin), so the period stretches to 25ms.
        assert times[0] == pytest.approx(10.0)
        assert times[1] == pytest.approx(35.0)
        assert times[2] == pytest.approx(60.0)

    def test_crashed_node_skips_events(self):
        env = make_env()
        node = Node(env, "n1")
        fired = []
        env.schedule_at(5.0, node, lambda: fired.append(1))
        node.crash()
        env.run(100.0)
        assert fired == []

    def test_restart_resumes_execution(self):
        env = make_env()
        node = Node(env, "n1")
        fired = []
        node.crash()
        env.schedule_at(5.0, node, lambda: fired.append(1))
        env.schedule_at(3.0, Node(env, "other"), node.restart)
        env.run(100.0)
        assert fired == [1]


class TestRpc:
    def test_rpc_returns_value_and_advances_time(self):
        env = make_env()
        a, b = Node(env, "a"), Node(env, "b")
        out = {}

        def handler(x):
            env.spin(5.0)
            return x * 2

        def caller():
            t0 = env.now
            out["result"] = env.rpc(b, handler, 21)
            out["elapsed"] = env.now - t0

        env.schedule_at(1.0, a, caller)
        env.run(100.0)
        assert out["result"] == 42
        # 1ms latency out + 5ms service + 1ms latency back.
        assert out["elapsed"] == pytest.approx(7.0)

    def test_rpc_charges_callee_busy_time(self):
        env = make_env()
        a, b = Node(env, "a"), Node(env, "b")

        def caller():
            env.rpc(b, lambda: env.spin(30.0))

        env.schedule_at(1.0, a, caller)
        env.run(100.0)
        assert b.busy_until == pytest.approx(32.0)  # arrived at 2, spun 30

    def test_rpc_times_out_when_callee_busy(self):
        env = make_env()
        a, b = Node(env, "a"), Node(env, "b")
        b.busy_until = 500.0
        out = {}

        def caller():
            try:
                env.rpc(b, lambda: None, timeout_ms=50.0)
                out["r"] = "ok"
            except RpcTimeout:
                out["r"] = "timeout"
                out["t"] = env.now

        env.schedule_at(1.0, a, caller)
        env.run(1000.0)
        assert out["r"] == "timeout"
        assert out["t"] == pytest.approx(51.0)  # call time + timeout

    def test_rpc_times_out_when_service_too_slow(self):
        env = make_env()
        a, b = Node(env, "a"), Node(env, "b")
        out = {}

        def caller():
            try:
                env.rpc(b, lambda: env.spin(200.0), timeout_ms=50.0)
            except RpcTimeout:
                out["r"] = "timeout"

        env.schedule_at(1.0, a, caller)
        env.run(1000.0)
        assert out["r"] == "timeout"
        # The work still happened on the callee (overload semantics).
        assert b.busy_until == pytest.approx(202.0)

    def test_rpc_without_a_timeout_uses_the_config_timeout(self):
        """``SimConfig.rpc_timeout_ms`` is the timeout of every call that
        passes no ``timeout_ms``, as minidfs's client RPCs do."""
        env = make_env(rpc_timeout_ms=80.0)
        a, b = Node(env, "a"), Node(env, "b")
        out = {}

        def caller():
            try:
                env.rpc(b, lambda: env.spin(100.0))
            except RpcTimeout:
                out["t"] = env.now

        env.schedule_at(1.0, a, caller)
        env.run(1000.0)
        assert out["t"] == pytest.approx(81.0)  # call time + the config's timeout

    def test_rpc_propagates_callee_fault(self):
        from repro.errors import IOEx

        env = make_env()
        a, b = Node(env, "a"), Node(env, "b")
        out = {}

        def bad():
            raise IOEx("boom")

        def caller():
            try:
                env.rpc(b, bad)
            except IOEx as exc:
                out["r"] = str(exc)

        env.schedule_at(1.0, a, caller)
        env.run(100.0)
        assert out["r"] == "boom"

    def test_rpc_to_partitioned_node_times_out(self):
        env = make_env()
        a, b = Node(env, "a"), Node(env, "b")
        env.partition_names("a", "b")
        out = {}

        def caller():
            try:
                env.rpc(b, lambda: None, timeout_ms=30.0)
            except RpcTimeout:
                out["r"] = "timeout"

        env.schedule_at(1.0, a, caller)
        env.run(100.0)
        assert out["r"] == "timeout"

    def test_heal_restores_connectivity(self):
        env = make_env()
        a, b = Node(env, "a"), Node(env, "b")
        env.partition_names("a", "b")
        env.heal_names("a", "b")
        out = {}
        env.schedule_at(1.0, a, lambda: out.setdefault("r", env.rpc(b, lambda: "pong")))
        env.run(100.0)
        assert out["r"] == "pong"

    def test_rpc_to_crashed_node_times_out(self):
        env = make_env()
        a, b = Node(env, "a"), Node(env, "b")
        b.crash()
        out = {}

        def caller():
            try:
                env.rpc(b, lambda: None, timeout_ms=30.0)
            except RpcTimeout:
                out["r"] = "timeout"

        env.schedule_at(1.0, a, caller)
        env.run(100.0)
        assert out["r"] == "timeout"

    def test_crash_discovered_inside_the_callee_is_a_timeout(self):
        """A callee that runs into a crashed node never replies: the caller
        sees ``RpcTimeout`` at call time + timeout, not ``None`` back."""
        env = make_env()
        a, b, c = Node(env, "a"), Node(env, "b"), Node(env, "c")
        c.crash()
        out = {}

        def callee():
            env.spin(3.0)
            c.check_alive()
            return "reply"

        def caller():
            try:
                out["r"] = env.rpc(b, callee, timeout_ms=30.0)
            except RpcTimeout:
                out["r"] = "timeout"
            out["t"] = env.now

        env.schedule_at(1.0, a, caller)
        env.run(100.0)
        assert out == {"r": "timeout", "t": pytest.approx(31.0)}
        assert b.busy_until == pytest.approx(5.0)  # arrived at 2, spun 3

    def test_non_fault_exception_leaves_the_caller_clock_at_call_time(self):
        env = make_env()
        a, b = Node(env, "a"), Node(env, "b")
        out = {}

        def callee():
            env.spin(4.0)
            raise KeyError("bug")

        def caller():
            try:
                env.rpc(b, callee)
            except KeyError:
                out["t"] = env.now

        env.schedule_at(1.0, a, caller)
        env.run(100.0)
        assert out["t"] == pytest.approx(1.0)
        assert b.busy_until == pytest.approx(6.0)


class TestSendAndSaturation:
    def test_send_delivers_one_way_message(self):
        env = make_env()
        a, b = Node(env, "a"), Node(env, "b")
        got = []
        env.schedule_at(1.0, a, lambda: env.send(b, lambda x: got.append((x, env.now)), "hi"))
        env.run(100.0)
        assert got == [("hi", pytest.approx(2.0))]

    def test_send_dropped_across_partition(self):
        env = make_env()
        a, b = Node(env, "a"), Node(env, "b")
        env.partition_names("a", "b")
        got = []
        env.schedule_at(1.0, a, lambda: env.send(b, got.append, "hi"))
        env.run(100.0)
        assert got == []

    def test_event_cap_sets_saturated_flag(self):
        env = make_env()
        node = Node(env, "n1")
        env.MAX_EVENTS = 100

        def recurse():
            env.after(node, 0.1, recurse)

        env.schedule_at(0.0, node, recurse)
        env.run(1e9)
        assert env.saturated
        assert env.events_processed == 100

    def test_spin_rejects_negative(self):
        env = make_env()
        with pytest.raises(ValueError):
            env.spin(-1.0)


class TestClose:
    def test_a_node_of_a_closed_env_is_empty_and_loud(self):
        env = make_env()
        a, b = Node(env, "a"), Node(env, "b")
        a.peer = b
        env.schedule_at(1.0, a, a.crash)
        env.schedule_at(50.0, b, lambda: None)
        env.run(10.0)
        env.close()
        assert env.events_processed == 1 and not env.saturated
        assert env.nodes == [a, b] and vars(a) == {} and vars(b) == {}
        with pytest.raises(AttributeError):
            a.name
        with pytest.raises(AttributeError):
            a.peer
        with pytest.raises(AttributeError):
            b.check_alive()
        with pytest.raises(AttributeError):
            env.node_named("a")
