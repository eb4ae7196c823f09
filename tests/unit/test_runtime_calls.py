"""Unit tests for the library-call / RPC hooks and the injection warmup."""

import pytest

from repro.errors import IOEx, NotPrimary
from repro.instrument import InjectionPlan, Runtime, SiteRegistry
from repro.instrument.trace import RunTrace
from repro.types import EXCEPTION, FaultKey


class FakeEnv:
    def __init__(self):
        self.now = 0.0

    def spin(self, ms):
        self.now += ms


@pytest.fixture
def registry():
    reg = SiteRegistry("t")
    reg.lib_call("t.lib")
    reg.lib_call("t.rpc")
    return reg


def make_rt(registry, plan=None, now=0.0):
    trace = RunTrace(test_id="t1", injection=plan)
    rt = Runtime(registry, trace=trace, plan=plan)
    env = FakeEnv()
    env.now = now
    rt.bind_env(env)
    return rt, trace


class TestLibCall:
    def test_passthrough_and_reach(self, registry):
        rt, trace = make_rt(registry)
        assert rt.lib_call("t.lib", IOEx, lambda x: x + 1, 41) == 42
        assert "t.lib" in trace.reached
        assert trace.events == []

    def test_natural_declared_exception_recorded(self, registry):
        rt, trace = make_rt(registry)

        def boom():
            raise IOEx("x")

        with pytest.raises(IOEx):
            rt.lib_call("t.lib", IOEx, boom)
        assert trace.events[0].fault == FaultKey("t.lib", EXCEPTION)
        assert not trace.events[0].injected

    def test_subclass_exception_recorded(self, registry):
        rt, trace = make_rt(registry)

        def boom():
            raise NotPrimary("standby")

        with pytest.raises(NotPrimary):
            rt.lib_call("t.lib", IOEx, boom)
        assert len(trace.events) == 1

    def test_undeclared_exception_not_recorded(self, registry):
        rt, trace = make_rt(registry)

        def boom():
            raise ValueError("not a fault")

        with pytest.raises(ValueError):
            rt.lib_call("t.lib", IOEx, boom)
        assert trace.events == []

    def test_injection_replaces_the_call(self, registry):
        plan = InjectionPlan(FaultKey("t.lib", EXCEPTION))
        rt, trace = make_rt(registry, plan)
        called = []
        with pytest.raises(IOEx):
            rt.lib_call("t.lib", IOEx, lambda: called.append(1))
        assert called == []  # before-call semantics: connect failure
        assert trace.events[0].injected


class TestRpcCall:
    def test_injection_executes_call_first(self, registry):
        """Response-loss semantics: the work happens, then the caller sees
        the timeout (this is what retry-duplication cascades feed on)."""
        plan = InjectionPlan(FaultKey("t.rpc", EXCEPTION))
        rt, trace = make_rt(registry, plan)
        called = []
        with pytest.raises(IOEx):
            rt.rpc_call("t.rpc", IOEx, lambda: called.append(1))
        assert called == [1]
        assert trace.events[0].injected

    def test_injection_fires_once(self, registry):
        plan = InjectionPlan(FaultKey("t.rpc", EXCEPTION))
        rt, _ = make_rt(registry, plan)
        with pytest.raises(IOEx):
            rt.rpc_call("t.rpc", IOEx, lambda: None)
        assert rt.rpc_call("t.rpc", IOEx, lambda: "ok") == "ok"

    def test_natural_error_takes_precedence(self, registry):
        plan = InjectionPlan(FaultKey("t.rpc", EXCEPTION))
        rt, trace = make_rt(registry, plan)

        def boom():
            raise IOEx("natural")

        with pytest.raises(IOEx):
            rt.rpc_call("t.rpc", IOEx, boom)
        assert not trace.events[0].injected
        # The one-time injection is still armed for the next call.
        with pytest.raises(IOEx):
            rt.rpc_call("t.rpc", IOEx, lambda: None)


class TestWarmup:
    def test_injection_dormant_before_warmup(self, registry):
        plan = InjectionPlan(FaultKey("t.lib", EXCEPTION), warmup_ms=10_000.0)
        rt, trace = make_rt(registry, plan, now=5_000.0)
        assert rt.lib_call("t.lib", IOEx, lambda: "ok") == "ok"
        assert trace.events == []

    def test_injection_fires_after_warmup(self, registry):
        plan = InjectionPlan(FaultKey("t.lib", EXCEPTION), warmup_ms=10_000.0)
        rt, trace = make_rt(registry, plan, now=15_000.0)
        with pytest.raises(IOEx):
            rt.lib_call("t.lib", IOEx, lambda: "ok")
        assert trace.events[0].injected
