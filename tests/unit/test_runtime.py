"""Unit tests for the instrumentation runtime agent."""

from collections import Counter

import pytest

from repro.core.driver import run_workload, seed_for
from repro.errors import IOEx
from repro.instrument import InjectionPlan, Runtime, SiteRegistry
from repro.instrument.trace import RunGroup, RunTrace
from repro.systems import get_system
from repro.types import DELAY, EXCEPTION, NEGATION, FaultKey


@pytest.fixture
def registry():
    reg = SiteRegistry("toy")
    reg.loop("toy.outer")
    reg.loop("toy.inner", parent="toy.outer", order=0)
    reg.throw("toy.ioe")
    reg.detector("toy.is_stale", error_value=True)
    reg.branch("toy.b1")
    return reg


def make_rt(registry, plan=None):
    trace = RunTrace(test_id="t1", injection=plan)
    return Runtime(registry, trace=trace, plan=plan), trace


class TestThrowPoint:
    def test_no_injection_no_natural_is_noop(self, registry):
        rt, trace = make_rt(registry)
        rt.throw_point("toy.ioe", IOEx, natural=False)
        assert trace.events == []
        assert "toy.ioe" in trace.reached

    def test_natural_condition_raises_and_records(self, registry):
        rt, trace = make_rt(registry)
        with pytest.raises(IOEx):
            rt.throw_point("toy.ioe", IOEx, natural=True)
        assert len(trace.events) == 1
        event = trace.events[0]
        assert event.fault == FaultKey("toy.ioe", EXCEPTION)
        assert not event.injected

    def test_injection_fires_once(self, registry):
        plan = InjectionPlan(FaultKey("toy.ioe", EXCEPTION))
        rt, trace = make_rt(registry, plan)
        with pytest.raises(IOEx):
            rt.throw_point("toy.ioe", IOEx, natural=False)
        # Second reach: injection already fired, no natural condition.
        rt.throw_point("toy.ioe", IOEx, natural=False)
        injected = [e for e in trace.events if e.injected]
        assert len(injected) == 1

    def test_injection_raises_declared_type(self, registry):
        plan = InjectionPlan(FaultKey("toy.ioe", EXCEPTION))
        rt, _ = make_rt(registry, plan)
        with pytest.raises(IOEx):
            rt.throw_point("toy.ioe", IOEx)

    def test_injection_does_not_fire_at_other_sites(self, registry):
        plan = InjectionPlan(FaultKey("toy.ioe", EXCEPTION))
        rt, trace = make_rt(registry, plan)
        registry.throw("toy.other")
        rt.throw_point("toy.other", IOEx, natural=False)
        assert trace.events == []


class TestDetector:
    def test_natural_error_value_recorded(self, registry):
        rt, trace = make_rt(registry)
        assert rt.detector("toy.is_stale", True) is True
        assert len(trace.events) == 1
        assert trace.events[0].fault == FaultKey("toy.is_stale", NEGATION)

    def test_non_error_value_not_recorded(self, registry):
        rt, trace = make_rt(registry)
        assert rt.detector("toy.is_stale", False) is False
        assert trace.events == []

    def test_one_shot_negation_flips_once(self, registry):
        plan = InjectionPlan(FaultKey("toy.is_stale", NEGATION))
        rt, trace = make_rt(registry, plan)
        assert rt.detector("toy.is_stale", False) is True
        assert rt.detector("toy.is_stale", False) is False
        assert sum(1 for e in trace.events if e.injected) == 1


class TestLoop:
    def test_iteration_counting(self, registry):
        rt, trace = make_rt(registry)
        total = sum(x for x in rt.loop("toy.outer", range(5)))
        assert total == 10
        assert trace.loop_counts["toy.outer"] == 5

    def test_delay_injection_spins_every_iteration(self, registry):
        class FakeEnv:
            def __init__(self):
                self.spun = 0.0
                self.now = 0.0

            def spin(self, ms):
                self.spun += ms

        plan = InjectionPlan(FaultKey("toy.outer", DELAY), delay_ms=100.0)
        rt, _ = make_rt(registry, plan)
        env = FakeEnv()
        rt.bind_env(env)
        for _ in rt.loop("toy.outer", range(7)):
            pass
        assert env.spun == pytest.approx(700.0)

    def test_loop_guard_counts_true_evaluations(self, registry):
        rt, trace = make_rt(registry)
        i = 0
        with rt.function("Toy.run"):
            while rt.loop_guard("toy.outer", i < 4):
                i += 1
        assert trace.loop_counts["toy.outer"] == 4

    def test_unregistered_site_records_like_a_registered_one(self, registry):
        rt, trace = make_rt(registry)
        i = 0
        with rt.function("Toy.run"):
            for _ in rt.loop("toy.outer", range(3)):
                rt.branch("adhoc.cond", True)
            for _ in rt.loop("adhoc.for", range(3)):
                rt.branch("adhoc.cond", True)
            while rt.loop_guard("adhoc.while", i < 2):
                i += 1
        assert "adhoc.for" not in registry
        assert trace.loop_counts == {"toy.outer": 3, "adhoc.for": 3, "adhoc.while": 2}
        assert trace.loop_states["adhoc.for"] == trace.loop_states["toy.outer"]
        assert len(trace.loop_states["adhoc.while"]) == 1
        assert trace.reached == {"toy.outer", "adhoc.for", "adhoc.while", "adhoc.cond"}

    def test_counts_stay_a_counter_that_reads_zero_for_a_site_never_iterated(self, registry):
        """The hooks store counts through ``dict``'s own methods; the trace
        keeps its ``Counter``, which reads 0 for a site that never iterated
        in a run, and a group keeps a count row only for the sites some run
        iterated (FCA reads a missing row as zeros)."""
        rt, trace = make_rt(registry)
        i = 0
        with rt.function("Toy.run"):
            for _ in rt.loop("toy.outer", range(3)):
                pass
            for _ in rt.loop("toy.outer", [1]):
                pass
            for _ in rt.loop("toy.empty", []):
                pass
            while rt.loop_guard("toy.inner", i < 2):
                i += 1
        assert type(trace.loop_counts) is Counter
        assert trace.loop_counts == {"toy.outer": 4, "toy.inner": 2}
        assert trace.loop_counts["toy.empty"] == 0
        group = RunGroup.of("t1", None, [trace])
        assert group.loop_counts == {"toy.outer": (4,), "toy.inner": (2,)}

        spec = get_system("toy")
        test_id = spec.workload_ids()[0]
        run = run_workload(spec, spec.workloads[test_id], None, seed_for(test_id, 0, 7))
        assert type(run.loop_counts) is Counter and run.loop_counts
        assert run.loop_counts["never.iterated"] == 0

    def test_nested_loop_states_have_distinct_scopes(self, registry):
        rt, trace = make_rt(registry)
        with rt.function("Toy.caller"):
            with rt.function("Toy.run"):
                for _ in rt.loop("toy.outer", range(2)):
                    rt.branch("toy.b_outer", True)
                    for _ in rt.loop("toy.inner", range(2)):
                        rt.branch("toy.b_inner", False)
        inner_states = trace.loop_states["toy.inner"]
        assert all(s.branch_trace == (("toy.b_inner", False),) for s in inner_states)
        outer_states = trace.loop_states["toy.outer"]
        # Outer iteration scope saw its own branch only (inner scope popped).
        assert all(s.branch_trace == (("toy.b_outer", True),) for s in outer_states)

    def test_late_close_of_loop_whose_scope_a_guard_removed(self, registry):
        """A ``rt.loop`` iterator still suspended when the enclosing
        ``while`` guard is re-evaluated loses its scope to the guard's
        truncation; closing it afterwards must not unwind the scopes that
        remain (it used to pop the function-body scope too)."""
        rt, trace = make_rt(registry)
        with rt.function("Toy.run"):
            suspended = None
            while rt.loop_guard("toy.outer", suspended is None):
                suspended = rt.loop("toy.inner", [1, 2])
                next(suspended)
                rt.branch("toy.b_inner", True)
            suspended.close()
            rt.branch("toy.b1", True)
            with pytest.raises(IOEx):
                rt.throw_point("toy.ioe", IOEx, natural=True)
        assert trace.events[0].state.branch_trace == (("toy.b1", True),)
        assert trace.loop_counts["toy.inner"] == 1
        assert {s.branch_trace for s in trace.loop_states["toy.inner"]} == {
            (("toy.b_inner", True),)
        }


class TestChainReuse:
    """A frame is a node of the run's calling-context tree and serves every
    invocation along its chain; a ``for`` loop's scope is pushed once and
    kept by the node for the loop's next entry.  What one invocation
    recorded must never be visible to the next."""

    @staticmethod
    def stale(trace):
        """``(call_stack, branch_trace)`` of every natural detector event."""
        return [(e.state.call_stack, e.state.branch_trace) for e in trace.events]

    @pytest.mark.parametrize("raises", [False, True], ids=["returned", "raised"])
    def test_next_invocation_of_a_chain_starts_empty(self, registry, raises):
        rt, trace = make_rt(registry)

        def level(sites, first):
            with rt.function(sites[0]):
                if first:
                    rt.branch("toy.b1", True)
                    while rt.loop_guard("toy.outer", True):
                        rt.branch("toy.b_iter", False)
                        break  # abandons the guard's scope
                else:
                    rt.detector("toy.is_stale", True)
                if sites[1:]:
                    level(sites[1:], first)
                elif first and raises:
                    rt.throw_point("toy.ioe", IOEx, natural=True)

        chain = ["Toy.a", "Toy.b", "Toy.step"]
        if raises:
            with pytest.raises(IOEx):
                level(chain, first=True)
            del trace.events[:]
        else:
            level(chain, first=True)
        level(chain, first=False)
        assert self.stale(trace) == [
            (("<root>", "<root>"), ()),
            (("Toy.a", "<root>"), ()),
            (("Toy.b", "Toy.a"), ()),
        ]
        assert rt._frames == []

    def test_site_called_under_itself_gets_its_own_frame(self, registry):
        rt, trace = make_rt(registry)
        with rt.function("Toy.run"):
            rt.branch("toy.b1", True)
            with rt.function("Toy.run"):
                rt.branch("toy.b2", False)
                for _ in rt.loop("toy.outer", range(2)):
                    with rt.function("Toy.run"):
                        rt.detector("toy.is_stale", True)
                        assert len({id(frame) for frame in rt._frames}) == 3
                rt.detector("toy.is_stale", True)
            rt.detector("toy.is_stale", True)
        assert self.stale(trace) == [
            (("Toy.run", "Toy.run"), ()),
            (("Toy.run", "Toy.run"), ()),
            (("Toy.run", "<root>"), (("toy.b2", False),)),
            (("<root>", "<root>"), (("toy.b1", True),)),
        ]
        assert {s.call_stack for s in trace.loop_states["toy.outer"]} == {("Toy.run", "<root>")}

    def test_counts_and_reach_are_visible_once_the_loop_statement_is_left(self, registry):
        """Iterations are added when the generator finishes or is closed —
        which the interpreter does on ``break`` and while unwinding, before
        any handler of the exception runs."""
        rt, trace = make_rt(registry)

        def visible(site):
            return trace.loop_counts.get(site), site in trace.reached

        def callee():
            with rt.function("Toy.step"):
                for _ in rt.loop("toy.callee", range(5)):
                    rt.throw_point("toy.ioe", IOEx, natural=True)

        with rt.function("Toy.run"):
            for _ in rt.loop("toy.outer", range(3)):
                pass
            assert visible("toy.outer") == (3, True)
            for i in rt.loop("toy.inner", range(5)):
                if i == 1:
                    break
            assert visible("toy.inner") == (2, True)
            try:
                for _ in rt.loop("toy.caught", range(5)):
                    rt.throw_point("toy.ioe", IOEx, natural=True)
            except IOEx:
                assert visible("toy.caught") == (1, True)
            try:
                callee()
            except IOEx:
                assert visible("toy.callee") == (1, True)
            for _ in rt.loop("toy.empty", []):
                pass
            assert visible("toy.empty") == (None, False)
        assert "toy.empty" not in trace.loop_counts

    def test_generator_held_past_its_frames_exit_closes_harmlessly(self, registry):
        rt, trace = make_rt(registry)
        with rt.function("Toy.run"):
            held = rt.loop("toy.outer", [1, 2])
            next(held)
            rt.branch("toy.b1", True)
        with rt.function("Toy.run"):  # the same chain: the same frame
            for _ in rt.loop("toy.outer", [1]):
                rt.branch("toy.b2", False)
                held.close()
                rt.branch("toy.b3", True)
                rt.detector("toy.is_stale", True)
            rt.detector("toy.is_stale", True)
        assert [branches for _, branches in self.stale(trace)] == [
            (("toy.b2", False), ("toy.b3", True)),
            (),
        ]
        assert {s.branch_trace for s in trace.loop_states["toy.outer"]} == {
            (("toy.b1", True),),
            (("toy.b2", False), ("toy.b3", True)),
        }
        assert trace.loop_counts["toy.outer"] == 2

    def test_loop_site_active_twice_in_one_frame_gets_two_scopes(self, registry):
        rt, trace = make_rt(registry)

        def helper(depth):
            for _ in rt.loop("toy.outer", range(2)):
                rt.branch("toy.b1", depth == 0)
                if depth < 2:
                    helper(depth + 1)
                rt.branch("toy.b2", True)

        with rt.function("Toy.run"):
            helper(0)
        assert {s.branch_trace for s in trace.loop_states["toy.outer"]} == {
            (("toy.b1", True), ("toy.b2", True)),
            (("toy.b1", False), ("toy.b2", True)),
        }
        assert trace.loop_counts["toy.outer"] == 2 + 4 + 8

    def test_hooked_iterable_records_inside_the_iteration_it_feeds(self, registry):
        """The scope is pushed before the first item, so the iterable's own
        ``next()`` runs under it (DESIGN.md §5, invariant 4): its branches
        open the state of the iteration they produce the item for, and what
        the exhausting ``next()`` leaves behind goes with the scope."""
        rt, trace = make_rt(registry)

        def items():
            for i in range(2):
                rt.branch("toy.gen", i == 0)
                yield i
            rt.branch("toy.gen_done", True)
            while rt.loop_guard("toy.inner", True):
                break  # an abandoned guard scope above the loop's

        with rt.function("Toy.run"):
            for _ in rt.loop("toy.outer", items()):
                rt.branch("toy.b1", True)
            rt.branch("toy.b2", True)
            rt.detector("toy.is_stale", True)
            for _ in rt.loop("toy.outer", [0]):
                pass
        assert self.stale(trace) == [(("<root>", "<root>"), (("toy.b2", True),))]
        assert {s.branch_trace for s in trace.loop_states["toy.outer"]} == {
            (("toy.gen", True), ("toy.b1", True)),
            (("toy.gen", False), ("toy.b1", True)),
            (),
        }
        assert trace.loop_counts == {"toy.outer": 3, "toy.inner": 1}


class TestLocalState:
    def test_call_stack_excludes_enclosing_function(self, registry):
        rt, trace = make_rt(registry)
        with rt.function("Toy.grandparent"):
            with rt.function("Toy.parent"):
                with rt.function("Toy.step"):
                    with pytest.raises(IOEx):
                        rt.throw_point("toy.ioe", IOEx, natural=True)
        state = trace.events[0].state
        assert state.call_stack == ("Toy.parent", "Toy.grandparent")

    def test_shallow_stack_padded_with_root(self, registry):
        rt, trace = make_rt(registry)
        with rt.function("Toy.step"):
            with pytest.raises(IOEx):
                rt.throw_point("toy.ioe", IOEx, natural=True)
        assert trace.events[0].state.call_stack == ("<root>", "<root>")

    def test_branch_trace_is_local_to_function(self, registry):
        rt, trace = make_rt(registry)
        with rt.function("Toy.parent"):
            rt.branch("toy.b_outer_fn", True)
            with rt.function("Toy.step"):
                rt.branch("toy.b1", True)
                rt.branch("toy.b2", False)
                with pytest.raises(IOEx):
                    rt.throw_point("toy.ioe", IOEx, natural=True)
        state = trace.events[0].state
        assert state.branch_trace == (("toy.b1", True), ("toy.b2", False))

    def test_long_branch_trace_is_read_whole_at_every_point(self, registry):
        """A path's tuple is built when first read, from the nearest node
        read before it: reads mid-way, at the end and of a prefix taken
        again must all give the branches recorded, in order."""
        rt, trace = make_rt(registry)
        expected = [("toy.b%d" % (i % 3), i % 5 == 0) for i in range(3000)]
        with rt.function("Toy.run"):
            for invocation in range(2):
                with rt.function("Toy.step"):
                    for i, (site, outcome) in enumerate(expected):
                        rt.branch(site, outcome)
                        if i in (1499, 2999) or (invocation and i == 9):
                            rt.detector("toy.is_stale", True)
        assert [e.state.branch_trace for e in trace.events] == [
            tuple(expected[:1500]),
            tuple(expected),
            tuple(expected[:10]),
            tuple(expected[:1500]),
            tuple(expected),
        ]

    def test_branch_trace_is_local_to_loop_iteration(self, registry):
        rt, trace = make_rt(registry)
        with rt.function("Toy.run"):
            hit = False
            for i in rt.loop("toy.outer", range(3)):
                rt.branch("toy.b_iter", i == 2)
                if i == 2 and not hit:
                    hit = True
                    with pytest.raises(IOEx):
                        rt.throw_point("toy.ioe", IOEx, natural=True)
        state = trace.events[0].state
        assert state.branch_trace == (("toy.b_iter", True),)


class TestDisabledRuntime:
    def test_null_runtime_records_nothing(self, registry):
        rt = Runtime(registry, enabled=False)
        for _ in rt.loop("toy.outer", range(10)):
            rt.branch("toy.b1", True)
        assert rt.detector("toy.is_stale", True) is True
        rt.throw_point("toy.ioe", IOEx, natural=False)
        assert rt.trace.loop_counts == {}
        assert rt.trace.events == []

    def test_null_runtime_still_raises_natural_faults(self, registry):
        rt = Runtime(registry, enabled=False)
        with pytest.raises(IOEx):
            rt.throw_point("toy.ioe", IOEx, natural=True)
