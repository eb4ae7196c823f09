"""Differential test: the runtime agent vs the allocating oracle.

``repro.instrument.runtime.Runtime`` keeps its frames as calling-context
tree nodes, pushes a ``for`` loop's scope once, records a scope's
branches as a pointer into a per-run trie of paths, which the loop's scope
offers to the trace once each, and records a natural fault met again in
the same (frame, path) as the event it built the first time;
``tests/reference_runtime.py`` is the implementation it replaced, which
constructs a frame per call, pushes the scope per iteration, appends
branches to a list, probes a run-wide memo of ``(site, stack, branches)``
tuples and builds an event per occurrence.  Every trace must be
*bit-identical* between the two, quirks included, so hypothesis draws
small hook programs — the shapes target-system code has and the ones it
could have — times an injection plan and a per-site state cap, runs each
program against both runtimes and compares the serialized trace, the
environment clock and the injected-iteration count.

A program is a few procedures (blocks of ops, see ``_Interpreter.step``)
and a schedule of handlers, each one procedure run on an empty stack; a
procedure calls the others — and itself — as frameless helpers, and a
library or remote call runs a block of ops as its callee, so the
same code runs many times under the same and under different call chains,
as target-system code does.  Sites come from pools of two on purpose:
reuse is what makes recursion, the same loop or guard site nested inside
itself in one frame, and a guard site that is also a ``for`` site occur.
Generators an op left suspended are closed after the last handler — an
iteration the oracle counted at its start is counted by the runtime when
its generator finishes.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import IOEx, SimFault
from repro.instrument import InjectionPlan, Runtime, SiteRegistry
from repro.instrument import runtime as runtime_module
from repro.instrument.trace import FaultEvent, RunTrace
from repro.types import DELAY, EXCEPTION, NEGATION, FaultKey

from tests import reference_runtime
from tests.helpers import trace_to_obj

pytestmark = pytest.mark.contract

FUNCTIONS = ["F.a", "F.b"]
LOOPS = ["l.0", "l.1"]  # shared by ``for`` loops and ``while`` guards
BRANCHES = ["b.0", "b.1"]
THROWS = ["t.0", "t.1"]
CALLS = ["c.0", "c.1"]  # library and RPC call sites
DETECTORS = ["d.true", "d.false", "d.unregistered"]
PROCEDURES = 3
#: Helper calls nest this deep, and a program stops calling after this many.
MAX_CALL_DEPTH = 4
MAX_CALLS = 60


def make_registry() -> SiteRegistry:
    registry = SiteRegistry("diff")
    registry.detector("d.true", error_value=True)
    registry.detector("d.false", error_value=False)
    return registry


class FakeEnv:
    def __init__(self) -> None:
        self.now = 0.0

    def spin(self, ms: float) -> None:
        self.now += ms


class _Interpreter:
    """Runs one program against one runtime.  ``break`` / ``continue`` are
    real ``break`` / ``continue`` statements of the enclosing Python loop
    (they travel up through ``with`` and ``try`` blocks as a return value),
    so a broken-out-of ``rt.loop`` generator is finalised by the
    interpreter exactly as in target-system code."""

    def __init__(self, rt, env: FakeEnv, procedures) -> None:
        self.rt = rt
        self.env = env
        self.procedures = procedures
        self.suspended = []
        self.depth = 0
        self.calls = 0

    def run(self, handlers) -> None:
        for index in handlers:
            try:
                self.call(index)
            except SimFault:
                pass
            self.env.now += 1.0
        for generator in self.suspended:
            generator.close()

    def call(self, index: int) -> None:
        """A frameless helper: a ``break`` inside it is just its return."""
        if self.depth == MAX_CALL_DEPTH or self.calls == MAX_CALLS:
            return
        self.calls += 1
        self.depth += 1
        try:
            self.block(self.procedures[index])
        finally:
            self.depth -= 1

    def callee(self, natural, ops) -> None:
        """The library or remote call: its ops run in the caller's frame
        (a ``break`` inside ends it), then it raises if ``natural``."""
        self.block(ops)
        if natural:
            raise IOEx("natural fault in the callee")

    def block(self, ops):
        for op in ops:
            signal = self.step(op)
            if signal is not None:
                return signal
        return None

    def step(self, op):
        rt, kind = self.rt, op[0]
        if kind == "function":
            with rt.function(op[1]):
                return self.block(op[2])
        elif kind == "for":
            for _ in rt.loop(op[1], range(op[2])):
                if self.block(op[3]) == "break":
                    break
        elif kind == "while":
            i = 0
            while rt.loop_guard(op[1], i < op[2]):
                i += 1
                if self.block(op[3]) == "break":
                    break
        elif kind == "try":
            try:
                return self.block(op[1])
            except SimFault:
                pass
        elif kind == "call":
            self.call(op[1])
        elif kind == "branch":
            rt.branch(op[1], op[2])
        elif kind == "throw":
            rt.throw_point(op[1], IOEx, natural=op[2])
        elif kind in ("lib", "rpc"):
            hook = rt.lib_call if kind == "lib" else rt.rpc_call
            hook(op[1], IOEx, self.callee, op[2], op[3])
        elif kind == "detector":
            rt.detector(op[1], op[2])
        elif kind == "tick":
            self.env.now += op[1]
        elif kind == "suspend":
            generator = rt.loop(op[1], range(op[2]))
            next(generator, None)
            self.suspended.append(generator)
        elif kind == "close":
            if self.suspended:
                self.suspended.pop(0).close()
        else:
            return kind  # "break" / "continue"
        return None


branch_op = st.tuples(st.just("branch"), st.sampled_from(BRANCHES), st.booleans())
# Weighted by repetition: local states are made of branches, and an op that
# ends the block early (a natural throw, ``break``) must not be the norm.
leaf_ops = st.one_of(
    branch_op,
    branch_op,
    branch_op,
    st.tuples(st.just("throw"), st.sampled_from(THROWS), st.just(False)),
    st.tuples(st.just("throw"), st.sampled_from(THROWS), st.booleans()),
    st.tuples(st.just("detector"), st.sampled_from(DETECTORS), st.booleans()),
    st.tuples(st.sampled_from(["lib", "rpc"]), st.sampled_from(CALLS), st.booleans(), st.just([])),
    st.tuples(st.just("call"), st.integers(0, PROCEDURES - 1)),
    st.tuples(st.just("call"), st.integers(0, PROCEDURES - 1)),
    st.tuples(st.just("tick"), st.sampled_from([0.5, 2.0])),
    st.tuples(st.just("suspend"), st.sampled_from(LOOPS), st.integers(0, 2)),
    st.just(("close",)),
    st.sampled_from([("break",), ("continue",)]),
)


def blocks(depth: int):
    if depth == 0:
        return st.lists(leaf_ops, min_size=1, max_size=4)
    inner = blocks(depth - 1)
    loop_shape = st.tuples(st.sampled_from(LOOPS), st.integers(1, 3), inner)
    compound = st.one_of(
        st.tuples(st.just("function"), st.sampled_from(FUNCTIONS), inner),
        st.tuples(st.just("function"), st.sampled_from(FUNCTIONS), inner),
        loop_shape.map(lambda shape: ("for",) + shape),
        loop_shape.map(lambda shape: ("for",) + shape),
        loop_shape.map(lambda shape: ("while",) + shape),
        st.tuples(st.just("try"), inner),
        st.tuples(st.sampled_from(["lib", "rpc"]), st.sampled_from(CALLS), st.booleans(), inner),
    )
    return st.lists(st.one_of(leaf_ops, compound, compound), min_size=1, max_size=4)


#: (procedures, the handlers' procedure indices)
programs = st.tuples(
    st.lists(blocks(3), min_size=PROCEDURES, max_size=PROCEDURES),
    st.lists(st.integers(0, PROCEDURES - 1), min_size=2, max_size=6),
)
warmups = st.sampled_from([0.0, 2.5])  # a handler takes at least 1.0 ms
plans = st.one_of(
    st.none(),
    st.builds(
        InjectionPlan,
        st.builds(FaultKey, st.sampled_from(LOOPS), st.just(DELAY)),
        delay_ms=st.sampled_from([0.25, 40.0]),
        warmup_ms=warmups,
    ),
    st.builds(
        InjectionPlan,
        st.builds(FaultKey, st.sampled_from(THROWS + CALLS), st.just(EXCEPTION)),
        warmup_ms=warmups,
    ),
    st.builds(
        InjectionPlan,
        st.builds(FaultKey, st.sampled_from(DETECTORS), st.just(NEGATION)),
        warmup_ms=warmups,
    ),
)
#: States kept per loop site: tiny caps make "which state got in first" matter.
caps = st.sampled_from([1, 2, runtime_module.MAX_STATES_PER_SITE])


def execute(module, program, plan, cap):
    """One run of ``program`` under ``module``'s runtime: ``(trace, env, rt)``."""
    previous, module.MAX_STATES_PER_SITE = module.MAX_STATES_PER_SITE, cap
    try:
        env = FakeEnv()
        trace = RunTrace(test_id="diff", injection=plan)
        rt = module.Runtime(make_registry(), trace=trace, plan=plan, env=env)
        procedures, handlers = program
        _Interpreter(rt, env, procedures).run(handlers)
    finally:
        module.MAX_STATES_PER_SITE = previous
    return trace, env, rt


def observe(module, program, plan, cap):
    """What one run of ``program`` leaves behind under ``module``'s runtime."""
    trace, env, rt = execute(module, program, plan, cap)
    return trace_to_obj(trace), env.now, rt._injected_delay_iters


def assert_same_as_the_oracle(program, plan, cap) -> None:
    expected = observe(reference_runtime, program, plan, cap)
    got = observe(runtime_module, program, plan, cap)
    assert got == expected


def test_the_oracle_is_not_the_runtime_under_test():
    assert reference_runtime.Runtime is not Runtime
    assert reference_runtime.Runtime.loop.__code__ is not Runtime.loop.__code__


def handler(*ops):
    """A program of one procedure, run once as a handler, inside ``F.a``."""
    return ([[("function", "F.a", list(ops))]], [0])


# Where a loop scope's own set of offered paths could disagree with the
# oracle's run-wide memo of offered states.
#: (a) The cap of one state is filled from a scope nested in an active one
#: of the same site (so it is fresh); the outer scope's first offer comes
#: at the cap, and the site's next loop reuses that scope.
AT_CAP_FROM_A_FRESH_SCOPE = (
    [
        [("function", "F.a", [("call", 1), ("for", "l.0", 2, [("branch", "b.0", True)])])],
        [("for", "l.0", 1, [("call", 2), ("branch", "b.0", True)])],
        [("for", "l.0", 2, [("branch", "b.1", False)])],
    ],
    [0, 0],
)
#: (b) A ``while`` guard and ``for`` loops at one site in one frame: each
#: offers the states the other recorded, and a ``for`` runs inside the guard.
GUARD_AND_FOR_SHARE_A_SITE = handler(
    ("while", "l.0", 2, [("branch", "b.0", True)]),
    ("for", "l.0", 3, [("branch", "b.0", True)]),
    ("while", "l.0", 2, [("for", "l.0", 2, [("branch", "b.0", True)]), ("branch", "b.1", False)]),
    ("for", "l.0", 1, [("branch", "b.1", False)]),
)
#: (c) Events partway through a path: a detector and throw points read the
#: path of the iteration, of the body around the loop and of a longer one.
EVENTS_PARTWAY_THROUGH_A_PATH = handler(
    ("branch", "b.1", True),
    ("for", "l.0", 2, [
        ("branch", "b.0", True),
        ("detector", "d.true", True),
        ("branch", "b.1", False),
        ("try", [("throw", "t.0", False)]),
        ("branch", "b.0", False),
    ]),
    ("detector", "d.false", False),
    ("branch", "b.0", True),
    ("throw", "t.1", True),
)
EXCEPTION_AT_T0 = InjectionPlan(FaultKey("t.0", EXCEPTION))
#: (d) One site's natural fault met again and again in one iteration, by
#: every recording hook, with and without a branch in between: the
#: runtime records the event it built the first time.
ONE_SITE_REPEATED_IN_AN_ITERATION = handler(
    ("for", "l.0", 2, [
        ("detector", "d.true", True),
        ("detector", "d.true", True),
        ("try", [("throw", "t.0", True)]),
        ("try", [("lib", "c.0", True, [])]),
        ("try", [("rpc", "c.0", True, [])]),
        ("branch", "b.0", True),
        ("detector", "d.true", True),
        ("try", [("throw", "t.0", True)]),
        ("try", [("lib", "c.0", True, [("branch", "b.1", False)])]),
        ("try", [("rpc", "c.0", True, [])]),
    ]),
)
#: (e) The same path under two call chains: ``F.b`` called from ``F.a`` and
#: from itself reaches procedure 2 with one path node and two
#: calling-context nodes, and so two local states.
SAME_PATH_UNDER_TWO_CALL_CHAINS = (
    [
        [("function", "F.a", [("function", "F.b", [("call", 2)])])],
        [("function", "F.b", [("function", "F.b", [("call", 2)])])],
        [
            ("branch", "b.0", True),
            ("detector", "d.true", True),
            ("try", [("throw", "t.1", True)]),
            ("try", [("rpc", "c.1", True, [])]),
        ],
    ],
    [0, 1, 0, 1],
)
EXCEPTION_AT_C0 = InjectionPlan(FaultKey("c.0", EXCEPTION))


# ``derandomize``: tier-1 runs the same slice of the program space every
# time; explore further with ``assert_same_as_the_oracle`` under a larger
# ``settings(max_examples=...)``.
@settings(max_examples=1500, deadline=None, derandomize=True)
@given(programs, plans, caps)
@example(AT_CAP_FROM_A_FRESH_SCOPE, None, 1)
@example(AT_CAP_FROM_A_FRESH_SCOPE, None, 2)
@example(GUARD_AND_FOR_SHARE_A_SITE, None, 1)
@example(GUARD_AND_FOR_SHARE_A_SITE, None, runtime_module.MAX_STATES_PER_SITE)
@example(EVENTS_PARTWAY_THROUGH_A_PATH, None, runtime_module.MAX_STATES_PER_SITE)
@example(EVENTS_PARTWAY_THROUGH_A_PATH, EXCEPTION_AT_T0, 1)
@example(ONE_SITE_REPEATED_IN_AN_ITERATION, None, runtime_module.MAX_STATES_PER_SITE)
@example(ONE_SITE_REPEATED_IN_AN_ITERATION, EXCEPTION_AT_C0, 1)
@example(SAME_PATH_UNDER_TWO_CALL_CHAINS, None, runtime_module.MAX_STATES_PER_SITE)
def test_every_hook_program_leaves_the_oracles_trace(program, plan, cap):
    assert_same_as_the_oracle(program, plan, cap)


def test_the_explicit_examples_take_the_paths_they_name():
    """What the ``@example`` programs above are for, read off their traces."""
    cap = runtime_module.MAX_STATES_PER_SITE

    def branches(state):
        return [tuple(pair) for pair in state["branches"]]

    def states(trace):
        return sorted(branches(state) for state in trace["loop_states"]["l.0"])

    trace, _, _ = observe(runtime_module, AT_CAP_FROM_A_FRESH_SCOPE, None, 1)
    assert states(trace) == [[("b.1", False)]]  # the inner scope's, first at the cap
    trace, _, _ = observe(runtime_module, AT_CAP_FROM_A_FRESH_SCOPE, None, cap)
    assert states(trace) == [[("b.0", True)], [("b.1", False)]]

    trace, _, _ = observe(runtime_module, GUARD_AND_FOR_SHARE_A_SITE, None, cap)
    assert states(trace) == [[("b.0", True)], [("b.1", False)]]
    assert trace["loop_counts"] == {"l.0": 2 + 3 + 2 + 2 * 2 + 1}

    trace, _, _ = observe(runtime_module, EVENTS_PARTWAY_THROUGH_A_PATH, EXCEPTION_AT_T0, cap)
    assert [(e["fault"], e["injected"], branches(e["state"])) for e in trace["events"]] == [
        ("d.true:negation", False, [("b.0", True)]),
        ("t.0:exception", True, [("b.0", True), ("b.1", False)]),
        ("d.true:negation", False, [("b.0", True)]),
        ("d.false:negation", False, [("b.1", True)]),
        ("t.1:exception", False, [("b.1", True), ("b.0", True)]),
    ]


def test_a_natural_fault_met_again_is_the_event_built_first():
    """What (d) and (e) are for: each distinct (fault, local state) is one
    event object, however often the run meets it — and only then."""
    cap = runtime_module.MAX_STATES_PER_SITE
    trace, _, _ = execute(runtime_module, ONE_SITE_REPEATED_IN_AN_ITERATION, None, cap)
    events = trace.events
    assert len(events) == 18
    assert len({id(event) for event in events}) == len(set(events)) == 6
    # Every hook takes the hit path: a negation, a throw point, a library
    # and a remote call each meet an event the run already holds.
    assert events[1] is events[0] and events[10] is events[0]
    assert events[4] is events[3] and events[11] is events[2] and events[12] is events[3]

    trace, _, _ = execute(runtime_module, SAME_PATH_UNDER_TWO_CALL_CHAINS, None, cap)
    events = trace.events
    assert len(events) == 12 and len({id(event) for event in events}) == len(set(events)) == 6
    assert events[0] == events[6] and events[0] != events[3]  # one path, two chains
    assert events[0] is events[6] and events[3] is events[9]

    trace, _, _ = execute(runtime_module, ONE_SITE_REPEATED_IN_AN_ITERATION, EXCEPTION_AT_C0, cap)
    injected = [event for event in trace.events if event.injected]
    assert len(injected) == 1 and injected[0] == FaultEvent(
        FaultKey("c.0", EXCEPTION), trace.events[2].state, injected=True
    )


def test_guard_site_owning_an_enclosing_scope_truncates_the_active_for_scope():
    """The one hazard of pushing a loop's scope once: the inner guard shares
    its site with the outer one, so its truncation removes the ``for``
    scope between them — which a per-iteration push restored by itself."""
    body = [("branch", "b.0", True), ("while", "l.0", 1, [("branch", "b.1", True)])]
    loops = ("while", "l.0", 2, [("for", "l.1", 3, body + [("branch", "b.1", False)])])
    program = ([[("function", "F.a", [loops])]], [0])
    assert_same_as_the_oracle(program, None, runtime_module.MAX_STATES_PER_SITE)
    trace, _, _ = observe(runtime_module, program, None, runtime_module.MAX_STATES_PER_SITE)
    assert trace["loop_counts"] == {"l.0": 8, "l.1": 6}
