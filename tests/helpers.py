"""Shared factories for synthetic traces, edges, and states in tests, and
the JSON form of a run's trace that trace-level comparisons are taken over."""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

from repro.core import beam
from repro.instrument.plan import InjectionPlan
from repro.instrument.trace import FaultEvent, RunGroup, RunTrace
from repro.serialize import fault_to_obj, plan_to_obj, state_to_obj, states_to_obj
from repro.types import DELAY, EXCEPTION, NEGATION, CausalEdge, EdgeType, FaultKey, LocalState


#: The kernel's own candidate-table block size.
DEFAULT_KERNEL_BLOCK = beam._VectorizedKernel.BLOCK


@contextlib.contextmanager
def kernel_block_size(size: int) -> Iterator[None]:
    """Run the body with the beam kernel's candidate table cut into blocks
    of ``size`` candidates (a private class constant, not a setting: what a
    search returns must not depend on it)."""
    kernel = beam._VectorizedKernel
    previous, kernel.BLOCK = kernel.BLOCK, size
    try:
        yield
    finally:
        kernel.BLOCK = previous


def state(stack: Tuple[str, str] = ("f1", "f0"), branches: Tuple = ()) -> LocalState:
    return LocalState(call_stack=stack, branch_trace=branches)


def exc(name: str) -> FaultKey:
    return FaultKey(name, EXCEPTION)


def neg(name: str) -> FaultKey:
    return FaultKey(name, NEGATION)


def dly(name: str) -> FaultKey:
    return FaultKey(name, DELAY)


def edge(
    src: FaultKey,
    dst: FaultKey,
    etype: EdgeType = EdgeType.E_I,
    test_id: str = "t1",
    src_states: Iterable[LocalState] = (),
    dst_states: Iterable[LocalState] = (),
) -> CausalEdge:
    return CausalEdge(
        src=src,
        dst=dst,
        etype=etype,
        test_id=test_id,
        src_states=frozenset(src_states),
        dst_states=frozenset(dst_states),
    )


def run_trace(
    test_id: str = "t1",
    injection: Optional[InjectionPlan] = None,
    events: Iterable[FaultEvent] = (),
    loop_counts: Optional[dict] = None,
    loop_states: Optional[dict] = None,
) -> RunTrace:
    trace = RunTrace(test_id=test_id, injection=injection)
    for ev in events:
        trace.record_event(ev)
    for site, count in (loop_counts or {}).items():
        trace.loop_counts[site] = count
        trace.reached.add(site)
    for site, states in (loop_states or {}).items():
        trace.loop_states[site] = set(states)
    return trace


def group(
    test_id: str,
    injection: Optional[InjectionPlan],
    runs: Iterable[RunTrace],
) -> RunGroup:
    return RunGroup.of(test_id, injection, list(runs))


def event(fault: FaultKey, st: Optional[LocalState] = None, injected: bool = False) -> FaultEvent:
    return FaultEvent(fault, st if st is not None else state(), injected=injected)


def trace_to_obj(trace: RunTrace) -> Dict[str, Any]:
    """Everything a run leaves behind, as plain JSON values in a fixed order
    (what a golden trace digest and the runtime differential compare)."""
    return {
        "test_id": trace.test_id,
        "injection": plan_to_obj(trace.injection),
        "seed": trace.seed,
        "events": [
            {
                "fault": fault_to_obj(e.fault),
                "state": state_to_obj(e.state),
                "injected": e.injected,
            }
            for e in trace.events
        ],
        "loop_counts": {site: count for site, count in sorted(trace.loop_counts.items())},
        "loop_states": {
            site: states_to_obj(frozenset(states))
            for site, states in sorted(trace.loop_states.items())
        },
        "reached": sorted(trace.reached),
        "saturated": trace.saturated,
    }
