"""Shared factories for synthetic traces, edges, and states in tests, the
JSON form of a run's trace that trace-level comparisons are taken over, an
agent serving from a thread of the test process, the by-key view and
in-place damage of a cache directory's records, and an edited copy of the
source tree."""

from __future__ import annotations

import contextlib
import json
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis import SliceAnalysis, analyze_system, live_sources
from repro.cache import records
from repro.core import beam
from repro.instrument.plan import InjectionPlan
from repro.instrument.trace import FaultEvent, RunGroup, RunTrace
from repro.serialize import fault_to_obj, plan_to_obj, state_to_obj, states_to_obj
from repro.service.agent import Agent
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


def agent_thread(transport: Any, **kwargs: Any) -> Tuple[Agent, threading.Thread]:
    """An agent serving from a thread of this process, returned once it has
    registered: its workers fork before that, and so before the test's own
    threads run a campaign and can hold a lock at the fork that a worker
    would inherit held (an import's module lock, say, of a module that
    worker imports next)."""
    agent = Agent(transport, **kwargs)
    thread = threading.Thread(target=agent.run, kwargs={"idle_exit_s": 20.0}, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30.0
    while agent.agent_id is None and thread.is_alive():
        assert time.monotonic() < deadline, "the agent never registered"
        time.sleep(0.01)
    return agent, thread


def live_slices(spec: Any) -> SliceAnalysis:
    """A fresh slice analysis of ``spec``'s live source modules."""
    return analyze_system(spec, live_sources(spec.source_modules))


def stored(root: Any) -> Dict[str, List[bytes]]:
    """Key -> the entry bytes of each of its records under the cache
    directory ``root``, in :func:`repro.cache.records` order."""
    out: Dict[str, List[bytes]] = {}
    for record in records(root):
        out.setdefault(record.key, []).append(record.entry)
    return out


def stored_kinds(root: Any) -> List[str]:
    """The sorted ``kind`` of every record under ``root``."""
    return sorted(json.loads(record.entry)["kind"] for record in records(root))


def rewrite_record(root: Any, key: str, entry: str) -> None:
    """Replace the entry of every record of ``key`` under ``root`` by
    ``entry`` in place — the damage a disk or an editor could do; a live
    cache instance keeps what it indexed before."""
    prefix = key.encode() + b" "
    for segment in sorted({r.segment for r in records(root) if r.key == key}):
        path = Path(segment)
        lines = [
            prefix + entry.encode() if line.startswith(prefix) else line
            for line in path.read_bytes().split(b"\n")
        ]
        path.write_bytes(b"\n".join(lines))


def edited_source(dest: Path, rel: str, line: str = "\n_EDITED = True\n") -> Path:
    """A copy of this checkout's ``src`` under ``dest`` whose ``repro/<rel>``
    gained ``line`` at its end: other bytes, the same behaviour.  Returns
    the copy's ``src``, which a test keys as by setting
    ``repro.cache.SOURCE_ROOT`` to it."""
    src = Path(__file__).resolve().parents[1] / "src"
    shutil.copytree(str(src), str(dest / "src"), ignore=shutil.ignore_patterns("__pycache__"))
    target = dest / "src" / "repro" / rel
    target.write_text(target.read_text(encoding="utf-8") + line, encoding="utf-8")
    return dest / "src"
