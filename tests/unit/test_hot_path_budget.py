"""Deterministic hot-path budget: Python-level calls per simulated event.

A timing gate would flake; a call count does not.  ``sys.setprofile``
``call`` events (Python function entries and generator resumptions, no C
calls) are counted over one profile run, divided by the events the run
simulated.  The ceilings sit 10 % above the values measured when the
per-event path was made cheap (DESIGN.md §5, "Cost of one simulated
event"; the two runs below read 73.2 and 46.3 before that change, 39.2
and 21.3 until frames and loop scopes stopped being allocated, and 35.2
and 18.7 until a periodic handler became its own heap entry and the
clock a plain attribute), so re-adding a generator, a helper call per
hook or a closure frame per periodic firing fails here.

The same profile run counts ``_Frame`` constructions against ``_Frame``
entries: a frame is a calling-context-tree node that serves every
invocation along its chain, so a run constructs a few dozen of them
however many calls it makes (17 for 796 entries and 19 for 487 on the two
runs below, the root node included; one per entry when every
``rt.function`` allocated its frame).  It counts ``_Path`` constructions
against ``branch`` calls the same way: a scope's branch trace is a node of
the run's path trie, built once per distinct path (11 for 1 329 calls on
``hdfs2.cache_small``, the empty path included).  And it counts
``FaultEvent`` constructions against the natural fault occurrences the
trace records: an occurrence met again in the same calling-context node,
path node and site is the event the run built the first time (5 for 89 on
``dfs.churn``; one per occurrence when every hook built its event).
"""

import functools
import sys
from collections import Counter

import pytest

from repro.core.driver import seed_for, run_workload
from repro.instrument.runtime import Runtime, _Frame, _Path
from repro.instrument.trace import FaultEvent
from repro.systems import get_system
from tests.golden_traces import CAMPAIGN_SEED, events_processed_log

pytestmark = pytest.mark.contract

#: (system, workload) -> calls per simulated event when the budget was set.
MEASURED = {
    ("minihdfs2", "hdfs2.cache_small"): 26.1,
    ("minidfs", "dfs.churn"): 12.7,
}


@functools.lru_cache(maxsize=None)
def profile_run(system: str, test_id: str):
    """``(calls by code object, simulated events, trace)`` of one profile run."""
    spec = get_system(system)
    seed = seed_for(test_id, 0, CAMPAIGN_SEED)
    calls: Counter = Counter()

    def count(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    previous = sys.getprofile()
    with events_processed_log() as events:
        sys.setprofile(count)
        try:
            trace = run_workload(spec, spec.workloads[test_id], None, seed)
        finally:
            sys.setprofile(previous)
    return calls, events[0], trace


def calls_per_event(system: str, test_id: str) -> float:
    calls, events, _ = profile_run(system, test_id)
    return sum(calls.values()) / events


@pytest.mark.parametrize("system,test_id", sorted(MEASURED))
def test_calls_per_simulated_event_stay_under_budget(system, test_id):
    measured = MEASURED[(system, test_id)]
    got = calls_per_event(system, test_id)
    assert got <= measured * 1.10, (
        "%s/%s: %.1f Python-level calls per simulated event, budget %.1f (measured %.1f + 10%%)"
        % (system, test_id, got, measured * 1.10, measured)
    )


@pytest.mark.parametrize("system,test_id", sorted(MEASURED))
def test_frames_are_constructed_per_call_chain_not_per_call(system, test_id):
    calls, _, _ = profile_run(system, test_id)
    constructed = calls[_Frame.__init__.__code__]
    entered = calls[_Frame.__enter__.__code__]
    assert entered > 100, "the run no longer crosses rt.function: pick another"
    assert constructed <= 0.05 * entered, (
        "%s/%s: %d frames constructed for %d entered; a frame is a node of the "
        "calling-context tree and must serve every invocation of its chain"
        % (system, test_id, constructed, entered)
    )


def test_branch_paths_are_built_per_distinct_path_not_per_branch():
    # minidfs records almost no branch outcome; minihdfs2's loops evaluate one.
    calls, _, _ = profile_run("minihdfs2", "hdfs2.cache_small")
    built = calls[_Path.__init__.__code__]
    branches = calls[Runtime.branch.__code__]
    assert branches > 100, "the run no longer crosses rt.branch: pick another"
    assert built <= 0.05 * branches, (
        "%d path nodes built for %d branch calls; a scope's branch trace is a "
        "node of the run's path trie, built once per distinct path" % (built, branches)
    )


def test_fault_events_are_built_per_distinct_event_not_per_occurrence():
    # minidfs's block detectors return their error value on most calls.
    calls, _, trace = profile_run("minidfs", "dfs.churn")
    built = calls[FaultEvent.__init__.__code__]
    occurrences = sum(1 for event in trace.events if not event.injected)
    assert occurrences > 50, "the run no longer records natural faults: pick another"
    assert built <= 0.1 * occurrences, (
        "%d fault events built for %d natural occurrences of %d distinct events; an "
        "occurrence met again in one (frame, path, site) is the event built first"
        % (built, occurrences, len(set(trace.events)))
    )
