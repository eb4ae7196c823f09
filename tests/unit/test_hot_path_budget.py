"""Deterministic hot-path budget: Python-level calls per simulated event.

A timing gate would flake; a call count does not.  ``sys.setprofile``
``call`` events (Python function entries and generator resumptions, no C
calls) are counted over one profile run, divided by the events the run
simulated.  The ceilings sit 10 % above the values measured when the
per-event path was made cheap (DESIGN.md §5, "Cost of one simulated
event"; before that change the two runs below read 73.2 and 46.3), so
re-adding a generator or a helper call per hook fails here.
"""

import sys

import pytest

from repro.core.driver import seed_for, run_workload
from repro.systems import get_system
from tests.golden_traces import CAMPAIGN_SEED, events_processed_log

#: (system, workload) -> calls per simulated event when the budget was set.
MEASURED = {
    ("minihdfs2", "hdfs2.cache_small"): 39.2,
    ("minidfs", "dfs.churn"): 21.3,
}


def calls_per_event(system: str, test_id: str) -> float:
    spec = get_system(system)
    seed = seed_for(test_id, 0, CAMPAIGN_SEED)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    with events_processed_log() as events:
        sys.setprofile(count)
        try:
            run_workload(spec, spec.workloads[test_id], None, seed)
        finally:
            sys.setprofile(previous)
    return calls / events[0]


@pytest.mark.parametrize("system,test_id", sorted(MEASURED))
def test_calls_per_simulated_event_stay_under_budget(system, test_id):
    measured = MEASURED[(system, test_id)]
    got = calls_per_event(system, test_id)
    assert got <= measured * 1.10, (
        "%s/%s: %.1f Python-level calls per simulated event, budget %.1f (measured %.1f + 10%%)"
        % (system, test_id, got, measured * 1.10, measured)
    )
