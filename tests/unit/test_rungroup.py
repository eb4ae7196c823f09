"""How a run group reduces its runs to the columns FCA reads.

:meth:`RunGroup.of` folds the traces of one (test, injection) combination
into count rows, state unions, natural-hit counts, injected states and
reached sites in one pass, and the group never changes afterwards: the
driver, the cache and the workers share it as is.
"""

import dataclasses
import pickle

import pytest

from repro.instrument.plan import InjectionPlan
from repro.instrument.trace import RunGroup
from tests.helpers import dly, event, exc, group, run_trace, state

S1 = state(("f1", "f0"))
S2 = state(("g1", "g0"))


def _group():
    return group(
        "t1",
        None,
        [
            run_trace("t1", events=[event(exc("a"))], loop_counts={"l1": 3}),
            run_trace("t1", loop_counts={"l1": 5, "l2": 1}),
            run_trace("t1", loop_counts={"l2": 0, "l3": 0}),
        ],
    )


def test_count_rows_hold_a_zero_where_a_run_never_iterated():
    g = _group()
    assert g.n_runs == 3
    assert g.loop_counts == {"l1": (3, 5, 0), "l2": (0, 1, 0)}
    # a loop entered but never iterated has no row, yet is reached
    assert "l3" not in g.loop_counts
    assert g.reached == {"a", "l1", "l2", "l3"}


def test_natural_hits_count_runs_not_occurrences():
    g = group(
        "t1",
        None,
        [
            run_trace("t1", events=[event(exc("a"), S1), event(exc("a"), S2), event(exc("b"))]),
            run_trace("t1", events=[event(exc("a"), S1)]),
            run_trace("t1"),
        ],
    )
    assert g.natural_hits == {exc("a"): 2, exc("b"): 1}
    assert g.natural_states == {exc("a"): {S1, S2}, exc("b"): {state()}}
    assert g.injected_states == frozenset()


def test_injected_states_are_the_fired_events_or_the_delayed_loop():
    plan = InjectionPlan(exc("a"), warmup_ms=100.0)
    g = group(
        "t1",
        plan,
        [run_trace("t1", plan, events=[event(exc("a"), S1, injected=True), event(exc("b"), S2)])],
    )
    assert g.injected_states == {S1}
    assert g.natural_hits == {exc("b"): 1}

    delay = InjectionPlan(dly("l1"), delay_ms=500.0)
    g = group(
        "t1",
        delay,
        [
            run_trace("t1", delay, loop_counts={"l1": 2}, loop_states={"l1": [S1]}),
            run_trace("t1", delay, loop_counts={"l1": 1}, loop_states={"l1": [S2], "l2": [S1]}),
        ],
    )
    assert g.injected_states == {S1, S2}
    assert g.loop_states == {"l1": {S1, S2}, "l2": {S1}}


def test_empty_group_has_empty_columns():
    g = RunGroup.of("t1", None, [])
    assert g.n_runs == 0
    assert g.loop_counts == {} and g.loop_states == {}
    assert g.natural_hits == {} and g.natural_states == {}
    assert g.injected_states == frozenset()
    assert g.reached == frozenset()


def test_a_run_of_another_test_is_rejected():
    with pytest.raises(ValueError, match="t2"):
        group("t1", None, [run_trace("t1"), run_trace("t2")])


def test_a_group_is_frozen_and_pickles_to_an_equal_group():
    g = _group()
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.n_runs = 4  # type: ignore[misc]
    clone = pickle.loads(pickle.dumps(g))
    assert clone == g
    assert clone.loop_counts == {"l1": (3, 5, 0), "l2": (0, 1, 0)}
