"""The profile-side FCA input caches on RunGroup, and their invalidation.

A profile group answers the same derived-statistic queries once per
*experiment* (control matrices, occurrence maps, reached sites), so the
answers are memoized per group — and must be dropped the moment the
group gains a run, or a growing group would serve stale statistics.
"""

from tests.helpers import dly, event, exc, group, run_trace


def _group():
    return group(
        "t1",
        None,
        [
            run_trace("t1", events=[event(exc("a"))], loop_counts={"l1": 3}),
            run_trace("t1", loop_counts={"l1": 5, "l2": 1}),
        ],
    )


def test_loop_rows_cached_and_invalidated():
    g = _group()
    assert g.loop_samples("l1") == [3, 5]
    assert g.loop_count_rows(["l1", "l2"]) == [[3, 5], [0, 1]]
    # cached tuples are handed out as fresh lists — mutating a result must
    # not corrupt later queries
    row = g.loop_samples("l1")
    row.append(99)
    assert g.loop_samples("l1") == [3, 5]
    g.add(run_trace("t1", loop_counts={"l1": 7}))
    assert g.loop_samples("l1") == [3, 5, 7]
    assert g.loop_count_rows(["l2"]) == [[0, 1, 0]]


def test_natural_occurrence_cached_and_invalidated():
    g = _group()
    assert g.natural_faults() == {exc("a")}
    assert g.fault_occurrence_frac(exc("a")) == 0.5
    assert g.fault_occurrence_frac(dly("x")) == 0.0
    g.natural_faults().add(dly("x"))  # copies, not the cache itself
    assert g.natural_faults() == {exc("a")}
    g.add(run_trace("t1", events=[event(exc("a")), event(exc("b"))]))
    assert g.natural_faults() == {exc("a"), exc("b")}
    assert g.fault_occurrence_frac(exc("a")) == 2 / 3
    assert g.fault_occurrence_frac(exc("b")) == 1 / 3


def test_reached_and_coverage_cached_and_invalidated():
    g = _group()
    # "a" is reached via the fault event's site, l1/l2 via loop counts
    assert g.reached() == {"a", "l1", "l2"}
    assert g.coverage() == 3
    g.reached().discard("l1")  # copies, not the cache itself
    assert g.reached() == {"a", "l1", "l2"}
    g.add(run_trace("t1", loop_counts={"l3": 1}))
    assert g.reached() == {"a", "l1", "l2", "l3"}
    assert g.coverage() == 4


def test_empty_group_queries():
    from repro.instrument.trace import RunGroup

    g = RunGroup(test_id="t1", injection=None)
    assert g.natural_faults() == set()
    assert g.fault_occurrence_frac(exc("a")) == 0.0
    assert g.reached() == set()
    assert g.coverage() == 0
    assert g.loop_samples("l1") == []


def test_group_equality_ignores_cache_state():
    # dataclass equality compares fields only — a queried group still
    # equals its never-queried twin (cache round-trips rely on this)
    a, b = _group(), _group()
    a.natural_faults()
    a.reached()
    a.loop_samples("l1")
    assert a == b


def test_group_pickles_with_caches():
    import pickle

    g = _group()
    g.reached()
    g.natural_faults()
    clone = pickle.loads(pickle.dumps(g))
    assert clone == g
    assert clone.reached() == g.reached()
    clone.add(run_trace("t1", loop_counts={"l9": 1}))
    assert "l9" in clone.reached()
