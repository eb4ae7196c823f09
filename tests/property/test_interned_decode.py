"""The decoders' intern table (``repro.serialize.InternTable``).

A cache replays many entries through one table.  Decoding them that way
must give, field for field, what decoding each entry on its own gives,
and must return one object per distinct fault, local state and state set
across all of them.  The alphabets are small on purpose: states that
share a call stack but not their branches, and state sets that share
some states, recur in almost every example, so a table keyed more
coarsely than the value (a state by its stack alone, say) hands one
entry another's object and fails the first test.
"""

import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fca import FcaResult
from repro.instrument.plan import InjectionPlan
from repro.instrument.trace import RunGroup
from repro.serialize import InternTable, fca_from_obj, fca_to_obj, group_from_obj, group_to_obj
from repro.types import DELAY, EXCEPTION, NEGATION, CausalEdge, EdgeType, FaultKey, LocalState

pytestmark = pytest.mark.contract

SITES = ("a.loop", "a.throw", "b.loop")
TESTS = ("t1", "t2")

faults = st.builds(FaultKey, st.sampled_from(SITES), st.sampled_from((DELAY, EXCEPTION, NEGATION)))
states = st.builds(
    LocalState,
    st.lists(st.sampled_from(("A.run", "B.tick")), max_size=2).map(tuple),
    st.lists(st.tuples(st.sampled_from(("a.if", "b.if")), st.booleans()), max_size=2).map(tuple),
)
state_sets = st.frozensets(states, max_size=3)
edges = st.builds(
    CausalEdge, faults, faults, st.sampled_from(list(EdgeType)), st.sampled_from(TESTS),
    state_sets, state_sets,
)
fca_results = st.builds(
    FcaResult,
    fault=faults,
    test_id=st.sampled_from(TESTS),
    edges=st.lists(edges, max_size=4),
    interference=st.lists(faults, max_size=3),
    min_p=st.none() | st.floats(0.0, 1.0),
    aborted=st.integers(0, 2),
)
plans = st.none() | faults.map(
    lambda f: InjectionPlan(f, delay_ms=8000.0 if f.kind == DELAY else None, warmup_ms=500.0)
)


@st.composite
def groups(draw):
    n_runs = draw(st.integers(1, 3))
    loops = draw(st.lists(st.sampled_from(SITES), unique=True, max_size=3))
    natural = draw(st.lists(faults, unique=True, max_size=3))
    row = st.lists(st.integers(0, 9), min_size=n_runs, max_size=n_runs).map(tuple)
    return RunGroup(
        test_id=draw(st.sampled_from(TESTS)),
        injection=draw(plans),
        n_runs=n_runs,
        loop_counts={site: draw(row) for site in loops},
        loop_states={site: draw(state_sets) for site in loops},
        natural_hits={fault: draw(st.integers(1, n_runs)) for fault in natural},
        natural_states={fault: draw(state_sets) for fault in natural},
        injected_states=draw(state_sets),
        reached=frozenset(draw(st.lists(st.sampled_from(SITES)))),
    )


def _via_json(obj):
    return json.loads(json.dumps(obj, sort_keys=True))


def _decode_shared(results, run_groups):
    """Every entry through one table, as one cache decodes a campaign's."""
    table = InternTable()
    fca_objs = [_via_json(fca_to_obj(r)) for r in results]
    group_objs = [_via_json(group_to_obj(g)) for g in run_groups]
    shared = [fca_from_obj(o, table) for o in fca_objs] + [group_from_obj(o, table) for o in group_objs]
    alone = [fca_from_obj(o) for o in fca_objs] + [group_from_obj(o) for o in group_objs]
    return shared, alone


def _parts(decoded):
    """Every fault, local state and state set held by decoded entries."""
    faults_, sets = [], []
    for value in decoded:
        if isinstance(value, FcaResult):
            faults_ += [value.fault, *value.interference]
            for edge in value.edges:
                faults_ += [edge.src, edge.dst]
                sets += [edge.src_states, edge.dst_states]
        else:
            if value.injection is not None:
                faults_.append(value.injection.fault)
            faults_ += [*value.natural_hits, *value.natural_states]
            sets += [*value.loop_states.values(), *value.natural_states.values()]
            sets.append(value.injected_states)
    return faults_, [s for members in sets for s in members], sets


@settings(max_examples=150, deadline=None)
@given(st.lists(fca_results, max_size=5), st.lists(groups(), max_size=4))
def test_a_shared_table_decodes_each_entry_as_it_decodes_alone(results, run_groups):
    shared, alone = _decode_shared(results, run_groups)
    assert alone == results + run_groups
    for got, want in zip(shared, alone):
        for f in fields(want):
            assert getattr(got, f.name) == getattr(want, f.name), f.name


@settings(max_examples=150, deadline=None)
@given(st.lists(fca_results, max_size=5), st.lists(groups(), max_size=4))
def test_equal_values_decode_to_one_object_across_entries(results, run_groups):
    shared, _ = _decode_shared(results, run_groups)
    for values in _parts(shared):
        first = {}
        for value in values:
            assert first.setdefault(value, value) is value
