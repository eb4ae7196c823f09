"""Property round-trips for the fault-schedule params codecs.

A schedule plan's ``events`` payload — concrete ``(site, kind, offset,
params)`` tuples — must survive ``plan_to_obj``/``plan_from_obj`` and the
``params_to_obj``/``params_from_obj`` codec exactly, through a real JSON
round-trip (cache entries are JSON on disk), for *arbitrary*
event tuples, not just the bundled compositions.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CSnakeConfig
from repro.faults import registered_schedules, schedule_model_for
from repro.instrument.plan import InjectionPlan, make_params
from repro.serialize import plan_from_obj, plan_to_obj
from repro.systems import get_system
from repro.types import FaultKey, InjKind

CONFIG = CSnakeConfig()

_finite = dict(allow_nan=False, allow_infinity=False)

#: Arbitrary composed events: any site id, any registered single kind,
#: non-negative offsets, and float params with identifier-ish names.
_event = st.tuples(
    st.sampled_from(["env.node.raft0", "env.node.raft1", "env.link.raft0~raft1"]),
    st.sampled_from(["node_crash", "partition", "msg_drop"]),
    st.floats(0.0, 1e7, **_finite),
    st.lists(
        st.tuples(
            st.sampled_from(["restart_ms", "duration_ms", "drop_p", "x"]),
            st.floats(0.0, 1e7, **_finite),
        ),
        max_size=3,
        unique_by=lambda kv: kv[0],
    ).map(lambda kvs: tuple(sorted(kvs))),
)


def _via_json(obj):
    return json.loads(json.dumps(obj, sort_keys=True))


@given(
    name=st.sampled_from(["membership_churn", "partition_during_restart"]),
    events=st.lists(_event, min_size=1, max_size=6).map(tuple),
    warmup=st.floats(0.0, 1e6, **_finite),
)
@settings(max_examples=80)
def test_arbitrary_schedule_plans_roundtrip(name, events, warmup):
    plan = InjectionPlan(
        FaultKey("env.node.raft1", InjKind(name)),
        warmup_ms=warmup,
        params=make_params(events=events),
    )
    clone = plan_from_obj(_via_json(plan_to_obj(plan)))
    assert clone == plan
    assert clone.param("events") == events


@given(events=st.lists(_event, min_size=1, max_size=6).map(tuple))
@settings(max_examples=80)
def test_params_codec_exact_inverse(events):
    model = schedule_model_for("membership_churn")
    plan = InjectionPlan(
        FaultKey("env.node.raft0", model.kind),
        warmup_ms=1.0,
        params=make_params(events=events),
    )
    obj = _via_json(model.params_to_obj(plan))
    assert model.params_from_obj(obj) == (("events", events),)


@pytest.mark.parametrize("name", registered_schedules())
def test_bundled_schedule_plans_roundtrip_concretely(name):
    """The real resolved compositions (churn wave, partition-during-
    restart) round-trip through the plan codec."""
    registry = get_system("miniraft").registry
    model = schedule_model_for(name)
    for anchor in ("env.node.raft0", "env.node.raft1", "env.node.raft2"):
        fault = FaultKey(anchor, model.kind)
        for plan in model.plans_for_spec(fault, CONFIG, registry):
            clone = plan_from_obj(_via_json(plan_to_obj(plan)))
            assert clone == plan
            assert model.plan_sites(clone) == model.plan_sites(plan)
