"""Property-style round-trip tests for the fault-model codecs.

For **every registered fault model** — including the environment kinds
and the composed schedules, each planned against a site registry —
``plan_to_obj``/``plan_from_obj`` and the experiment-cache entry
encode/decode must be exact inverses, through a real JSON round-trip
(cache entries are JSON on disk).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ExperimentCache
from repro.config import CSnakeConfig
from repro.core.fca import FcaResult
from repro.faults import (
    EnvFaultPort,
    all_models,
    expand_kinds,
    model_for,
    registered_kinds,
    registered_schedules,
)
from repro.instrument.plan import InjectionPlan, make_params
from repro.instrument.sites import SiteRegistry
from repro.instrument.trace import FaultEvent, RunGroup, RunTrace
from repro.serialize import (
    fault_from_obj,
    fault_to_obj,
    group_from_obj,
    group_to_obj,
    plan_from_obj,
    plan_to_obj,
)
from repro.systems import get_system
from repro.types import DELAY, FaultKey, LocalState

CONFIG = CSnakeConfig()

#: A representative injectable site per site kind each model targets.
SITE_FOR_KIND = {
    "throw": "sys.a.throw",
    "lib_call": "sys.a.rpc",
    "loop": "sys.a.loop",
    "detector": "sys.a.is_ok",
    "env_node": "env.node.n1",
    "env_link": "env.link.a~b",
}

#: The registry every model plans against: the sites above, plus what a
#: schedule anchored at ``n1`` resolves to (its peers and a link at it).
REGISTRY = SiteRegistry("sys")
REGISTRY.throw("sys.a.throw")
REGISTRY.lib_call("sys.a.rpc")
REGISTRY.loop("sys.a.loop")
REGISTRY.detector("sys.a.is_ok")
EnvFaultPort(nodes=("n1", "a", "b"), links=(("a", "b"), ("a", "n1"))).register_sites(REGISTRY)


def _via_json(obj):
    return json.loads(json.dumps(obj, sort_keys=True))


def _representative_faults(model):
    return [
        FaultKey(SITE_FOR_KIND[site_kind.value], model.kind_id)
        for site_kind in model.site_kinds
    ]


def _all_plans():
    plans = []
    for model in all_models():
        for fault in _representative_faults(model):
            plans.extend(model.plans_for(fault, CONFIG, REGISTRY))
    return plans


def test_every_registered_model_contributes_plans():
    plans = _all_plans()
    kinds = {p.fault.kind for p in plans}
    assert kinds == set(m.kind_id for m in all_models())


@pytest.mark.parametrize("plan", _all_plans(), ids=str)
def test_plan_roundtrip_exact_inverse(plan):
    assert plan_from_obj(_via_json(plan_to_obj(plan))) == plan


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.kind_id)
def test_fault_key_roundtrip_per_model(model):
    for fault in _representative_faults(model):
        assert fault_from_obj(_via_json(fault_to_obj(fault))) == fault


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.kind_id)
def test_group_with_injection_roundtrips(model):
    fault = _representative_faults(model)[0]
    plan = model.plans_for(fault, CONFIG, REGISTRY)[0]
    trace = RunTrace(test_id="t1", injection=plan, seed=99)
    trace.record_event(
        FaultEvent(fault, LocalState(("<env>", "<env>"), ()), injected=True)
    )
    trace.loop_counts["sys.a.loop"] = 7
    trace.reached.add("sys.a.loop")
    group = RunGroup.of("t1", plan, [trace])
    clone = group_from_obj(_via_json(group_to_obj(group)))
    assert clone == group
    assert clone.injection == plan


# ------------------------------------------------------- hypothesis sweeps


@given(
    warmup=st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    restart=st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    duration=st.floats(1.0, 1e6, allow_nan=False, allow_infinity=False),
    drop_p=st.floats(0.01, 1.0, allow_nan=False, allow_infinity=False),
    delay=st.floats(0.5, 1e5, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=60)
def test_arbitrary_plan_parameters_roundtrip(warmup, restart, duration, drop_p, delay):
    plans = [
        InjectionPlan(FaultKey("l", DELAY), delay_ms=delay, warmup_ms=warmup),
        InjectionPlan(
            FaultKey("env.node.n", "node_crash"),
            warmup_ms=warmup,
            params=make_params(restart_ms=restart),
        ),
        InjectionPlan(
            FaultKey("env.link.a~b", "partition"),
            warmup_ms=warmup,
            params=make_params(duration_ms=duration),
        ),
        InjectionPlan(
            FaultKey("env.link.a~b", "msg_drop"),
            warmup_ms=warmup,
            params=make_params(drop_p=drop_p),
        ),
    ]
    for plan in plans:
        assert plan_from_obj(_via_json(plan_to_obj(plan))) == plan


_positive = st.one_of(st.integers(1, 10**6), st.floats(1e-3, 1e6, allow_nan=False))
_unit = st.floats(1e-3, 1.0, allow_nan=False)  # in every fault model's sweep range


def _tuples(elements, **kwargs):
    return st.lists(elements, **kwargs).map(tuple)


@given(
    st.fixed_dictionaries(
        {},
        optional=dict(
            repeats=st.integers(2, 9),
            p_value=st.floats(1e-6, 0.999),
            budget_per_fault=st.integers(1, 50),
            delay_values_ms=_tuples(_positive, min_size=1, max_size=4),
            fault_kinds=_tuples(st.sampled_from(expand_kinds("all")), min_size=1, unique=True),
            schedules=_tuples(st.sampled_from(registered_schedules()), unique=True),
            sweep_overrides=_tuples(
                st.tuples(
                    st.sampled_from(registered_kinds()),
                    _tuples(_unit, min_size=1, max_size=3),
                ),
                max_size=3,
                unique_by=lambda entry: entry[0],  # a kind named twice is refused
            ),
            point_event_min_frac=st.one_of(st.integers(0, 1), st.floats(0.0, 1.0)),
            beam_width=st.integers(1, 10**6),
            max_chain_len=st.integers(2, 12),
            max_delay_faults=st.one_of(st.none(), st.integers(0, 5)),
            seed=st.integers(-(2**63), 2**63),
            compat_check=st.booleans(),
            adaptive_budget=st.booleans(),
            experiment_workers=st.integers(1, 64),
            experiment_backend=st.sampled_from(["serial", "process"]),
            cache_dir=st.sampled_from([None, "/tmp/c", "rel/cache dir"]),
        ),
    )
)
@settings(max_examples=150)
def test_any_valid_config_roundtrips_through_json_unchanged(params):
    """``from_dict`` inverts ``to_dict`` and neither coerces: a second dump
    is the same bytes (an ``8000`` stays ``8000``, not ``8000.0``)."""
    config = CSnakeConfig(**params)
    dump = json.dumps(config.to_dict(), sort_keys=True)
    again = CSnakeConfig.from_dict(json.loads(dump))
    assert again == config
    assert json.dumps(again.to_dict(), sort_keys=True) == dump
    assert set(params) <= set(config.to_dict())


# ------------------------------------------------------------- cache entries


@pytest.fixture(scope="module")
def raft_cache(tmp_path_factory):
    spec = get_system("miniraft")
    return spec, ExperimentCache(tmp_path_factory.mktemp("cache"), spec, CONFIG)


def _env_fault_for(spec, model):
    site = next(
        s for s in spec.registry.env_sites() if s.kind in model.site_kinds
    )
    return FaultKey(site.site_id, model.kind_id)


@pytest.mark.parametrize(
    "model", [m for m in all_models()], ids=lambda m: m.kind_id
)
def test_cache_experiment_entry_roundtrip(model, raft_cache):
    spec, cache = raft_cache
    if model.environment:
        fault = _env_fault_for(spec, model)
    else:
        site = next(s for s in spec.registry if s.kind in model.site_kinds)
        fault = FaultKey(site.site_id, model.kind_id)
    plans = model.plans_for(fault, CONFIG, spec.registry)
    result = FcaResult(fault=fault, test_id="raft.steady")
    result.interference = [FaultKey("flw.append.apply", DELAY)]
    key = cache.experiment_key("raft.steady", fault, plans)
    cache.store_experiment(key, "raft.steady", fault, result, runs=4)
    replayed = cache.lookup_experiment(key)
    assert replayed is not None
    got, runs = replayed
    assert runs == 4
    assert got.fault == fault and got.test_id == "raft.steady"
    assert got.interference == result.interference


def test_cache_profile_entry_roundtrip_with_env_injected_group(raft_cache):
    spec, cache = raft_cache
    fault = _env_fault_for(spec, model_for("partition"))
    plan = model_for("partition").plans_for(fault, CONFIG, spec.registry)[0]
    trace = RunTrace(test_id="raft.steady", injection=plan, seed=3)
    trace.loop_counts["flw.append.apply"] = 11
    trace.reached.add("flw.append.apply")
    group = RunGroup.of("raft.steady", plan, [trace])
    clone = group_from_obj(_via_json(group_to_obj(group)))
    assert clone.injection == plan
    assert clone == group


def test_plan_sweep_distinguishes_cache_keys(raft_cache):
    spec, cache = raft_cache
    fault = _env_fault_for(spec, model_for("partition"))
    short = [
        InjectionPlan(fault, warmup_ms=1.0, params=make_params(duration_ms=5_000.0))
    ]
    long = [
        InjectionPlan(fault, warmup_ms=1.0, params=make_params(duration_ms=50_000.0))
    ]
    assert cache.experiment_key("t", fault, short) != cache.experiment_key("t", fault, long)
