"""Unit tests for the pluggable fault-model registry (repro.faults)."""

import pickle

import pytest

from repro.config import CSnakeConfig
from repro.errors import ConfigError
from repro.faults import (
    CLASSIC_FAULT_KINDS,
    INJECTION_WARMUP_MS,
    EnvFaultPort,
    FaultModel,
    expand_kinds,
    fault_models_digest,
    model_for,
    models_for_site_kind,
    registered_kinds,
    registered_schedules,
)
from repro.instrument.analyzer import analyze
from repro.instrument.plan import InjectionPlan, make_params
from repro.instrument.sites import SiteRegistry
from repro.serialize import fault_from_obj
from repro.types import DELAY, EXCEPTION, NEGATION, FaultKey, SiteKind


# ------------------------------------------------------------------ registry


def test_bundled_models_registered_in_order():
    assert registered_kinds() == [
        "exception", "delay", "negation", "node_crash", "partition", "msg_drop",
        "membership_churn", "partition_during_restart",
    ]


def test_model_for_accepts_ids_and_handles():
    assert [model_for(k).kind_id for k in (EXCEPTION, DELAY, NEGATION)] == [
        "exception", "delay", "negation",
    ]
    with pytest.raises(ValueError, match="no fault model registered"):
        model_for("cosmic_ray")


def test_expand_kinds_grammar():
    assert expand_kinds("classic") == CLASSIC_FAULT_KINDS
    assert expand_kinds("all") == tuple(registered_kinds()[:6])  # no schedules
    assert expand_kinds("delay, partition") == ("delay", "partition")
    with pytest.raises(ValueError, match="unknown fault kind"):
        expand_kinds("delay,nope")
    with pytest.raises(ValueError):
        expand_kinds("")


def test_models_for_site_kind_link_hosts_two_models():
    kinds = [m.kind_id for m in models_for_site_kind(SiteKind.ENV_LINK)]
    assert kinds == ["partition", "msg_drop"]


def test_fault_models_digest_stable_and_version_sensitive():
    before = fault_models_digest()
    assert before == fault_models_digest()
    model = model_for("partition")
    original = model.version
    try:
        type(model).version = original + ".test"
        assert fault_models_digest() != before
    finally:
        type(model).version = original
    assert fault_models_digest() == before


# ---------------------------------------------------------------- fault keys


def test_unregistered_kind_is_a_value_error_at_fault_from_obj():
    assert fault_from_obj("env.node.n1:node_crash") == FaultKey("env.node.n1", "node_crash")
    with pytest.raises(ValueError, match="no fault model registered for kind 'gamma_burst'"):
        fault_from_obj("env.node.n1:gamma_burst")


def test_fault_key_of_a_registered_kind_pickles_and_sorts():
    from repro.faults import _MODELS, register

    class Burst(FaultModel):
        kind_id = "test_burst"
        site_kinds = (SiteKind.ENV_NODE,)

    try:
        register(Burst())
        key = FaultKey("env.node.n1", "test_burst")
        assert pickle.loads(pickle.dumps(key)) == key
        keys = [key, FaultKey("env.node.n0", "test_burst"), FaultKey("env.node.n1", DELAY)]
        assert sorted(keys) == sorted(keys, key=lambda k: (k.site_id, k.kind))
        assert sorted(keys)[-1] is key  # "delay" < "test_burst" at one site
    finally:
        _MODELS.pop("test_burst", None)


# ----------------------------------------------------------- plan validation


def test_delay_plan_requires_delay_ms_via_is_none_check():
    fault = FaultKey("x.loop", DELAY)
    with pytest.raises(ValueError, match="requires delay_ms"):
        InjectionPlan(fault)
    with pytest.raises(ValueError, match="positive"):
        InjectionPlan(fault, delay_ms=0.0)  # zero is a no-op, not "missing"
    assert InjectionPlan(fault, delay_ms=1.0).delay_ms == 1.0


def test_non_delay_plan_rejects_zero_delay_ms():
    # The old truthiness check (`if self.delay_ms`) silently accepted a
    # 0.0 delay on exception/negation plans; `is None` validation rejects
    # every non-None value.
    for fault in (
        FaultKey("a.throw", EXCEPTION),
        FaultKey("a.det", NEGATION),
    ):
        with pytest.raises(ValueError, match="only applies to delay"):
            InjectionPlan(fault, delay_ms=0.0)
        with pytest.raises(ValueError, match="only applies to delay"):
            InjectionPlan(fault, delay_ms=250.0)
        assert InjectionPlan(fault).delay_ms is None


def test_env_plan_param_validation():
    crash = FaultKey("env.node.n1", "node_crash")
    with pytest.raises(ValueError, match="requires parameter"):
        InjectionPlan(crash)
    with pytest.raises(ValueError, match="does not take parameter"):
        InjectionPlan(crash, params=make_params(restart_ms=1.0, extra=2.0))
    with pytest.raises(ValueError, match=">= 0"):
        InjectionPlan(crash, params=make_params(restart_ms=-5.0))
    plan = InjectionPlan(crash, params=make_params(restart_ms=0.0))
    assert plan.param("restart_ms") == 0.0

    part = FaultKey("env.link.a~b", "partition")
    with pytest.raises(ValueError, match="positive"):
        InjectionPlan(part, params=make_params(duration_ms=0.0))

    drop = FaultKey("env.link.a~b", "msg_drop")
    with pytest.raises(ValueError, match="in \\(0, 1\\]"):
        InjectionPlan(drop, params=make_params(drop_p=1.5))
    assert InjectionPlan(drop, params=make_params(drop_p=1.0)).param("drop_p") == 1.0


def test_plan_params_normalized_sorted():
    part = FaultKey("env.link.a~b", "partition")
    plan = InjectionPlan(part, params=(("duration_ms", 5.0),))
    assert plan.params == (("duration_ms", 5.0),)


# ---------------------------------------------------------------- plan sweeps


def test_model_plan_sweeps_match_config():
    config = CSnakeConfig(delay_values_ms=(100.0, 200.0))
    # Single-fault models plan without reading the registry.
    delay_plans = model_for("delay").plans_for(FaultKey("l", DELAY), config, None)
    assert [p.delay_ms for p in delay_plans] == [100.0, 200.0]
    crash_plans = model_for("node_crash").plans_for(
        FaultKey("env.node.n", "node_crash"), config, None
    )
    assert [p.param("restart_ms") for p in crash_plans] == [10_000.0, 40_000.0]
    assert all(p.warmup_ms == INJECTION_WARMUP_MS for p in crash_plans)


def test_sweep_overrides_respected_by_models():
    config = CSnakeConfig(sweep_overrides=(("partition", (7_500.0,)),))
    plans = model_for("partition").plans_for(
        FaultKey("env.link.a~b", "partition"), config, None
    )
    assert [p.param("duration_ms") for p in plans] == [7_500.0]


# --------------------------------------------------------------- config knobs


def test_config_rejects_unknown_fault_kinds():
    with pytest.raises(ConfigError, match="unknown fault kind"):
        CSnakeConfig(fault_kinds=("delay", "nope"))
    with pytest.raises(ConfigError, match="at least one"):
        CSnakeConfig(fault_kinds=())
    with pytest.raises(ConfigError, match="unknown fault kind"):
        CSnakeConfig(sweep_overrides=(("nope", (1.0,)),))


def test_config_rejects_out_of_range_sweep_overrides():
    """Bad --sweep values fail at config time, not mid-campaign."""
    with pytest.raises(ConfigError, match="finite and positive"):
        CSnakeConfig(sweep_overrides=(("delay", (-5.0,)),))
    with pytest.raises(ConfigError, match="finite and positive"):
        CSnakeConfig(sweep_overrides=(("partition", (float("nan"),)),))
    with pytest.raises(ConfigError, match="in \\(0, 1\\]"):
        CSnakeConfig(sweep_overrides=(("msg_drop", (1.5,)),))
    # node_crash allows 0 (= never restart) but not negatives.
    CSnakeConfig(sweep_overrides=(("node_crash", (0.0,)),))
    with pytest.raises(ConfigError, match=">= 0"):
        CSnakeConfig(sweep_overrides=(("node_crash", (-1.0,)),))


def test_config_roundtrip_with_fault_knobs():
    config = CSnakeConfig(
        fault_kinds=("delay", "partition"),
        sweep_overrides=(("partition", (10_000.0, 30_000.0)),),
    )
    clone = CSnakeConfig.from_dict(
        __import__("json").loads(__import__("json").dumps(config.to_dict()))
    )
    assert clone == config


# -------------------------------------------------------------- EnvFaultPort


def test_env_fault_port_registers_sites():
    port = EnvFaultPort(nodes=("n1",), links=(("b", "a"),))
    reg = SiteRegistry("sys")
    port.register_sites(reg)
    port.register_sites(reg)  # idempotent
    assert len(reg) == 2
    node_site = reg.get("env.node.n1")
    assert node_site.kind is SiteKind.ENV_NODE and node_site.env.node == "n1"
    link_site = reg.get("env.link.a~b")  # pair is normalized sorted
    assert link_site.kind is SiteKind.ENV_LINK and link_site.env.link == ("a", "b")
    # Every enabled model that can inject at a site puts one fault in F:
    # both link kinds; the crash and the churn wave on the node, but not a
    # partition during restart, which needs a link at the node.
    space = analyze(reg, expand_kinds("all") + tuple(registered_schedules()))
    assert [str(f) for f in space.faults] == [
        "X@env.link.a~b", "P@env.link.a~b", "M@env.node.n1", "C@env.node.n1",
    ]


def test_env_fault_port_rejects_self_links():
    with pytest.raises(ValueError, match="distinct nodes"):
        EnvFaultPort(links=(("a", "a"),))


# ------------------------------------------------------------ custom plugins


def test_registering_a_custom_model_is_self_contained():
    from repro.faults import register

    class RestartStorm(FaultModel):
        kind_id = "test_restart_storm"
        char = "R"
        site_kinds = (SiteKind.ENV_NODE,)
        param_names = ("period_ms",)

        def plans_for(self, fault, config, registry):
            return [
                InjectionPlan(
                    fault,
                    warmup_ms=INJECTION_WARMUP_MS,
                    params=make_params(period_ms=5_000.0),
                )
            ]

    digest_before = fault_models_digest()
    try:
        register(RestartStorm())
        assert model_for("test_restart_storm").char == "R"
        assert "test_restart_storm" in expand_kinds("all")
        assert fault_models_digest() != digest_before
        fault = FaultKey("env.node.n1", "test_restart_storm")
        plan = model_for("test_restart_storm").plans_for(fault, CSnakeConfig(), None)[0]
        assert plan.param("period_ms") == 5_000.0
    finally:
        from repro.faults import _MODELS

        _MODELS.pop("test_restart_storm", None)
