"""Unit tests for the compositional fault-schedule API.

Combinator semantics (timed/seq/overlap/stagger), schedules as entries
of the one fault-model registry, anchor-relative site resolution, plan
validation, and the graceful-degradation counter a runaway composed
injection feeds.
"""

import pytest

from repro.config import CSnakeConfig
from repro.core.driver import ExperimentDriver
from repro.core.report import build_report
from repro.errors import ConfigError
from repro.cli import _parse_schedules
from repro.faults import (
    INJECTION_WARMUP_MS,
    FaultModel,
    FaultSchedule,
    ScheduleFaultModel,
    expand_kinds,
    fault_models_digest,
    model_for,
    overlap,
    register,
    registered_kinds,
    registered_schedules,
    seq,
    stagger,
    timed,
)
from repro.sim import SimEnv
from repro.systems import get_system
from repro.types import FaultKey

CONFIG = CSnakeConfig()


# ------------------------------------------------------------- combinators


def test_timed_validates_kind_and_selector():
    ev = timed("node_crash", site="primary", restart_ms=5_000.0)
    assert ev.kind_id == "node_crash" and ev.duration_ms() == 5_000.0
    with pytest.raises(ValueError, match="registered single-fault kinds"):
        timed("gamma_burst")
    with pytest.raises(ValueError, match="site selector"):
        timed("node_crash", site="the_moon")


def test_schedule_names_are_not_composable_kinds():
    # Schedules compose *single-fault* kinds only: no recursion.
    with pytest.raises(ValueError, match="registered single-fault kinds"):
        timed("membership_churn")


def test_overlap_keeps_offsets():
    a = timed("node_crash", restart_ms=10_000.0)
    b = timed("partition", site="adjacent_link", offset_ms=3_000.0,
              duration_ms=20_000.0)
    assert overlap(a, b) == (a, b)
    with pytest.raises(ValueError):
        overlap()


def test_seq_chains_on_duration_params():
    a = timed("node_crash", restart_ms=10_000.0)
    b = timed("partition", site="adjacent_link", duration_ms=20_000.0)
    c = timed("node_crash", site="other_nodes", restart_ms=1_000.0)
    placed = seq(a, b, c, gap_ms=500.0)
    assert [ev.offset_ms for ev in placed] == [0.0, 10_500.0, 31_000.0]
    # An event's own offset is preserved relative to its slot.
    shifted = seq(a, timed("partition", site="adjacent_link",
                           offset_ms=2_000.0, duration_ms=20_000.0))
    assert shifted[1].offset_ms == 12_000.0


def test_stagger_sets_wave_step():
    wave = stagger(timed("node_crash", site="nodes", restart_ms=1_000.0),
                   step_ms=15_000.0)
    assert len(wave) == 1 and wave[0].stagger_ms == 15_000.0
    with pytest.raises(ValueError, match="positive"):
        stagger(timed("node_crash"), step_ms=0.0)


# ---------------------------------------------------------------- registry


def test_bundled_schedules_registered():
    assert registered_schedules() == ["membership_churn", "partition_during_restart"]
    assert model_for("membership_churn").schedule.char == "M"
    assert model_for("partition_during_restart").schedule.char == "R"


def test_schedules_are_registered_kinds_but_not_in_expand_kinds_all():
    # One registry: a schedule resolves like any kind (driver/FCA/serializer
    # path), but campaigns opt into schedules via config.schedules.
    assert registered_kinds()[-2:] == registered_schedules()
    assert "membership_churn" not in expand_kinds("all")
    assert isinstance(model_for("membership_churn"), ScheduleFaultModel)
    assert model_for("partition_during_restart").char == "R"


def test_expand_schedules_grammar():
    assert _parse_schedules("all") == tuple(registered_schedules())
    assert _parse_schedules("membership_churn") == ("membership_churn",)
    assert _parse_schedules(" membership_churn , partition_during_restart ") == (
        "membership_churn", "partition_during_restart",
    )
    with pytest.raises(ValueError, match="unknown fault kind"):
        _parse_schedules("quake")
    with pytest.raises(ValueError, match="at least one"):
        _parse_schedules("")
    # A registered single-fault kind parses, and the config rejects it.
    with pytest.raises(ConfigError, match="unknown fault schedule"):
        CSnakeConfig(schedules=_parse_schedules("delay"))


def test_schedule_may_not_shadow_a_fault_kind():
    delay = model_for("delay")
    with pytest.raises(ValueError, match="already registered"):
        register(
            ScheduleFaultModel(
                FaultSchedule(name="delay", char="Z", description="bad",
                              events=(timed("node_crash"),))
            )
        )

    class SecondPartition(FaultModel):
        kind_id = "partition"
        char = "Q"

    with pytest.raises(ValueError, match="already registered"):
        register(SecondPartition())
    assert model_for("delay") is delay and model_for("partition").char == "P"


def test_registering_a_schedule_shifts_the_fault_model_digest():
    from repro.faults import _MODELS

    before = fault_models_digest()
    register(
        ScheduleFaultModel(
            FaultSchedule(
                name="test_tmp_wave", char="W", description="temporary",
                events=(timed("node_crash", restart_ms=1.0),),
            )
        )
    )
    try:
        assert fault_models_digest() != before
        assert "test_tmp_wave" in registered_schedules()
        assert "test_tmp_wave" not in expand_kinds("all")
    finally:
        _MODELS.pop("test_tmp_wave")
    assert fault_models_digest() == before


# --------------------------------------------------------------- resolution


@pytest.fixture(scope="module")
def raft_registry():
    return get_system("miniraft").registry


def test_partition_during_restart_resolves_anchor_relative(raft_registry):
    model = model_for("partition_during_restart")
    events = model.resolve_events("env.node.raft1", raft_registry)
    assert events == (
        ("env.node.raft1", "node_crash", 0.0, (("restart_ms", 20_000.0),)),
        ("env.link.raft0~raft1", "partition", 5_000.0, (("duration_ms", 40_000.0),)),
    )


def test_membership_churn_resolves_as_rotated_wave(raft_registry):
    model = model_for("membership_churn")
    events = model.resolve_events("env.node.raft1", raft_registry)
    # Anchor node first, then declaration order rotated; 15s stagger.
    assert [(site, off) for site, _, off, _ in events] == [
        ("env.node.raft1", 0.0),
        ("env.node.raft2", 15_000.0),
        ("env.node.raft0", 30_000.0),
    ]
    assert all(kind == "node_crash" for _, kind, _, _ in events)


def test_resolution_scales_with_time_scale(raft_registry):
    model = model_for("membership_churn")
    events = model.resolve_events("env.node.raft0", raft_registry, scale=0.5)
    assert [off for _, _, off, _ in events] == [0.0, 7_500.0, 15_000.0]


def test_plans_carry_concrete_events_and_sites(raft_registry):
    model = model_for("partition_during_restart")
    fault = FaultKey("env.node.raft1", "partition_during_restart")
    plans = model.plans_for(fault, CONFIG, raft_registry)
    assert len(plans) == 1  # default time_scale sweep: the composition as declared
    assert plans[0].warmup_ms == INJECTION_WARMUP_MS
    sites = {plans[0].fault.site_id} | {site for site, _, _, _ in plans[0].param("events")}
    assert sorted(sites) == ["env.link.raft0~raft1", "env.node.raft1"]
    model.validate_plan(plans[0])


def test_anchor_must_be_an_env_node(raft_registry):
    model = model_for("membership_churn")
    with pytest.raises(ValueError, match="ENV_NODE"):
        model.resolve_events("env.link.raft0~raft1", raft_registry)


def test_validate_plan_rejects_malformed_events(raft_registry):
    from repro.instrument.plan import InjectionPlan, make_params

    model = model_for("membership_churn")
    fault = FaultKey("env.node.raft0", model.kind_id)
    # InjectionPlan validates via the model at construction time.
    with pytest.raises(ValueError, match="no events"):
        InjectionPlan(fault, warmup_ms=1.0, params=make_params(events=()))
    with pytest.raises(ValueError, match=">= 0"):
        InjectionPlan(
            fault, warmup_ms=1.0,
            params=make_params(events=(("env.node.raft0", "node_crash", -1.0, ()),)),
        )


# ---------------------------------------------- graceful degradation (abort)


def test_saturated_runs_count_as_aborted_not_raise(monkeypatch):
    spec = get_system("miniraft")
    config = CSnakeConfig(repeats=2, delay_values_ms=(500.0,), seed=7,
                          schedules=("partition_during_restart",))
    driver = ExperimentDriver(spec, config)
    fault = FaultKey("env.node.raft1", "partition_during_restart")
    monkeypatch.setattr(SimEnv, "MAX_EVENTS", 200)
    result, runs = driver.execute_experiment(fault, "raft.churn")
    assert runs == 2
    assert result.aborted == 2  # every repetition hit the step limit
    report = build_report(
        spec, [], None, aborted_step_limit=sum(r.aborted for r in [result])
    )
    assert report.summary()["aborted_step_limit"] == 2
    assert report.to_dict()["aborted_step_limit"] == 2
