"""Unit tests for fault causality analysis on synthetic run groups."""

import pytest

from repro.config import CSnakeConfig
from repro.core.fca import FaultCausalityAnalysis
from repro.instrument import InjectionPlan, SiteRegistry
from repro.types import EdgeType

from tests.helpers import dly, event, exc, group, neg, run_trace, state


@pytest.fixture
def registry():
    reg = SiteRegistry("toy")
    reg.loop("L1", "F.run")
    reg.loop("L2", "F.run", parent="L1", order=0)
    reg.loop("L3", "F.run", parent="L1", order=1)
    reg.throw("X", "F.step")
    reg.detector("N", "F.check")
    return reg


@pytest.fixture
def config():
    return CSnakeConfig(repeats=3, point_event_min_frac=0.4)


def make_fca(registry, config):
    return FaultCausalityAnalysis(registry, config)


def profile_group(test_id="t1", reps=3, loop_counts=None, events_fn=None):
    runs = []
    for i in range(reps):
        runs.append(
            run_trace(
                test_id=test_id,
                events=events_fn(i) if events_fn else (),
                loop_counts=loop_counts or {},
            )
        )
    return group(test_id, None, runs)


def test_additional_exception_creates_ei_edge(registry, config):
    fca = make_fca(registry, config)
    plan = InjectionPlan(neg("N"))
    profile = profile_group()
    injection = group(
        "t1",
        plan,
        [
            run_trace("t1", plan, events=[event(exc("X")), event(neg("N"), injected=True)])
            for _ in range(3)
        ],
    )
    result = fca.analyze(profile, injection)
    assert exc("X") in result.interference
    edges = [e for e in result.edges if e.dst == exc("X")]
    assert len(edges) == 1
    assert edges[0].etype is EdgeType.E_I
    assert edges[0].src == neg("N")


def test_delay_injection_gives_ed_edge_type(registry, config):
    fca = make_fca(registry, config)
    plan = InjectionPlan(dly("L1"), delay_ms=100.0)
    profile = profile_group(loop_counts={"L1": 10})
    injection = group(
        "t1",
        plan,
        [run_trace("t1", plan, events=[event(exc("X"))], loop_counts={"L1": 10}) for _ in range(3)],
    )
    result = fca.analyze(profile, injection)
    edges = [e for e in result.edges if e.dst == exc("X")]
    assert edges and edges[0].etype is EdgeType.E_D


def test_fault_present_in_profile_is_not_counterfactual(registry, config):
    fca = make_fca(registry, config)
    plan = InjectionPlan(neg("N"))
    profile = profile_group(events_fn=lambda i: [event(exc("X"))] if i == 0 else [])
    injection = group(
        "t1", plan, [run_trace("t1", plan, events=[event(exc("X"))]) for _ in range(3)]
    )
    result = fca.analyze(profile, injection)
    assert exc("X") not in result.interference


def test_rare_fault_below_threshold_ignored(registry, config):
    fca = make_fca(registry, config)
    plan = InjectionPlan(neg("N"))
    profile = profile_group()
    # Occurs in 1 of 3 runs = 0.33 < 0.4 threshold.
    injection = group(
        "t1",
        plan,
        [run_trace("t1", plan, events=[event(exc("X"))] if i == 0 else []) for i in range(3)],
    )
    result = fca.analyze(profile, injection)
    assert exc("X") not in result.interference


def test_loop_increase_gives_sp_edge(registry, config):
    fca = make_fca(registry, config)
    plan = InjectionPlan(neg("N"))
    profile = profile_group(loop_counts={"L1": 10})
    injection = group(
        "t1", plan, [run_trace("t1", plan, loop_counts={"L1": 30}) for _ in range(3)]
    )
    result = fca.analyze(profile, injection)
    assert dly("L1") in result.interference
    edges = [e for e in result.edges if e.dst == dly("L1")]
    assert edges[0].etype is EdgeType.SP_I


def test_loop_unchanged_no_edge(registry, config):
    fca = make_fca(registry, config)
    plan = InjectionPlan(neg("N"))
    profile = profile_group(loop_counts={"L1": 10})
    injection = group(
        "t1", plan, [run_trace("t1", plan, loop_counts={"L1": 10}) for _ in range(3)]
    )
    result = fca.analyze(profile, injection)
    assert dly("L1") not in result.interference


def test_loop_decrease_no_edge(registry, config):
    fca = make_fca(registry, config)
    plan = InjectionPlan(neg("N"))
    profile = profile_group(loop_counts={"L1": 30})
    injection = group(
        "t1", plan, [run_trace("t1", plan, loop_counts={"L1": 10}) for _ in range(3)]
    )
    result = fca.analyze(profile, injection)
    assert dly("L1") not in result.interference


def test_nested_loop_expansion_icfg_and_cfg(registry, config):
    fca = make_fca(registry, config)
    plan = InjectionPlan(neg("N"))
    profile = profile_group(loop_counts={"L1": 5, "L2": 10, "L3": 5})
    injection = group(
        "t1",
        plan,
        [
            run_trace("t1", plan, loop_counts={"L1": 5, "L2": 40, "L3": 5})
            for _ in range(3)
        ],
    )
    result = fca.analyze(profile, injection)
    icfg = [e for e in result.edges if e.etype is EdgeType.ICFG]
    cfg = [e for e in result.edges if e.etype is EdgeType.CFG]
    assert len(icfg) == 1
    assert icfg[0].src == dly("L2") and icfg[0].dst == dly("L1")
    assert len(cfg) == 1
    assert cfg[0].src == dly("L1") and cfg[0].dst == dly("L3")


def test_cfg_expansion_skips_unreached_siblings(registry, config):
    fca = make_fca(registry, config)
    plan = InjectionPlan(neg("N"))
    profile = profile_group(loop_counts={"L1": 5, "L2": 10})
    injection = group(
        "t1", plan, [run_trace("t1", plan, loop_counts={"L1": 5, "L2": 40}) for _ in range(3)]
    )
    result = fca.analyze(profile, injection)
    cfg = [e for e in result.edges if e.etype is EdgeType.CFG]
    assert cfg == []  # L3 never reached in the injection runs


def test_top_level_loop_has_no_expansion(registry, config):
    fca = make_fca(registry, config)
    plan = InjectionPlan(neg("N"))
    profile = profile_group(loop_counts={"L1": 5})
    injection = group(
        "t1", plan, [run_trace("t1", plan, loop_counts={"L1": 50}) for _ in range(3)]
    )
    result = fca.analyze(profile, injection)
    assert all(e.etype not in (EdgeType.ICFG, EdgeType.CFG) for e in result.edges)


def test_dst_states_collected_from_injection_runs(registry, config):
    fca = make_fca(registry, config)
    plan = InjectionPlan(neg("N"))
    st = state(("F.caller", "F.main"), (("b1", True),))
    profile = profile_group()
    injection = group(
        "t1", plan, [run_trace("t1", plan, events=[event(exc("X"), st=st)]) for _ in range(3)]
    )
    result = fca.analyze(profile, injection)
    assert result.edges[0].dst_states == frozenset({st})


def test_mismatched_tests_rejected(registry, config):
    fca = make_fca(registry, config)
    plan = InjectionPlan(neg("N"))
    profile = profile_group(test_id="t1")
    injection = group("t2", plan, [run_trace("t2", plan)])
    with pytest.raises(ValueError):
        fca.analyze(profile, injection)


def test_profile_as_injection_rejected(registry, config):
    fca = make_fca(registry, config)
    profile = profile_group()
    with pytest.raises(ValueError):
        fca.analyze(profile, profile)


def test_self_edge_allowed_for_natural_reoccurrence(registry, config):
    """An injected exception whose natural re-occurrence follows (retry
    hitting the same throw point) yields a self-edge — a 1-cycle."""
    fca = make_fca(registry, config)
    plan = InjectionPlan(exc("X"))
    profile = profile_group()
    injection = group(
        "t1",
        plan,
        [
            run_trace(
                "t1",
                plan,
                events=[event(exc("X"), injected=True), event(exc("X"))],
            )
            for _ in range(3)
        ],
    )
    result = fca.analyze(profile, injection)
    self_edges = [e for e in result.edges if e.src == exc("X") and e.dst == exc("X")]
    assert len(self_edges) == 1
