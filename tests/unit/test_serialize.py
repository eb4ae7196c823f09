"""Round-trip tests for the JSON codecs and report serialization."""

import json

import pytest

from repro.core.report import DetectionReport
from repro.instrument.plan import InjectionPlan
from repro.serialize import (
    cycle_from_obj,
    cycle_to_obj,
    edge_from_obj,
    edge_to_obj,
    fault_from_obj,
    fault_to_obj,
    group_from_obj,
    group_to_obj,
    trace_from_obj,
    trace_to_obj,
)
from repro.core.cycles import Cycle
from repro.instrument.trace import FaultEvent
from repro.types import EdgeType

from tests.helpers import dly, edge, exc, group, neg, run_trace, state


def _via_json(obj):
    """Force a real JSON round-trip so non-serializable types surface."""
    return json.loads(json.dumps(obj))


def test_fault_key_roundtrip():
    for fault in (exc("a.b.c"), dly("x.loop"), neg("svc.is_ok")):
        assert fault_from_obj(_via_json(fault_to_obj(fault))) == fault


def test_fault_key_roundtrip_with_colon_free_sites():
    fault = exc("ns.op.throw")
    assert fault_to_obj(fault) == "ns.op.throw:exception"


def test_edge_roundtrip_preserves_states():
    e = edge(
        exc("a"),
        dly("b"),
        etype=EdgeType.SP_I,
        test_id="t9",
        src_states=[state(("f1", "f0"), (("br", True),))],
        dst_states=[state(("g1", "g0")), state(("h1", "h0"))],
    )
    back = edge_from_obj(_via_json(edge_to_obj(e)))
    assert back == e
    assert back.src_states == e.src_states
    assert back.dst_states == e.dst_states


def test_trace_roundtrip():
    plan = InjectionPlan(dly("loop.site"), delay_ms=500.0, warmup_ms=100.0)
    trace = run_trace(
        test_id="t1",
        injection=plan,
        events=[FaultEvent(fault=exc("a"), state=state(), injected=False)],
        loop_counts={"loop.site": 17},
        loop_states={"loop.site": [state(("l1", "l0"))]},
    )
    trace.saturated = True
    back = trace_from_obj(_via_json(trace_to_obj(trace)))
    assert back == trace
    assert back.test_id == trace.test_id
    assert back.injection == plan
    assert back.events == trace.events
    assert back.loop_counts == trace.loop_counts
    assert back.loop_states == trace.loop_states
    assert back.reached == trace.reached
    assert back.saturated


def test_round_trip_from_obj():
    """Several events, a stateless loop site, and a site reached without a
    count all survive, and the round-tripped trace serializes identically."""
    trace = run_trace(
        test_id="t1",
        events=[
            FaultEvent(exc("t.ioe"), state(), injected=False),
            FaultEvent(exc("t.ioe"), state(("g1", "g0")), injected=True),
        ],
        loop_counts={"t.outer": 5, "t.inner": 6, "t.bare": 1},
        loop_states={
            "t.outer": [state(branches=(("t.cond", True),))],
            "t.inner": [state()],
        },
    )
    trace.reached.add("t.check")
    back = trace_from_obj(trace_to_obj(trace))
    assert back == trace
    assert trace_to_obj(back) == trace_to_obj(trace)


def _toy_workload_trace():
    from repro.core.driver import seed_for, run_workload
    from repro.systems import get_system

    spec = get_system("toy")
    test_id = spec.workload_ids()[0]
    return run_workload(spec, spec.workloads[test_id], None, seed_for(test_id, 0, 7))


def test_workload_trace_round_trip():
    """A real simulated run must survive serialize round-trip unchanged."""
    trace = _toy_workload_trace()
    back = trace_from_obj(trace_to_obj(trace))
    assert back == trace
    assert back.natural_faults() == trace.natural_faults()
    assert sorted(back.loop_counts.items()) == sorted(trace.loop_counts.items())
    assert back.reached == trace.reached
    assert json.dumps(trace_to_obj(back), sort_keys=True) == json.dumps(
        trace_to_obj(trace), sort_keys=True
    )


def test_workload_trace_pickles():
    """Profile run groups cross the process/remote boundary pickled."""
    import pickle

    trace = _toy_workload_trace()
    assert pickle.loads(pickle.dumps(trace)) == trace


def test_group_roundtrip_preserves_statistics():
    g = group(
        "t1",
        None,
        [
            run_trace("t1", loop_counts={"l": 3}),
            run_trace("t1", loop_counts={"l": 5}),
        ],
    )
    back = group_from_obj(_via_json(group_to_obj(g)))
    assert back.loop_samples("l") == g.loop_samples("l")
    assert back.coverage() == g.coverage()


def test_cycle_roundtrip_keeps_identity():
    cycle = Cycle((edge(exc("a"), dly("b")), edge(dly("b"), exc("a"), etype=EdgeType.SP_D)))
    back = cycle_from_obj(_via_json(cycle_to_obj(cycle)))
    assert back.key() == cycle.key()
    assert back.signature() == cycle.signature()


def test_detection_report_dict_roundtrip_on_real_campaign():
    from repro.config import CSnakeConfig
    from repro.pipeline import Pipeline
    from repro.systems import get_system

    report = Pipeline(
        get_system("toy"),
        CSnakeConfig(repeats=2, delay_values_ms=(2000.0,), seed=7, budget_per_fault=2),
    ).run().get("report")
    obj = _via_json(report.to_dict())
    back = DetectionReport.from_dict(obj)
    assert back.to_dict() == report.to_dict()
    assert back.summary() == report.summary()
    assert back.detected_bugs == report.detected_bugs
    assert [c.key() for c in back.cycles] == [c.key() for c in report.cycles]


def test_report_dict_has_stable_summary_block():
    report = DetectionReport(system="toy")
    obj = report.to_dict()
    assert obj["summary"]["bugs_total"] == 0
    assert DetectionReport.from_dict(obj).system == "toy"


def test_report_dict_without_aborted_step_limit_is_rejected():
    # reports are read back only by the version that wrote them: no defaults
    obj = DetectionReport(system="toy").to_dict()
    del obj["aborted_step_limit"]
    with pytest.raises(KeyError, match="aborted_step_limit"):
        DetectionReport.from_dict(obj)
