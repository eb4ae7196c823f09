"""Contract of the knob declarations in ``repro.config``.

Table-driven from ``fields(CSnakeConfig)``: a field added later is covered
by being declared.  The two dump strings at the bottom were recorded on
the commit before the declarations replaced the ``__post_init__`` ladder;
they are what keeps every cache key and task digest where it is.
"""

import dataclasses
import json
import timeit

import pytest

from repro.bench.runners import bench_config
from repro.config import EXECUTION_ONLY_KNOBS, CSnakeConfig
from repro.errors import ConfigError

FIELDS = dataclasses.fields(CSnakeConfig)


def _as_field_value(f, number):
    """``number`` in the shape field ``f`` holds (its tuples are flat)."""
    return (number,) if isinstance(f.metadata["kind"], tuple) else number


def _bound_cases():
    """(field, value just outside a declared bound, value on the legal side)."""
    for f in FIELDS:
        step = 1 if f.metadata["kind"] is int else 1e-9
        for limit, _holds, reads in f.metadata["bounds"]:
            outside, inside = {
                ">=": (limit - step, limit),
                ">": (limit, limit + step),
                "<=": (limit + step, limit),
                "<": (limit, limit - step),
            }[reads]
            yield pytest.param(f, outside, inside, id="%s%s%r" % (f.name, reads, limit))


def _wrong_typed(f):
    kind = f.metadata["kind"]
    if isinstance(kind, tuple):
        wrong = [5, "x", [], (object(),)]
    else:
        wrong = {
            int: ["3", 2.5, True],
            float: ["3", True, (1.0,)],
            bool: [1, 0.0, "True"],
            str: [3, True, ("x",)],
        }[kind]
    return wrong if f.default is None else wrong + [None]


def test_defaults_validate_and_every_field_is_a_knob():
    CSnakeConfig()
    assert len(FIELDS) == 24
    for f in FIELDS:
        assert set(f.metadata) == {"kind", "doc", "execution_only", "sweep_of", "bounds"}
        assert f.metadata["doc"] and "%" not in f.metadata["doc"], f.name  # argparse help


@pytest.mark.parametrize("f,outside,inside", _bound_cases())
def test_declared_bounds_hold_and_name_the_field(f, outside, inside):
    CSnakeConfig(**{f.name: _as_field_value(f, inside)})
    with pytest.raises(ConfigError, match=f.name):
        CSnakeConfig(**{f.name: _as_field_value(f, outside)})


@pytest.mark.parametrize("f", [f for f in FIELDS if f.metadata["bounds"]], ids=lambda f: f.name)
def test_bounded_numbers_are_finite(f):
    if f.metadata["kind"] is int:
        return
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match=f.name):
            CSnakeConfig(**{f.name: _as_field_value(f, bad)})


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
def test_wrong_typed_values_are_rejected_never_coerced(f):
    for wrong in _wrong_typed(f):
        with pytest.raises(ConfigError, match=f.name):
            CSnakeConfig(**{f.name: wrong})


def test_an_int_will_do_for_a_float_and_stays_an_int():
    config = CSnakeConfig(p_value=0.5, injection_warmup_ms=5, delay_values_ms=(2000, 8000.0))
    assert config.to_dict()["delay_values_ms"] == [2000, 8000.0]
    assert json.dumps(config.to_dict()["injection_warmup_ms"]) == "5"  # not "5.0"


@pytest.mark.parametrize(
    "probe",
    [
        dict(point_event_min_frac=-1),
        dict(cluster_distance=-3),
        dict(injection_warmup_ms=float("nan")),
        dict(max_delay_faults=-2),
        dict(repeats=2.5),
        dict(repeats=True),
    ],
    ids=lambda p: next(iter(p)),
)
def test_values_the_ladder_let_through_are_config_errors(probe):
    with pytest.raises(ConfigError, match=next(iter(probe))):
        CSnakeConfig(**probe)


def test_execution_only_set_and_result_affecting_keys():
    assert set(EXECUTION_ONLY_KNOBS) == {
        "experiment_workers", "experiment_backend", "cache_dir", "manager_url",
    }
    assert sorted(CSnakeConfig().result_affecting()) == [
        "adaptive_budget", "beam_width", "budget_per_fault", "cluster_distance",
        "compat_check", "crash_restart_values_ms", "delay_values_ms", "drop_prob_values",
        "fault_kinds", "injection_warmup_ms", "max_chain_len", "max_delay_faults",
        "p_value", "partition_values_ms", "point_event_min_frac", "repeats", "schedules",
        "seed", "sticky_negation", "sweep_overrides",
    ]


def test_default_sweeps_are_held_to_their_fault_models_range():
    """One owner for sweep ranges: a default-sweep field fails exactly as a
    ``sweep_overrides`` entry for the same kind does."""
    for name, kind, bad in (
        ("drop_prob_values", "msg_drop", (5.0,)),
        ("partition_values_ms", "partition", (0.0,)),
        ("crash_restart_values_ms", "node_crash", (-1.0,)),
        ("crash_restart_values_ms", "node_crash", (float("inf"),)),
    ):
        with pytest.raises(ConfigError) as as_field:
            CSnakeConfig(**{name: bad})
        with pytest.raises(ConfigError) as as_override:
            CSnakeConfig(sweep_overrides=((kind, bad),))
        assert str(as_field.value).split(": ", 1) == [name, str(as_override.value).split(": ", 1)[1]]
    CSnakeConfig(crash_restart_values_ms=(0.0,))  # 0 = never restart: NodeCrashFault says so


@pytest.mark.parametrize(
    "obj,named",
    [
        ({"no_such_knob": 1}, "no_such_knob"),
        ({"repeats": "3"}, "repeats"),
        ({"drop_prob_values": [5.0]}, "drop_prob_values"),
        ({"delay_values_ms": 5}, "delay_values_ms"),
        ({"sweep_overrides": [["delay"]]}, "sweep_overrides"),
        ({"sweep_overrides": [["delay", [1.0], "extra"]]}, "sweep_overrides"),
        ({"fault_kinds": "delay"}, "fault_kinds"),
        ([["repeats", 3]], "JSON object"),
        (None, "JSON object"),
    ],
    ids=str,
)
def test_from_dict_turns_anything_malformed_into_a_config_error(obj, named):
    with pytest.raises(ConfigError, match=named):
        CSnakeConfig.from_dict(obj)


def test_from_dict_accepts_a_partial_dump():
    assert CSnakeConfig.from_dict({"seed": 7, "delay_values_ms": [250.0]}) == CSnakeConfig(
        seed=7, delay_values_ms=(250.0,)
    )


def test_one_construction_stays_cheap():
    """One per campaign, per worker process and per submitted task."""
    best = min(timeit.repeat(CSnakeConfig, number=200, repeat=5)) / 200
    assert best < 0.2e-3, "CSnakeConfig() took %.0f us" % (best * 1e6)


DEFAULT_DUMP = (
    '{"adaptive_budget": false, "beam_width": 10000, "budget_per_fault": 4, "cache_dir": null, '
    '"cluster_distance": 0.5, "compat_check": true, "crash_restart_values_ms": [10000.0, 40000.0], '
    '"delay_values_ms": [100.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0], '
    '"drop_prob_values": [0.3, 0.7], "experiment_backend": "process", "experiment_workers": 1, '
    '"fault_kinds": ["exception", "delay", "negation"], "injection_warmup_ms": 20000.0, '
    '"manager_url": null, "max_chain_len": 6, "max_delay_faults": null, "p_value": 0.1, '
    '"partition_values_ms": [15000.0, 45000.0], "point_event_min_frac": 0.4, "repeats": 5, '
    '"schedules": [], "seed": 1234, "sticky_negation": false, "sweep_overrides": []}'
)
BENCH_HDFS2_DUMP = (
    '{"adaptive_budget": false, "beam_width": 30000, "budget_per_fault": 10, "cache_dir": null, '
    '"cluster_distance": 0.5, "compat_check": true, "crash_restart_values_ms": [10000.0, 40000.0], '
    '"delay_values_ms": [250.0, 1000.0, 8000.0], "drop_prob_values": [0.3, 0.7], '
    '"experiment_backend": "process", "experiment_workers": 1, '
    '"fault_kinds": ["exception", "delay", "negation"], "injection_warmup_ms": 20000.0, '
    '"manager_url": null, "max_chain_len": 5, "max_delay_faults": null, "p_value": 0.1, '
    '"partition_values_ms": [15000.0, 45000.0], "point_event_min_frac": 0.4, "repeats": 3, '
    '"schedules": [], "seed": 7, "sticky_negation": false, "sweep_overrides": []}'
)


def test_dumps_are_byte_identical_to_the_recorded_ones():
    assert json.dumps(CSnakeConfig().to_dict(), sort_keys=True) == DEFAULT_DUMP
    assert json.dumps(bench_config("minihdfs2").to_dict(), sort_keys=True) == BENCH_HDFS2_DUMP
