"""Unit tests for the pipeline framework: stage DAG validation, context,
executors, and events."""

import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.config import CSnakeConfig
from repro.errors import MissingArtifact, StageDependencyError
from repro.pipeline import (
    EventRecorder,
    Pipeline,
    PipelineContext,
    ProcessExecutor,
    SerialExecutor,
    Stage,
    default_stages,
    make_executor,
)
from repro.pipeline.events import (
    STAGE_CACHED,
    STAGE_FINISHED,
    STAGE_STARTED,
)
from repro.systems import get_system

FAST = dict(repeats=2, delay_values_ms=(2000.0,), seed=7, budget_per_fault=1)


def fast_config(**overrides):
    params = dict(FAST)
    params.update(overrides)
    return CSnakeConfig(**params)


class _Produce(Stage):
    def __init__(self, name, requires=(), provides=()):
        self.name = name
        self.requires = tuple(requires)
        self.provides = tuple(provides)

    def run(self, ctx):
        for name in self.requires:
            ctx.require(name)
        for name in self.provides:
            ctx.put(name, "value-of-%s" % name)


# ---------------------------------------------------------------- validation


def test_default_stage_graph_is_valid():
    Pipeline(get_system("toy"), fast_config())  # validates in __init__


def test_unsatisfied_requires_rejected_before_running():
    stages = [_Produce("b", requires=("alpha",), provides=("beta",))]
    with pytest.raises(StageDependencyError, match="alpha"):
        Pipeline(get_system("toy"), fast_config(), stages=stages)


def test_order_matters_for_requires():
    bad = [
        _Produce("late", requires=("early-out",), provides=("late-out",)),
        _Produce("early", provides=("early-out",)),
    ]
    with pytest.raises(StageDependencyError):
        Pipeline(get_system("toy"), fast_config(), stages=bad)
    good = list(reversed(bad))
    ctx = Pipeline(get_system("toy"), fast_config(), stages=good).run()
    assert ctx.get("late-out") == "value-of-late-out"


def test_duplicate_stage_names_rejected():
    stages = [_Produce("x", provides=("a",)), _Produce("x", provides=("b",))]
    with pytest.raises(StageDependencyError, match="duplicate"):
        Pipeline(get_system("toy"), fast_config(), stages=stages)


def test_stage_must_provide_what_it_promises():
    class Liar(Stage):
        name = "liar"
        provides = ("thing",)

        def run(self, ctx):
            pass

    with pytest.raises(StageDependencyError, match="without providing"):
        Pipeline(get_system("toy"), fast_config(), stages=[Liar()]).run()


def test_partial_stage_prefix_runs():
    stages = [s for s in default_stages() if s.name in ("analyze", "profile")]
    ctx = Pipeline(get_system("toy"), fast_config(), stages=stages).run()
    assert ctx.has("analysis") and ctx.has("profiles")
    assert not ctx.has("report")


def test_beam_stage_alone_is_rejected():
    stages = [s for s in default_stages() if s.name == "search"]
    with pytest.raises(StageDependencyError, match="allocation"):
        Pipeline(get_system("toy"), fast_config(), stages=stages)


# ------------------------------------------------------------------- context


def test_context_require_raises_missing_artifact():
    ctx = PipelineContext(get_system("toy"), fast_config())
    with pytest.raises(MissingArtifact, match="analysis"):
        ctx.require("analysis")
    ctx.put("analysis", object())
    assert ctx.has("analysis")


# ----------------------------------------------------------------- executors


def test_make_executor_picks_backend():
    assert isinstance(make_executor(1), SerialExecutor)
    assert isinstance(make_executor(3, "serial"), SerialExecutor)
    parallel = make_executor(3)
    assert isinstance(parallel, ProcessExecutor)
    parallel.close()


def test_removed_thread_backend_is_an_unknown_backend():
    from repro.errors import ConfigError

    with pytest.raises(ValueError, match="unknown executor backend 'thread'"):
        make_executor(2, "thread")
    with pytest.raises(ConfigError, match="experiment_backend must be"):
        fast_config(experiment_backend="thread")


# Worker processes import what they run by name: module-level callables only.
def _square(x):
    return x * x


def _boom(x):
    raise ValueError("worker %d" % x)


def test_executors_preserve_input_order():
    items = list(range(20))
    serial = SerialExecutor().map(_square, items)
    with ProcessExecutor(4) as pool:
        parallel = pool.map(_square, items)
    assert serial == parallel == [x * x for x in items]


def test_parallel_executor_propagates_worker_errors():
    with ProcessExecutor(2) as pool:
        with pytest.raises(ValueError, match="worker 1"):
            pool.map(_boom, [1, 2, 3])


def _boom_on_zero_else_sleep(x):
    if x == 0:
        raise ValueError("task %d" % x)
    time.sleep(0.25)
    return x


def test_a_failing_task_cancels_the_rest_of_its_batch():
    with ProcessExecutor(2) as pool:
        pool.map(_square, [1, 2])  # worker start-up is not what is timed
        started = time.perf_counter()
        with pytest.raises(ValueError, match="task 0"):
            pool.map(_boom_on_zero_else_sleep, range(21))
        # The same pool serves the next batch, and without first working
        # through the failed one: the 20 queued sleeps are 2.5 s over two
        # workers, and only the few already handed to a worker may still run.
        assert pool.map(_square, [3, 4, 5]) == [9, 16, 25]
        assert time.perf_counter() - started < 1.25


def _die(x):
    os._exit(1)


def test_a_dead_worker_breaks_its_batch_not_the_executor():
    with ProcessExecutor(2) as pool:
        with pytest.raises(BrokenProcessPool):
            pool.map(_die, [1])
        # ``BrokenProcessPool`` is for good on a pool; the executor opens
        # another one (it used to raise here again, and on every later map).
        assert pool.map(_square, [3, 4, 5]) == [9, 16, 25]


# -------------------------------------------------------------------- events


def test_stage_events_emitted_in_order():
    recorder = EventRecorder()
    stages = [_Produce("one", provides=("a",)), _Produce("two", requires=("a",), provides=("b",))]
    Pipeline(get_system("toy"), fast_config(), stages=stages, observers=[recorder]).run()
    assert recorder.kinds("one") == [STAGE_STARTED, STAGE_FINISHED]
    assert recorder.kinds("two") == [STAGE_STARTED, STAGE_FINISHED]


def test_already_computed_artifacts_skip_the_stage():
    recorder = EventRecorder()
    stages = [_Produce("one", provides=("a",))]
    pipeline = Pipeline(get_system("toy"), fast_config(), stages=stages, observers=[recorder])
    pipeline.ctx.put("a", "precomputed")
    pipeline.run()
    assert recorder.kinds("one") == [STAGE_CACHED]
    assert pipeline.ctx.get("a") == "precomputed"


def test_config_rejects_bad_delay_values():
    from repro.errors import ConfigError

    for bad in ((float("nan"),), (-100.0,), (0.0,), (250.0, float("inf"))):
        with pytest.raises(ConfigError):
            fast_config(delay_values_ms=bad)
