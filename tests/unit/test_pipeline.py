"""Unit tests for the pipeline framework: the runner, executors, and
events."""

import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.config import CSnakeConfig
from repro.pipeline import (
    EventRecorder,
    Pipeline,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.pipeline.events import (
    PIPELINE_FINISHED,
    PIPELINE_STARTED,
    STAGE_FINISHED,
    STAGE_STARTED,
)
from repro.service.manager import campaign_digest
from repro.systems import get_system

FAST = dict(repeats=2, delay_values_ms=(2000.0,), seed=7, budget_per_fault=1)

#: The stage names progress events carry; the benchmark's
#: ``pipeline.<stage>_s`` metrics are read by these names.
STAGE_NAMES = ("analyze", "profile", "allocate", "search", "report")


def fast_config(**overrides):
    params = dict(FAST)
    params.update(overrides)
    return CSnakeConfig(**params)


# -------------------------------------------------------------------- runner


def test_running_one_pipeline_twice_runs_the_campaign_twice():
    recorder = EventRecorder()
    pipeline = Pipeline(get_system("toy"), fast_config(), observers=[recorder])
    first = pipeline.run()
    second = pipeline.run()
    assert first is not second and first.driver is not second.driver
    assert campaign_digest(first) == campaign_digest(second)
    assert first.driver.experiments_run == second.driver.experiments_run > 0
    assert first.driver.runs_executed == second.driver.runs_executed > 0
    assert recorder.kinds().count(STAGE_FINISHED) == 2 * len(STAGE_NAMES)


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
    Pipeline(get_system("toy"), fast_config(), observers=[recorder]).run()
    expected = [(PIPELINE_STARTED, None)]
    for name in STAGE_NAMES:
        expected += [(STAGE_STARTED, name), (STAGE_FINISHED, name)]
    expected.append((PIPELINE_FINISHED, None))
    assert [(e.kind, e.stage) for e in recorder.events] == expected


def test_config_rejects_bad_delay_values():
    from repro.errors import ConfigError

    for bad in ((float("nan"),), (-100.0,), (0.0,), (250.0, float("inf"))):
        with pytest.raises(ConfigError):
            fast_config(delay_values_ms=bad)
