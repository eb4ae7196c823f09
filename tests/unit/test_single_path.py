"""One way an experiment runs: resolve → execute → store → commit.

Serial, process, remote and agent execution share one path through
``ExperimentDriver``; these tests pin what that buys — the same parent
cache counters, the same on-disk entries and the same digest whatever
the backend, ``run_experiment`` as a batch of one, store-as-you-go, and
one worker entry point behind both the process pool and the agent.
"""

import contextlib
import dataclasses
import json
import os

import pytest

from repro.cache import ResultKey, records
from repro.config import CSnakeConfig
from repro.core.driver import ExperimentDriver, ExperimentTask, execute_experiment_task
from repro.faults import model_for
from repro.pipeline import Pipeline, ProcessExecutor, SerialExecutor
from repro.serialize import edge_to_obj, task_result_to_obj, task_to_obj
from repro.service.agent import execute_wire_task
from repro.service.manager import ManagerCore, campaign_digest
from repro.service.remote import RemoteExecutor
from repro.systems import get_system
from repro.types import DELAY, NEGATION, FaultKey
from tests.helpers import agent_thread, stored, stored_kinds

SMOKE = dict(repeats=2, delay_values_ms=(2000.0,), seed=7, budget_per_fault=2)

PAIRS = [
    (FaultKey("toy.server.process_batch", DELAY), "toy.big_batches"),
    (FaultKey("toy.server.is_stale", NEGATION), "toy.balancer"),
    (FaultKey("toy.server.process_batch", DELAY), "toy.balancer"),
]


def _entries(root):
    """Key -> record bytes of every cache entry under ``root`` (profile
    and experiment alike), each written once."""
    entries = stored(root)
    assert all(len(found) == 1 for found in entries.values()), "an entry written twice"
    return {key: found[0] for key, found in entries.items()}


def _counters(driver):
    stats = driver.cache.stats()
    return {k: stats[k] for k in ("hits", "misses", "stores")}


@contextlib.contextmanager
def _executor(backend):
    """One backend's executor; remote is an in-process manager core
    served by an in-thread agent and its worker processes."""
    if backend == "serial":
        yield SerialExecutor()
    elif backend == "process":
        with ProcessExecutor(2) as executor:
            yield executor
    else:
        core = ManagerCore(lease_ttl_s=10.0)
        agent, thread = agent_thread(core, workers=2, name="single-path")
        try:
            yield RemoteExecutor(core)
        finally:
            agent.stop()
            thread.join(timeout=10.0)


def _cold_then_warm(backend, root):
    config = CSnakeConfig(cache_dir=str(root), **SMOKE)
    out = {}
    try:
        with _executor(backend) as executor:
            for temperature in ("cold", "warm"):
                ctx = Pipeline.default(get_system("toy"), config, executor=executor).run()
                out[temperature] = (_counters(ctx.driver), campaign_digest(ctx))
    except (ImportError, OSError, PermissionError) as exc:
        pytest.skip("%s backend unavailable: %s" % (backend, exc))
    return out, _entries(root)


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    return _cold_then_warm("serial", tmp_path_factory.mktemp("serial-cache"))


@pytest.mark.parametrize("backend", ["serial", "process", "remote"])
def test_parent_counters_entries_and_digest_equal_across_backends(
    backend, serial_reference, tmp_path
):
    runs, entries = _cold_then_warm(backend, tmp_path / "cache")
    reference, reference_entries = serial_reference
    assert runs == reference
    assert entries == reference_entries  # same keys, same bytes
    counted = len(entries)
    cold, warm = runs["cold"][0], runs["warm"][0]
    assert cold["hits"] == 0 and cold["stores"] == cold["misses"] == counted
    assert warm == {"hits": counted, "misses": 0, "stores": 0}
    assert runs["cold"][1] == runs["warm"][1]


def test_a_process_campaign_writes_each_entry_once(tmp_path):
    """Workers store the entries a batch fans out to them; the parent's
    store of each finds the worker's record on disk and appends nothing,
    yet counts it, as a serial campaign does.  Each append, in whichever
    process, is one record, so the records count the writes: one per
    entry (the parent alone used to write all 57 of this campaign again)."""
    root = tmp_path / "cache"
    config = CSnakeConfig(seed=7, repeats=2, budget_per_fault=2, cache_dir=str(root))
    try:
        with ProcessExecutor(2) as executor:
            ctx = Pipeline.default(get_system("minidfs"), config, executor=executor).run()
    except (ImportError, OSError, PermissionError) as exc:
        pytest.skip("process backend unavailable: %s" % exc)
    on_disk = list(records(root))
    assert len(on_disk) == len({record.key for record in on_disk}) == 57
    assert ctx.driver.cache.stats()["stores"] == len(on_disk)
    parent = "%d-" % os.getpid()
    by_workers = [r for r in on_disk if not os.path.basename(r.segment).startswith(parent)]
    assert len(by_workers) > len(on_disk) // 2


class _OtherDisk(SerialExecutor):
    """Fans a batch out to workers that cannot see the submitter's cache
    directory, as an agent on another host cannot: each task runs in a
    driver whose config names a directory of its own."""

    max_workers = 2

    def __init__(self, root):
        self.root = root

    def map(self, fn, items):
        out = []
        for task in items:
            config = dict(json.loads(task.config_json), cache_dir=str(self.root))
            out.append(fn(dataclasses.replace(task, config_json=json.dumps(config, sort_keys=True))))
        return out


def test_the_submitter_stores_what_its_workers_stored_out_of_its_sight(
    serial_reference, tmp_path
):
    """Results from workers on another disk are written by the submitter:
    its directory ends up with every entry, once, as a serial campaign's."""
    config = CSnakeConfig(cache_dir=str(tmp_path / "cache"), **SMOKE)
    ctx = Pipeline.default(get_system("toy"), config, executor=_OtherDisk(tmp_path / "far")).run()
    reference, reference_entries = serial_reference
    assert _counters(ctx.driver) == reference["cold"][0]
    assert _entries(tmp_path / "cache") == reference_entries
    assert stored_kinds(tmp_path / "far").count("experiment") > 0


def test_run_experiment_is_a_batch_of_one(tmp_path):
    fault, test_id = PAIRS[0]

    def drive(root, call):
        driver = ExperimentDriver(get_system("toy"), CSnakeConfig(cache_dir=str(root), **SMOKE))
        call(driver)
        return (
            [edge_to_obj(e) for e in driver.edges.all_edges()],
            (driver.experiments_run, driver.runs_executed, len(driver.results)),
            _counters(driver),
            _entries(root),
        )

    one = drive(tmp_path / "one", lambda d: d.run_experiment(fault, test_id))
    batch = drive(tmp_path / "batch", lambda d: d.run_experiments([(fault, test_id)]))
    assert one == batch
    assert one[1][0] == 1 and one[2] == {"hits": 0, "misses": 2, "stores": 2}


def test_serial_batch_stores_each_experiment_before_the_next(tmp_path):
    """Store-as-you-go: a batch that dies on its third experiment leaves
    the first two on disk (and a resumed campaign replays them)."""
    root = tmp_path / "cache"
    driver = ExperimentDriver(get_system("toy"), CSnakeConfig(cache_dir=str(root), **SMOKE))
    pure = driver.execute_experiment
    calls = []

    def third_raises(fault, test_id):
        calls.append((fault, test_id))
        if len(calls) == 3:
            raise RuntimeError("boom")
        return pure(fault, test_id)

    driver.execute_experiment = third_raises
    with pytest.raises(RuntimeError, match="boom"):
        driver.run_experiments(PAIRS)
    assert calls == PAIRS
    assert stored_kinds(root).count("experiment") == 2
    assert driver.experiments_run == 0  # nothing commits out of a failed batch

    resumed = ExperimentDriver(get_system("toy"), CSnakeConfig(cache_dir=str(root), **SMOKE))
    resumed.run_experiments(PAIRS[:2])
    assert _counters(resumed) == {"hits": 2, "misses": 0, "stores": 0}


def test_agent_and_process_worker_execute_through_one_entry_point(tmp_path):
    spec = get_system("toy")
    fault, test_id = PAIRS[0]

    def task(root):
        config = CSnakeConfig(cache_dir=str(root), **SMOKE)
        plans = tuple(model_for(fault.kind).plans_for(fault, config, spec.registry))
        return ExperimentTask(
            "toy", test_id, json.dumps(config.to_dict(), sort_keys=True), fault, plans,
            key=ResultKey(spec, config)(test_id, fault, plans),
        )

    try:
        with ProcessExecutor(2) as pool:
            (worker_result,) = pool.map(execute_experiment_task, [task(tmp_path / "worker")])
    except (ImportError, OSError, PermissionError) as exc:
        pytest.skip("process backend unavailable: %s" % exc)
    outcome, cache = execute_wire_task(task_to_obj(task(tmp_path / "agent")))

    envelope = outcome["result"]
    assert envelope == task_result_to_obj(worker_result)
    assert envelope["kind"] == "experiment"
    assert _entries(tmp_path / "agent") == _entries(tmp_path / "worker")
    assert stored_kinds(tmp_path / "agent") == stored_kinds(tmp_path / "worker")
    assert stored_kinds(tmp_path / "agent") == ["experiment", "profile"]
    assert (cache["hits"], cache["misses"], cache["stores"]) == (0, 2, 2)
    # Re-executing the task (a re-queued lease) replays the stored entry;
    # the counters are each task's own change to them.
    again, cache = execute_wire_task(task_to_obj(task(tmp_path / "agent")))
    assert again == outcome
    assert (cache["hits"], cache["misses"], cache["stores"]) == (1, 0, 0)
