"""The code-slice analysis as a cached, content-addressed result.

A campaign with a cache directory slices a system's source once: its
analyze stage looks the analysis up under a digest of everything it is a
function of, slices and stores on a miss, and prunes with the result.
Nothing else slices: no result key, no driver's construction and no
worker.  Pinned here: a replayed record equals a fresh one, every key
component misses when it changes (and nothing else does), a bad entry
falls back to a fresh analysis and is rewritten, racing analyze stages
slice once, keys and workers never call the slicer, and no campaign
computes the normalized digests, which only ``repro diff-run`` and
``repro analyze`` read.
"""

import copy
import dataclasses
import json
import sys
import threading
from pathlib import Path

import pytest

import repro.analysis
import repro.analysis.astutil
import repro.cache
from examples.diffrun.edit_miniraft import make_edited_tree
from repro.analysis import TreeSource, analyze_system, live_sources, source_digests
from repro.cache import ExperimentCache, ResultKey, records
from repro.config import CSnakeConfig
from repro.core.driver import ExperimentTask, execute_experiment_task, worker_driver
from repro.instrument.plan import InjectionPlan
from repro.pipeline import Pipeline, stages
from repro.pipeline.context import PipelineContext
from repro.systems import available_systems, get_system
from repro.systems.base import SystemSpec
from repro.types import DELAY, FaultKey
from tests.helpers import edited_source, live_slices, rewrite_record, stored

pytestmark = pytest.mark.contract

REPO_ROOT = Path(__file__).resolve().parents[2]
SMOKE = dict(repeats=2, delay_values_ms=(2000.0,), seed=7, budget_per_fault=2)


def _cache(root, spec):
    return ExperimentCache(root, spec, CSnakeConfig(cache_dir=str(root)))


def _slices_records(root):
    """Every ``slices`` record under ``root``."""
    return [r for r in records(root) if json.loads(r.entry)["kind"] == "slices"]


@pytest.fixture
def pruned_with(monkeypatch):
    """The slice analysis each analyze stage pruned the fault space with,
    in call order."""
    seen = []
    analyze = stages.analyze

    def spy(registry, kinds, slices=None):
        seen.append(slices)
        return analyze(registry, kinds, slices=slices)

    monkeypatch.setattr(stages, "analyze", spy)
    return seen


def _analyzed(system, config):
    """A fresh campaign context of ``system`` after its analyze stage."""
    ctx = PipelineContext(get_system(system), config)
    stages.analyze_stage(ctx)
    return ctx


@pytest.mark.parametrize("system", available_systems())
def test_a_replayed_analysis_equals_a_fresh_one(system, tmp_path):
    spec = get_system(system)
    fresh = analyze_system(spec, live_sources(spec.source_modules))
    cache = _cache(tmp_path, spec)
    key = cache.slices_key()
    assert cache.lookup_slices(key) is None and cache.slices is None
    cache.store_slices(key, fresh)
    assert cache.slices == "recomputed"
    replayed = cache.lookup_slices(key)
    assert cache.slices == "replayed"
    assert replayed == fresh  # the whole record
    assert replayed.timings == {}  # timings describe a pass; none ran
    timeless = {k: v for k, v in fresh.stats().items() if not k.startswith("wall_")}
    assert replayed.stats() == timeless
    assert (cache.hits, cache.misses, cache.stores) == (0, 0, 0)


@pytest.mark.parametrize("system", ["toy", "miniraft"])
def test_every_key_component_misses_when_it_changes(system, tmp_path, monkeypatch):
    spec = get_system(system)
    base = _cache(tmp_path, spec)
    key = base.slices_key()
    assert key == _cache(tmp_path, get_system(system)).slices_key()
    # Campaign config is no part of it: every campaign shares the entry.
    other_config = ExperimentCache(tmp_path, spec, CSnakeConfig(seed=99, repeats=5))
    assert other_config.slices_key() == key

    keys = {"base": key}
    module = sorted(spec.source_modules)[0].replace(".", "/")[len("repro/"):] + ".py"
    for what, rel in (("module bytes", module), ("analyzer source", "analysis/slicer.py")):
        with monkeypatch.context() as patch:
            patch.setattr(repro.cache, "SOURCE_ROOT", edited_source(tmp_path / what, rel))
            keys[what] = _cache(tmp_path, spec).slices_key()

    grown = copy.deepcopy(spec.registry)
    grown.loop("memo.new.loop", "Nowhere.new_method")
    one_more_site = SystemSpec(
        name=spec.name, registry=grown, workloads=spec.workloads,
        source_modules=spec.source_modules,
    )
    keys["a site added"] = _cache(tmp_path, one_more_site).slices_key()

    def other_entry(env, rt):  # a workload body nothing else uses
        return None

    workloads = dict(spec.workloads)
    first = spec.workload_ids()[0]
    workloads[first] = dataclasses.replace(workloads[first], setup=other_entry)
    moved = SystemSpec(
        name=spec.name, registry=spec.registry, workloads=workloads,
        source_modules=spec.source_modules,
    )
    keys["an entry function changed"] = _cache(tmp_path, moved).slices_key()

    interpreter = _cache(tmp_path, spec)
    interpreter.python = (interpreter.python[0], interpreter.python[1] + 1)
    keys["interpreter minor"] = interpreter.slices_key()

    assert len(set(keys.values())) == len(keys), keys


def test_editing_a_module_stores_a_second_entry_and_a_comment_keeps_the_analysis(
    tmp_path, monkeypatch
):
    root = tmp_path / "cache"
    config = CSnakeConfig(cache_dir=str(root), **SMOKE)
    _analyzed("miniraft", config)
    assert len(_slices_records(root)) == 1

    spec = get_system("miniraft")
    cache = _cache(root, spec)
    assert cache.lookup_slices(cache.slices_key()) is not None
    edited_root = make_edited_tree(tmp_path / "edited", REPO_ROOT)
    monkeypatch.setattr(repro.cache, "SOURCE_ROOT", edited_root / "src")
    cache = _cache(root, spec)  # a cache reads its tree's bytes once
    assert cache.lookup_slices(cache.slices_key()) is None

    # A comment-only edit of a target module is a different file (the key
    # misses, the module is sliced again) but the same code: the analysis
    # comes out unchanged.
    commented = edited_source(
        tmp_path / "commented", "systems/miniraft/nodes.py", "# a comment\n"
    )
    monkeypatch.setattr(repro.cache, "SOURCE_ROOT", commented)
    cache = _cache(root, spec)
    key = cache.slices_key()
    assert cache.lookup_slices(key) is None
    again = analyze_system(spec, TreeSource(commented.parent).sources(spec.source_modules))
    cache.store_slices(key, again)
    assert len(_slices_records(root)) == 2
    assert again == live_slices(spec)


@pytest.mark.parametrize(
    "damage",
    [
        lambda entry: "{not json",
        lambda entry: "[]",
        lambda entry: json.dumps(dict(json.loads(entry), kind="profile")),
        lambda entry: json.dumps({k: v for k, v in json.loads(entry).items() if k != "data"}),
    ],
    ids=["truncated", "not-an-object", "wrong-kind", "no-data"],
)
def test_a_bad_entry_falls_back_to_a_fresh_analysis_and_is_rewritten(
    damage, tmp_path, pruned_with
):
    config = CSnakeConfig(cache_dir=str(tmp_path), **SMOKE)
    first = _analyzed("toy", config)
    assert first.driver.cache.slices == "recomputed"
    (record,) = _slices_records(tmp_path)
    valid = record.entry.decode()
    rewrite_record(tmp_path, record.key, damage(valid))

    second = _analyzed("toy", config)
    assert second.driver.cache.slices == "recomputed"
    assert pruned_with[1] == pruned_with[0]
    assert sorted(stored(tmp_path)[record.key]) == sorted([damage(valid).encode(), record.entry])
    assert _analyzed("toy", config).driver.cache.slices == "replayed"


def test_the_analyze_stage_prunes_with_what_it_replayed_and_the_keys_agree(
    tmp_path, pruned_with
):
    config = CSnakeConfig(cache_dir=str(tmp_path), **SMOKE)
    cold = _analyzed("miniraft", config)
    warm = _analyzed("miniraft", config)
    assert (cold.driver.cache.slices, warm.driver.cache.slices) == ("recomputed", "replayed")
    assert pruned_with[1] == pruned_with[0] is not None
    assert warm.get("analysis") == cold.get("analysis")
    for test_id in cold.spec.workload_ids():
        assert warm.driver.cache.profile_key(test_id) == cold.driver.cache.profile_key(test_id)


def test_racing_threads_of_one_process_slice_once(tmp_path, pruned_with):
    """A manager's campaign threads run their analyze stages side by side;
    on a cold cache exactly one of them slices and stores, the rest
    replay its entry (two threads of one process must not parse
    concurrently, nor both append the entry)."""
    config = CSnakeConfig(cache_dir=str(tmp_path), **SMOKE)
    got, errors = [], []

    def analyze():
        try:
            got.append(_analyzed("toy", config))
        except Exception as exc:  # noqa: BLE001 - reported through the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=analyze, daemon=True) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert sorted(c.driver.cache.slices for c in got) == ["recomputed"] + ["replayed"] * 7
    assert all(slices == pruned_with[0] for slices in pruned_with) and len(pruned_with) == 8
    assert len(_slices_records(tmp_path)) == 1
    assert len(list(tmp_path.glob("*/*.seg"))) == 1


def test_no_key_and_no_worker_slices(tmp_path, monkeypatch):
    """Result keys read file bytes, never the slicer: a profile and an
    experiment key of every system, cache-less and through a cache, and a
    process-backend worker's driver executing a task, all with the slicer
    raising.  A cache directory gains no ``slices`` entry from any of it."""

    def no_slicing(*args, **kwargs):
        raise AssertionError("sliced")

    monkeypatch.setattr(repro.analysis, "analyze_system", no_slicing)
    config = CSnakeConfig(cache_dir=str(tmp_path), **SMOKE)
    for system in available_systems():
        spec = get_system(system)
        test_id = spec.workload_ids()[0]
        fault = FaultKey(min(site.site_id for site in spec.registry), DELAY)
        plans = [InjectionPlan(fault, delay_ms=2000.0)]
        cacheless = ResultKey(spec, CSnakeConfig(**SMOKE))
        cache = ExperimentCache(tmp_path, spec, config)
        assert cacheless(test_id) == cache.profile_key(test_id)
        assert cacheless(test_id, fault, plans) == cache.experiment_key(test_id, fault, plans)

    process = dataclasses.replace(config, experiment_backend="process", experiment_workers=2)
    task = ExperimentTask(
        system_name="toy",
        test_id=get_system("toy").workload_ids()[0],
        config_json=json.dumps(process.to_dict(), sort_keys=True),
    )
    driver = worker_driver(task)
    execute_experiment_task(task)
    assert driver.cache.slices is None and driver.cache.stores == 1
    assert _slices_records(tmp_path) == []


def test_no_campaign_digests_the_source(tmp_path, monkeypatch):
    """A cold campaign with a cache directory, which slices and stores the
    analysis, and a cache-less one, which slices afresh, both finish with
    the normalized AST dump that every digest is taken over raising."""

    def no_digesting(node):
        raise AssertionError("digested")

    monkeypatch.setattr(repro.analysis.astutil, "normalized_dump", no_digesting)
    with pytest.raises(AssertionError, match="digested"):
        source_digests(live_sources(get_system("toy").source_modules))

    config = CSnakeConfig(cache_dir=str(tmp_path), **SMOKE)
    cold = Pipeline.default(get_system("minihdfs2"), config).run()
    assert cold.driver.cache.slices == "recomputed"
    assert cold.get("report").runs_executed > 0
    cacheless = Pipeline.default(get_system("toy"), CSnakeConfig(**SMOKE)).run()
    assert cacheless.driver.cache is None
    assert cacheless.get("report").runs_executed > 0
