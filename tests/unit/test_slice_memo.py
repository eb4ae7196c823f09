"""The code-slice analysis as a cached, content-addressed result.

A campaign with a cache directory slices a system's source once: the
driver looks the analysis up under a digest of everything it is a
function of, slices and stores on a miss, and attaches the result to the
spec.  Pinned here: a replayed record equals a fresh one, every key
component misses when it changes (and nothing else does), a bad entry
falls back to a fresh analysis and is rewritten, and a spec that already
carries an analysis never touches the entry.
"""

import copy
import dataclasses
import json
from pathlib import Path

import pytest

from examples.diffrun.edit_miniraft import make_edited_tree
from repro.analysis import TreeSource, analyze_system
from repro.analysis.source import live_sources
from repro.cache import ExperimentCache
from repro.config import CSnakeConfig
from repro.core.driver import ExperimentDriver
from repro.systems import available_systems, get_system
from repro.systems.base import SystemSpec

pytestmark = pytest.mark.contract

REPO_ROOT = Path(__file__).resolve().parents[2]
SMOKE = dict(repeats=2, delay_values_ms=(2000.0,), seed=7, budget_per_fault=2)


def _cache(root, spec):
    return ExperimentCache(root, spec, CSnakeConfig(cache_dir=str(root)))


def _slices_files(root):
    return [
        p for p in sorted(root.glob("*/*.json")) if json.loads(p.read_text())["kind"] == "slices"
    ]


@pytest.mark.parametrize("system", available_systems())
def test_a_replayed_analysis_equals_a_fresh_one(system, tmp_path):
    spec = get_system(system)
    sources = live_sources(spec.source_modules)
    fresh = analyze_system(spec, sources)
    cache = _cache(tmp_path, spec)
    key = cache.slices_key(sources)
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
def test_every_key_component_misses_when_it_changes(system, tmp_path):
    spec = get_system(system)
    sources = live_sources(spec.source_modules)
    base = _cache(tmp_path, spec)
    key = base.slices_key(sources)
    assert key == _cache(tmp_path, get_system(system)).slices_key(dict(sources))
    # Campaign config is no part of it: every campaign shares the entry.
    other_config = ExperimentCache(tmp_path, spec, CSnakeConfig(seed=99, repeats=5))
    assert other_config.slices_key(sources) == key

    keys = {"base": key}
    module = sorted(sources)[0]
    keys["module text"] = base.slices_key(dict(sources, **{module: sources[module] + "\nX = 1\n"}))

    grown = copy.deepcopy(spec.registry)
    grown.loop("memo.new.loop", "Nowhere.new_method")
    one_more_site = SystemSpec(
        name=spec.name, registry=grown, workloads=spec.workloads,
        source_modules=spec.source_modules,
    )
    keys["a site added"] = _cache(tmp_path, one_more_site).slices_key(sources)

    def other_entry(env, rt):  # a workload body nothing else uses
        return None

    workloads = dict(spec.workloads)
    first = spec.workload_ids()[0]
    workloads[first] = dataclasses.replace(workloads[first], setup=other_entry)
    moved = SystemSpec(
        name=spec.name, registry=spec.registry, workloads=workloads,
        source_modules=spec.source_modules,
    )
    keys["an entry function changed"] = _cache(tmp_path, moved).slices_key(sources)

    analyzer = _cache(tmp_path, spec)
    analyzer.analyzer_digest = "0" * 64
    keys["analyzer source"] = analyzer.slices_key(sources)

    interpreter = _cache(tmp_path, spec)
    interpreter.python = (interpreter.python[0], interpreter.python[1] + 1)
    keys["interpreter minor"] = interpreter.slices_key(sources)

    assert len(set(keys.values())) == len(keys), keys


def test_editing_a_module_stores_a_second_entry_and_a_comment_keeps_the_digests(tmp_path):
    root = tmp_path / "cache"
    config = CSnakeConfig(cache_dir=str(root), **SMOKE)
    live = get_system("miniraft")
    ExperimentDriver(live, config)
    assert len(_slices_files(root)) == 1

    spec = get_system("miniraft")
    cache = _cache(root, spec)
    sources = live_sources(spec.source_modules)
    edited_root = make_edited_tree(tmp_path / "edited", REPO_ROOT)
    edited = TreeSource(edited_root).sources(spec.source_modules)
    assert cache.lookup_slices(cache.slices_key(sources)) is not None
    assert cache.lookup_slices(cache.slices_key(edited)) is None

    # A comment-only edit of a target module is a different file (the key
    # misses, the module is sliced again) but the same code: the source
    # digest every result key embeds comes out unchanged.
    module = "repro.systems.miniraft.nodes"
    commented = dict(sources, **{module: "# a comment\n" + sources[module]})
    key = cache.slices_key(commented)
    assert cache.lookup_slices(key) is None
    again = analyze_system(spec, commented)
    cache.store_slices(key, again)
    assert len(_slices_files(root)) == 2
    assert again == live.slice_analysis()


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
def test_a_bad_entry_falls_back_to_a_fresh_analysis_and_is_rewritten(damage, tmp_path):
    config = CSnakeConfig(cache_dir=str(tmp_path), **SMOKE)
    first = ExperimentDriver(get_system("toy"), config)
    assert first.cache.slices == "recomputed"
    (path,) = _slices_files(tmp_path)
    valid = path.read_text()
    path.write_text(damage(valid))

    second = ExperimentDriver(get_system("toy"), config)
    assert second.cache.slices == "recomputed"
    assert second.spec.slice_analysis() == first.spec.slice_analysis()
    assert path.read_text() == valid
    assert ExperimentDriver(get_system("toy"), config).cache.slices == "replayed"


def test_a_spec_that_carries_an_analysis_neither_reads_nor_writes_the_entry(tmp_path):
    spec = get_system("toy")
    carried = analyze_system(spec, live_sources(spec.source_modules))
    spec.attach_slice_analysis(carried)
    driver = ExperimentDriver(spec, CSnakeConfig(cache_dir=str(tmp_path), **SMOKE))
    assert driver.cache.slices is None
    assert spec.slice_analysis() is carried
    assert list(tmp_path.glob("*/*.json")) == []

    # Nor does a cache-less driver touch any: slicing stays lazy.
    lazy = get_system("toy")
    ExperimentDriver(lazy, CSnakeConfig(**SMOKE))
    assert lazy.attached_slice_analysis is None


def test_the_driver_attaches_what_it_replayed_and_the_keys_agree(tmp_path):
    config = CSnakeConfig(cache_dir=str(tmp_path), **SMOKE)
    cold = ExperimentDriver(get_system("miniraft"), config)
    warm = ExperimentDriver(get_system("miniraft"), config)
    assert (cold.cache.slices, warm.cache.slices) == ("recomputed", "replayed")
    assert warm.spec.attached_slice_analysis == cold.spec.attached_slice_analysis
    for test_id in cold.spec.workload_ids():
        assert warm.cache.profile_key(test_id) == cold.cache.profile_key(test_id)


def test_racing_threads_of_one_process_slice_once(tmp_path):
    """A manager's campaign threads build their drivers side by side;
    on a cold cache exactly one of them slices and stores, the
    rest replay its entry (two threads of one process must not parse
    concurrently, nor write the entry through one temp file)."""
    import sys
    import threading

    config = CSnakeConfig(cache_dir=str(tmp_path), **SMOKE)
    got, errors = [], []

    def build():
        try:
            got.append(ExperimentDriver(get_system("toy"), config))
        except Exception as exc:  # noqa: BLE001 - reported through the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=build, daemon=True) for _ in range(8)]
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
    assert sorted(d.cache.slices for d in got) == ["recomputed"] + ["replayed"] * 7
    assert all(d.spec.slice_analysis() == got[0].spec.slice_analysis() for d in got)
    assert len(_slices_files(tmp_path)) == 1
    assert list(tmp_path.glob("*/*.tmp*")) == []
