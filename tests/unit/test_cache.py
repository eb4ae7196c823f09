"""Tests for the content-addressed experiment cache."""

import argparse
import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.cache import CACHE_SCHEMA, ExperimentCache
from repro.cli import _cache_dir
from repro.config import EXECUTION_ONLY_KNOBS, CSnakeConfig
from repro.instrument.plan import InjectionPlan
from repro.instrument.trace import RunGroup, RunTrace
from repro.pipeline import Pipeline
from repro.systems import get_system
from repro.types import DELAY, FaultKey
from tests.helpers import run_trace

SMOKE = dict(repeats=2, delay_values_ms=(2000.0,), seed=7, budget_per_fault=2)

FAULT = FaultKey("toy.server.process_batch", DELAY)
PLANS = [InjectionPlan(FAULT, delay_ms=2000.0)]


def _campaign(cache_root):
    config = CSnakeConfig(cache_dir=str(cache_root), **SMOKE)
    return Pipeline.default(get_system("toy"), config).run()


def _fingerprint(ctx):
    from repro.serialize import edge_to_obj

    return {
        "report": ctx.get("report").to_dict(),
        "edges": [edge_to_obj(e) for e in ctx.driver.edges.all_edges()],
        "runs": ctx.driver.runs_executed,
        "experiments": ctx.driver.experiments_run,
    }


def test_cold_campaign_fills_warm_campaign_replays(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    cold = _campaign(root)
    stats = cold.driver.cache.stats()
    assert stats["hits"] == 0
    assert stats["misses"] > 0
    assert stats["stores"] == stats["misses"]
    # One entry per counted store, plus the uncounted ``slices`` entry.
    assert len(cold.driver.cache) == stats["stores"] + 1
    assert stats["slices"] == "recomputed"

    # The warm campaign must never simulate, and never parse the target's
    # source: every profile group, every experiment and the code-slice
    # analysis come out of the store.
    import ast

    import repro.core.driver as driver_mod

    def _boom(*_a, **_k):  # pragma: no cover - failure path
        raise AssertionError("simulated a run despite a fully warm cache")

    def _no_parse(*_a, **_k):  # pragma: no cover - failure path
        raise AssertionError("parsed source despite a stored slice analysis")

    monkeypatch.setattr(driver_mod, "run_workload", _boom)
    with monkeypatch.context() as patch:
        patch.setattr(ast, "parse", _no_parse)
        warm = _campaign(root)
    warm_stats = warm.driver.cache.stats()
    assert warm_stats["slices"] == "replayed"
    assert warm_stats["hits"] == stats["stores"]
    assert warm_stats["misses"] == 0
    assert warm_stats["stores"] == 0
    assert _fingerprint(warm) == _fingerprint(cold)


def test_execution_only_knobs_do_not_change_keys(tmp_path):
    spec = get_system("toy")
    base = ExperimentCache(tmp_path, spec, CSnakeConfig(seed=1))
    tweaked = ExperimentCache(
        tmp_path,
        spec,
        CSnakeConfig(
            seed=1,
            experiment_workers=8,
            experiment_backend="process",
            cache_dir=str(tmp_path),
        ),
    )
    assert base.experiment_key("t", FAULT, PLANS) == tweaked.experiment_key("t", FAULT, PLANS)
    assert base.profile_key("t") == tweaked.profile_key("t")
    for knob in EXECUTION_ONLY_KNOBS:
        assert knob not in CSnakeConfig().result_affecting()


def test_result_affecting_changes_miss(tmp_path):
    spec = get_system("toy")
    a = ExperimentCache(tmp_path, spec, CSnakeConfig(seed=1))
    b = ExperimentCache(tmp_path, spec, CSnakeConfig(seed=2))
    c = ExperimentCache(tmp_path, spec, CSnakeConfig(seed=1, repeats=3))
    keys = {x.experiment_key("t", FAULT, PLANS) for x in (a, b, c)}
    assert len(keys) == 3
    # A different plan sweep is a different experiment.
    other_plans = [InjectionPlan(FAULT, delay_ms=100.0)]
    assert a.experiment_key("t", FAULT, PLANS) != a.experiment_key("t", FAULT, other_plans)


def test_spec_structure_and_version_invalidate(tmp_path):
    config = CSnakeConfig(seed=1)
    spec = get_system("toy")
    same = ExperimentCache(tmp_path, get_system("toy"), config)
    base = ExperimentCache(tmp_path, spec, config)
    assert base.experiment_key("t", FAULT, PLANS) == same.experiment_key("t", FAULT, PLANS)

    bumped_spec = get_system("toy")
    bumped_spec.version = "bumped"
    bumped = ExperimentCache(tmp_path, bumped_spec, config)
    assert bumped.experiment_key("t", FAULT, PLANS) != base.experiment_key("t", FAULT, PLANS)

    # Build an independent registry (the bundled toy spec shares one
    # module-level registry instance) and grow it by one site.
    from repro.systems.base import SystemSpec
    from repro.systems.toy import build_registry

    grown_registry = build_registry()
    grown_registry.loop("toy.new.loop", "ToyServer.new_method")
    grown_spec = SystemSpec(name="toy", registry=grown_registry, workloads=spec.workloads)
    grown = ExperimentCache(tmp_path, grown_spec, config)
    assert grown.experiment_key("t", FAULT, PLANS) != base.experiment_key("t", FAULT, PLANS)


def test_workload_sim_config_participates_in_digest(tmp_path):
    """sim_config feeds SimEnv directly, so editing it must invalidate —
    but only the edited test's entries (schema 3 keys embed one workload
    row, not the whole inventory)."""
    from repro.config import SimConfig

    config = CSnakeConfig(seed=1)
    spec = get_system("toy")
    first, second = spec.workload_ids()[:2]
    base = ExperimentCache(tmp_path, spec, config)
    base_key = base.experiment_key(first, FAULT, PLANS)
    other_key = base.experiment_key(second, FAULT, PLANS)
    tweaked = get_system("toy")
    tweaked.workloads[first].sim_config = SimConfig(rpc_timeout_ms=5_000.0)
    tweaked_cache = ExperimentCache(tmp_path, tweaked, config)
    assert tweaked_cache.experiment_key(first, FAULT, PLANS) != base_key
    # Entries of the *untouched* workload survive the edit.
    assert tweaked_cache.experiment_key(second, FAULT, PLANS) == other_key


def _malformed(valid_entry):
    """Ways an entry file can be wrong: not an object, no ``data``, ``data``
    the codec rejects, cut off mid-write."""
    entry = json.loads(valid_entry)
    return {
        "a list": "[]",
        "a string": '"x"',
        "no data": json.dumps({k: v for k, v in entry.items() if k != "data"}),
        "data of the wrong shape": json.dumps(dict(entry, data=[1, 2])),
        "truncated": valid_entry[: len(valid_entry) // 2],
    }


def test_corrupt_and_mismatched_entries_read_as_misses(tmp_path):
    spec = get_system("toy")
    cache = ExperimentCache(tmp_path, spec, CSnakeConfig(seed=1))
    group = RunGroup.of("t", None, [RunTrace(test_id="t", seed=3)])
    key = cache.profile_key("t")
    cache.store_profile(key, "t", group)
    assert cache.lookup_profile(key) == group

    # Truncated JSON.
    path = cache._path(key)
    path.write_text("{not json")
    before = (cache.hits, cache.misses)
    assert cache.lookup_profile(key) is None
    assert (cache.hits, cache.misses) == (before[0], before[1] + 1)

    # Wrong kind: an experiment lookup must not deserialize a profile entry.
    cache.store_profile(key, "t", group)
    assert cache.lookup_experiment(key) is None

    # Wrong schema version.
    payload = json.loads(path.read_text())
    payload["schema"] = CACHE_SCHEMA + 1
    path.write_text(json.dumps(payload))
    assert cache.lookup_profile(key) is None

    # Every way of being malformed, for all three kinds, with exact counters.
    from repro.analysis.source import live_sources
    from repro.core.fca import FcaResult

    cache = ExperimentCache(tmp_path / "kinds", spec, CSnakeConfig(seed=1))
    sources = live_sources(spec.source_modules)
    slices = spec.slice_analysis()
    keys = {
        "profile": cache.profile_key("t"),
        "experiment": cache.experiment_key("t", FAULT, PLANS),
        "slices": cache.slices_key(sources),
    }
    store = {
        "profile": lambda: cache.store_profile(keys["profile"], "t", group),
        "experiment": lambda: cache.store_experiment(
            keys["experiment"], "t", FAULT, FcaResult(fault=FAULT, test_id="t"), runs=2
        ),
        "slices": lambda: cache.store_slices(keys["slices"], slices),
    }
    lookup = {
        "profile": cache.lookup_profile,
        "experiment": cache.lookup_experiment,
        "slices": cache.lookup_slices,
    }
    for kind in ("profile", "experiment", "slices"):
        store[kind]()
        path = cache._path(keys[kind])
        valid = path.read_text()
        for what, text in _malformed(valid).items():
            path.write_text(text)
            cache.slices = None
            before = (cache.hits, cache.misses, cache.stores)
            assert lookup[kind](keys[kind]) is None, (kind, what)
            # The slices lookup is reported on its own and never counted.
            missed = 0 if kind == "slices" else 1
            assert (cache.hits, cache.misses, cache.stores) == (
                before[0], before[1] + missed, before[2],
            ), (kind, what)
            assert cache.slices is None
        # The recompute overwrites the bad file and the entry reads again.
        store[kind]()
        assert path.read_text() == valid
        before = (cache.hits, cache.misses)
        assert lookup[kind](keys[kind]) is not None
        hit = 0 if kind == "slices" else 1
        assert (cache.hits, cache.misses) == (before[0] + hit, before[1])
    assert cache.stores == 4  # profile and experiment, twice each; never slices
    assert cache.slices == "replayed"


@pytest.mark.contract
def test_a_value_changed_inside_a_valid_entry_is_a_corrupt_miss(tmp_path, monkeypatch):
    """One digit of a loop count flipped inside a profile entry leaves
    valid JSON of the right shape: without a checksum it would replay as a
    hit and change FCA's controls.  It must be a miss counted ``corrupt``,
    recomputed once, rewritten to the clean bytes, and the campaign must
    report exactly what a clean run reports."""
    import repro.core.driver as driver_mod

    root = tmp_path / "cache"
    clean = _campaign(root)
    entries = {}
    for path in root.glob("*/*.json"):
        entry = json.loads(path.read_text())
        if entry["kind"] == "profile" and entry["data"]["loop_counts"]:
            entries[path] = entry
    path, entry = sorted(entries.items())[0]
    valid = path.read_text()
    site, row = sorted(entry["data"]["loop_counts"].items())[0]
    before = '"%s": [%d, ' % (site, row[0])
    after = '"%s": [%d, ' % (site, row[0] - row[0] % 10 + (row[0] + 1) % 10)
    assert valid.count(before) == 1
    path.write_text(valid.replace(before, after))
    assert json.loads(path.read_text())["data"] != entry["data"]

    runs = []
    run_workload = driver_mod.run_workload

    def counted(*args, **kwargs):
        runs.append(args[1].test_id)
        return run_workload(*args, **kwargs)

    monkeypatch.setattr(driver_mod, "run_workload", counted)
    healed = _campaign(root)
    stats = healed.driver.cache.stats()
    total = clean.driver.cache.stats()["stores"]
    assert (stats["hits"], stats["misses"], stats["corrupt"], stats["stores"]) == (
        total - 1, 1, 1, 1,
    )
    assert runs == [entry["key"]["test_id"]] * SMOKE["repeats"]
    assert path.read_text() == valid
    report = json.dumps(healed.get("report").to_dict(), sort_keys=True)
    assert report == json.dumps(clean.get("report").to_dict(), sort_keys=True)
    assert _fingerprint(healed) == _fingerprint(clean)


def test_no_temp_file_survives_a_store_that_raises(tmp_path, monkeypatch):
    """A store that fails while encoding, while writing or while moving
    the temp file into place leaves the cache directory as it was."""
    from repro.core.fca import FcaResult
    from repro.serialize import atomic_write_text

    cache = ExperimentCache(tmp_path, get_system("toy"), CSnakeConfig(seed=1))
    key = cache.experiment_key("t", FAULT, PLANS)
    unencodable = FcaResult(fault=FAULT, test_id="t", min_p=object())
    with pytest.raises(TypeError):
        cache.store_experiment(key, "t", FAULT, unencodable, runs=2)

    # A lone surrogate has no UTF-8 encoding: the write itself raises.
    target = cache._path(key)
    target.parent.mkdir(parents=True, exist_ok=True)
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(target, "{}" * 10_000 + "\ud800")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        cache.store_experiment(key, "t", FAULT, FcaResult(fault=FAULT, test_id="t"), runs=2)
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
    assert cache.stores == 0


def test_experiment_roundtrip_preserves_runs_counter(tmp_path):
    from repro.core.fca import FcaResult

    spec = get_system("toy")
    cache = ExperimentCache(tmp_path, spec, CSnakeConfig(seed=1))
    result = FcaResult(fault=FAULT, test_id="t", interference=[FAULT])
    key = cache.experiment_key("t", FAULT, PLANS)
    cache.store_experiment(key, "t", FAULT, result, runs=14)
    loaded, runs = cache.lookup_experiment(key)
    assert runs == 14
    assert loaded.fault == result.fault
    assert loaded.interference == result.interference


def test_cli_cache_dir_resolution():
    def ns(**kw):
        base = dict(cache=False, cache_dir=None)
        base.update(kw)
        return argparse.Namespace(**base)

    assert _cache_dir(ns()) is None
    assert _cache_dir(ns(cache_dir="/x")) == "/x"
    assert _cache_dir(ns(cache=True)) == ".repro-cache"


def test_two_threads_storing_one_entry_write_their_own_temp_files(tmp_path, monkeypatch):
    """A manager runs campaigns on threads, so two threads of one process
    may store the same entry.  Neither may open or move the other's temp
    file: here both temps are written before either is moved into place,
    and both moves must succeed."""
    cache = ExperimentCache(tmp_path, get_system("toy"), CSnakeConfig(seed=1))
    group = RunGroup.of("t", None, [RunTrace(test_id="t", seed=3)])
    key = cache.profile_key("t")
    both_written = threading.Barrier(2, timeout=10)
    replace = os.replace

    def replace_once_both_are_written(src, dst):
        both_written.wait()
        replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_once_both_are_written)
    errors = []

    def store():
        try:
            cache.store_profile(key, "t", group)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=store) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=20)
        assert not thread.is_alive()
    assert errors == []
    assert cache.lookup_profile(key) == group
    # Nothing but the entry is left behind.
    assert [p.name for p in cache._path(key).parent.iterdir()] == [key + ".json"]


def _writer_cache(root):
    return ExperimentCache(root, get_system("toy"), CSnakeConfig(seed=1))


def _writer_entries(cache):
    """``(key, store, lookup)`` of the profile and the experiment entry every
    writer process stores; the profile is a few hundred sites wide, so a
    write takes long enough to be interleaved with the others."""
    from repro.core.fca import FcaResult

    runs = [
        run_trace("t", loop_counts={"site.%d" % i: i + seed for i in range(300)})
        for seed in range(3)
    ]
    group = RunGroup.of("t", None, runs)
    result = FcaResult(fault=FAULT, test_id="t", interference=[FAULT])
    profile_key = cache.profile_key("t")
    experiment_key = cache.experiment_key("t", FAULT, PLANS)
    return [
        (profile_key, lambda: cache.store_profile(profile_key, "t", group),
         lambda: cache.lookup_profile(profile_key) == group),
        (experiment_key, lambda: cache.store_experiment(experiment_key, "t", FAULT, result, runs=2),
         lambda: cache.lookup_experiment(experiment_key)[1] == 2),
    ]


def _store_in_a_writer_process(root, start, rounds):
    cache = _writer_cache(root)
    entries = _writer_entries(cache)
    start.wait()
    for _ in range(rounds):
        for _, store, _ in entries:
            store()


def test_writer_processes_storing_the_same_entries_leave_each_whole(tmp_path):
    """Worker processes sharing a cache directory may store one entry at
    the same time.  More writer processes than processors (so the scheduler
    also switches them mid-write) store the same profile and experiment
    entries, again and again: none may fail, each entry must read back as a
    hit, and no temp file may be left behind."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    writers = max(3, min((nproc or 1) + 1, 8))
    context = multiprocessing.get_context("spawn")  # no fork of a threaded test process
    start = context.Barrier(writers, timeout=60)
    processes = [
        context.Process(target=_store_in_a_writer_process, args=(str(tmp_path), start, 20))
        for _ in range(writers)
    ]
    for process in processes:
        process.start()
    deadline = time.monotonic() + 120
    for process in processes:
        process.join(max(0.0, deadline - time.monotonic()))
    hung = [process for process in processes if process.is_alive()]
    for process in hung:
        process.kill()
        process.join()
    assert not hung, "%d of %d writer processes still running after 120 s" % (len(hung), writers)
    # A writer that raised exits 1 (its traceback is on stderr).
    assert [process.exitcode for process in processes] == [0] * writers

    cache = _writer_cache(tmp_path)
    entries = _writer_entries(cache)
    assert all(lookup() for _, _, lookup in entries)
    assert (cache.hits, cache.misses) == (2, 0)
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == sorted(
        cache._path(key) for key, _, _ in entries
    )
