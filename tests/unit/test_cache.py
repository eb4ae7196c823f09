"""Tests for the content-addressed experiment cache."""

import argparse
import dataclasses
import json
import multiprocessing
import os
import threading
import time
from pathlib import Path

import pytest

from repro.cache import CACHE_SCHEMA, ExperimentCache, records
from repro.cli import _cache_dir
from repro.config import EXECUTION_ONLY_KNOBS, CSnakeConfig
from repro.instrument.plan import InjectionPlan
from repro.instrument.trace import RunGroup, RunTrace
from repro.pipeline import Pipeline
from repro.systems import get_system
from repro.types import DELAY, FaultKey
from tests.helpers import edited_source, rewrite_record, run_trace, stored

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
    # One entry per store.
    assert len(cold.driver.cache) == stats["stores"]

    # The warm campaign must never simulate, and never parse the target's
    # source: every profile group and every experiment come out of the
    # store, and the analyze stage reads declared sites only.
    import ast

    import repro.core.driver as driver_mod

    def _boom(*_a, **_k):  # pragma: no cover - failure path
        raise AssertionError("simulated a run despite a fully warm cache")

    def _no_parse(*_a, **_k):  # pragma: no cover - failure path
        raise AssertionError("parsed source in a campaign")

    monkeypatch.setattr(driver_mod, "run_workload", _boom)
    with monkeypatch.context() as patch:
        patch.setattr(ast, "parse", _no_parse)
        warm = _campaign(root)
    warm_stats = warm.driver.cache.stats()
    assert warm_stats["hits"] == stats["stores"]
    assert warm_stats["misses"] == 0
    assert warm_stats["stores"] == 0
    assert _fingerprint(warm) == _fingerprint(cold)


def test_benchmark_campaign_replays_warm_onto_its_golden_digest(tmp_path):
    """The minihdfs2 benchmark campaign, cold over an empty cache and then
    replayed from it: both reach the recorded digest, the replay misses
    nothing, and its edges share one object per distinct state set (every
    entry decoded through the cache's one intern table)."""
    from tests.golden import recorded
    from tests.golden_campaigns import DIGESTED, context_digest

    system, config = DIGESTED["minihdfs2_benchmark"]
    config = dataclasses.replace(config, cache_dir=str(tmp_path / "cache"))
    golden = recorded("campaigns")["minihdfs2_benchmark"]
    cold = Pipeline.default(get_system(system), config).run()
    warm = Pipeline.default(get_system(system), config).run()
    assert context_digest(cold) == context_digest(warm) == golden
    assert warm.driver.cache.stats()["misses"] == 0
    sets = [s for e in warm.driver.edges.all_edges() for s in (e.src_states, e.dst_states)]
    assert len({id(s) for s in sets}) == len(set(sets))


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


def test_spec_structure_invalidates(tmp_path):
    config = CSnakeConfig(seed=1)
    spec = get_system("toy")
    same = ExperimentCache(tmp_path, get_system("toy"), config)
    base = ExperimentCache(tmp_path, spec, config)
    assert base.experiment_key("t", FAULT, PLANS) == same.experiment_key("t", FAULT, PLANS)

    # Each spec builds its own registry: grow a fresh one by one site.
    grown_spec = get_system("toy")
    grown_spec.registry.loop("toy.new.loop", "ToyServer.new_method")
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
    """Damage is read by the next cache over the directory (a live
    instance keeps what it indexed): each kind of bad record is a miss,
    and the good record the recompute appends is what later lookups find."""
    spec = get_system("toy")
    config = CSnakeConfig(seed=1)
    cache = ExperimentCache(tmp_path, spec, config)
    group = RunGroup.of("t", None, [RunTrace(test_id="t", seed=3)])
    key = cache.profile_key("t")
    cache.store_profile(key, "t", group)
    assert cache.lookup_profile(key) == group
    (valid,) = stored(tmp_path)[key]

    # Truncated JSON.
    rewrite_record(tmp_path, key, "{not json")
    reader = ExperimentCache(tmp_path, spec, config)
    assert reader.lookup_profile(key) is None
    assert (reader.hits, reader.misses, reader.corrupt) == (0, 1, 0)

    # Wrong kind: an experiment lookup must not deserialize a profile entry.
    rewrite_record(tmp_path, key, valid.decode())
    assert ExperimentCache(tmp_path, spec, config).lookup_experiment(key) is None

    # Wrong schema version.
    payload = json.loads(valid)
    payload["schema"] = CACHE_SCHEMA + 1
    rewrite_record(tmp_path, key, json.dumps(payload))
    assert ExperimentCache(tmp_path, spec, config).lookup_profile(key) is None

    # Every way of being malformed, for both kinds, with exact counters.
    from repro.core.fca import FcaResult

    root = tmp_path / "kinds"
    probe = ExperimentCache(root, spec, config)
    keys = {
        "profile": probe.profile_key("t"),
        "experiment": probe.experiment_key("t", FAULT, PLANS),
    }
    store = {
        "profile": lambda c: c.store_profile(keys["profile"], "t", group),
        "experiment": lambda c: c.store_experiment(
            keys["experiment"], "t", FAULT, FcaResult(fault=FAULT, test_id="t"), runs=2
        ),
    }
    lookup = {
        "profile": lambda c: c.lookup_profile(keys["profile"]),
        "experiment": lambda c: c.lookup_experiment(keys["experiment"]),
    }
    stores = 0
    for kind in ("profile", "experiment"):
        store[kind](ExperimentCache(root, spec, config))
        (valid,) = stored(root)[keys[kind]]
        for what, text in _malformed(valid.decode()).items():
            rewrite_record(root, keys[kind], text)
            reader = ExperimentCache(root, spec, config)
            assert lookup[kind](reader) is None, (kind, what)
            assert (reader.hits, reader.misses, reader.stores) == (0, 1, 0), (kind, what)
        # The recompute appends the good record beside the bad one, and
        # the entry reads again, without counting the bad one.
        store[kind](reader)
        stores += reader.stores
        assert sorted(stored(root)[keys[kind]]) == sorted([text.encode(), valid])
        again = ExperimentCache(root, spec, config)
        assert lookup[kind](again) is not None
        assert (again.hits, again.misses, again.corrupt) == (1, 0, 0)
    assert stores == 2


@pytest.mark.contract
def test_a_value_changed_inside_a_valid_entry_is_a_corrupt_miss(tmp_path, monkeypatch):
    """One digit of a loop count flipped inside a profile entry leaves
    valid JSON of the right shape: without a checksum it would replay as a
    hit and change FCA's controls.  It must be a miss counted ``corrupt``,
    recomputed once, the clean record appended, and the campaign must
    report exactly what a clean run reports; the next campaign finds the
    clean record and counts nothing corrupt."""
    import repro.core.driver as driver_mod

    root = tmp_path / "cache"
    clean = _campaign(root)
    entries = {}
    for record in records(root):
        entry = json.loads(record.entry)
        if entry["kind"] == "profile" and entry["data"]["loop_counts"]:
            entries[record.key] = entry
    key, entry = sorted(entries.items())[0]
    (valid,) = stored(root)[key]
    valid = valid.decode()
    site, row = sorted(entry["data"]["loop_counts"].items())[0]
    before = '"%s": [%d, ' % (site, row[0])
    after = '"%s": [%d, ' % (site, row[0] - row[0] % 10 + (row[0] + 1) % 10)
    assert valid.count(before) == 1
    damaged = valid.replace(before, after)
    rewrite_record(root, key, damaged)
    assert json.loads(damaged)["data"] != entry["data"]

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
    assert sorted(stored(root)[key]) == sorted([damaged.encode(), valid.encode()])
    report = json.dumps(healed.get("report").to_dict(), sort_keys=True)
    assert report == json.dumps(clean.get("report").to_dict(), sort_keys=True)
    assert _fingerprint(healed) == _fingerprint(clean)
    replay = _campaign(root).driver.cache.stats()
    assert (replay["hits"], replay["misses"], replay["corrupt"]) == (total, 0, 0)


@pytest.mark.parametrize("layout", ["bad, good", "good, bad", "two segments"])
def test_the_good_record_is_found_whichever_segment_holds_it(layout, tmp_path):
    """A key with a record failing its checksum and a good one reads as a
    hit, counting nothing corrupt, whichever is read first and whether
    they share a segment; with the bad record alone it is a miss counted
    ``corrupt``."""
    spec, config = get_system("toy"), CSnakeConfig(seed=1)
    writer = ExperimentCache(tmp_path, spec, config)
    group = RunGroup.of("t", None, [run_trace("t", loop_counts={"a": 12})])
    key = writer.profile_key("t")
    writer.store_profile(key, "t", group)
    (record,) = records(tmp_path)
    segment = Path(record.segment)
    good = b"%s %s\n" % (key.encode(), record.entry)
    bad = good.replace(b'"a": [12', b'"a": [13')
    assert bad != good
    segment.write_bytes(bad)
    reader = ExperimentCache(tmp_path, spec, config)
    assert reader.lookup_profile(key) is None
    assert (reader.hits, reader.misses, reader.corrupt) == (0, 1, 1)

    if layout == "two segments":
        segment.with_name("0-other.seg").write_bytes(good)
    else:  # one segment, in append order
        segment.write_bytes(bad + good if layout == "bad, good" else good + bad)
    reader = ExperimentCache(tmp_path, spec, config)
    assert reader.lookup_profile(key) == group
    assert (reader.hits, reader.misses, reader.corrupt) == (1, 0, 0)


@pytest.mark.parametrize("failure", ["raises", "short"])
def test_a_torn_record_is_a_plain_miss_and_damages_no_later_record(failure, tmp_path, monkeypatch):
    """A record cut off before its newline — a writer killed mid-append,
    an append that raises or writes part of the record — reads as a plain
    miss, never as ``corrupt``; the writer never appends after it, so the
    next record, in a segment of its own, reads whole."""
    from repro.core.fca import FcaResult

    spec, config = get_system("toy"), CSnakeConfig(seed=1)
    cache = ExperimentCache(tmp_path, spec, config)
    key = cache.experiment_key("t", FAULT, PLANS)
    result = FcaResult(fault=FAULT, test_id="t")
    # A store that fails while encoding writes nothing at all.
    unencodable = FcaResult(fault=FAULT, test_id="t", min_p=object())
    with pytest.raises(TypeError):
        cache.store_experiment(key, "t", FAULT, unencodable, runs=2)
    assert list(tmp_path.iterdir()) == []

    write = os.write

    def half(fd, data):
        written = write(fd, data[: len(data) // 2])
        if failure == "raises":
            raise OSError("disk full")
        return written

    with monkeypatch.context() as patch:
        patch.setattr(os, "write", half)
        with pytest.raises(OSError, match="disk full" if failure == "raises" else "short write"):
            cache.store_experiment(key, "t", FAULT, result, runs=2)
    assert cache.stores == 0
    (torn,) = tmp_path.glob("*/*.seg")
    tail = torn.read_bytes()
    assert tail and not tail.endswith(b"\n")
    assert list(records(tmp_path)) == []
    reader = ExperimentCache(tmp_path, spec, config)
    assert reader.lookup_experiment(key) is None
    assert (reader.hits, reader.misses, reader.corrupt) == (0, 1, 0)

    cache.store_experiment(key, "t", FAULT, result, runs=2)
    assert torn.read_bytes() == tail
    assert len(list(tmp_path.glob("*/*.seg"))) == 2
    (record,) = records(tmp_path)
    assert record.segment != str(torn)
    reader = ExperimentCache(tmp_path, spec, config)
    assert reader.lookup_experiment(key)[1] == 2
    assert (reader.hits, reader.misses, reader.corrupt) == (1, 0, 0)


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


def test_two_caches_of_one_process_never_share_a_segment(tmp_path):
    """A manager runs campaigns on threads, each with a cache of its own
    over one directory.  Two such caches, storing wide entries at the same
    time from two threads, each append to a segment of their own; every
    record reads back whole, and each cache finds the other's entries."""
    import sys

    from repro.core.fca import FcaResult

    spec, config = get_system("toy"), CSnakeConfig(seed=1)
    caches = [ExperimentCache(tmp_path, spec, config) for _ in range(2)]
    # A few hundred faults wide, so a write takes long enough to be
    # interleaved with the other thread's.
    wide = [FaultKey("site.%d" % i, DELAY) for i in range(300)]
    result = FcaResult(fault=FAULT, test_id="t", interference=wide)
    plans = [InjectionPlan(FAULT, delay_ms=float(d)) for d in range(1, 41)]
    keys = [
        [caches[0].experiment_key("t", FAULT, plans[:n]) for n in range(1 + side, 41, 2)]
        for side in range(2)
    ]
    started = threading.Barrier(2, timeout=10)
    errors = []

    def store(cache, mine):
        try:
            started.wait()
            for key in mine:
                cache.store_experiment(key, "t", FAULT, result, runs=len(wide))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=store, args=(cache, mine)) for cache, mine in zip(caches, keys)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    on_disk = list(records(tmp_path))
    assert sorted(r.key for r in on_disk) == sorted(keys[0] + keys[1])
    assert all(json.loads(r.entry)["data"]["runs"] == len(wide) for r in on_disk)
    segments = {}
    for record in on_disk:
        segments.setdefault(record.segment, []).append(record.key)
    assert sorted(segments.values()) == sorted(keys)  # one segment per cache, in store order
    for cache, theirs in zip(caches, reversed(keys)):
        assert all(cache.lookup_experiment(key)[1] == len(wide) for key in theirs)
        assert (cache.hits, cache.misses) == (len(theirs), 0)


def test_a_campaign_reads_only_its_own_directory(tmp_path, monkeypatch):
    """Results of another config or another tree are in directories of
    their own, which a campaign never opens; a warm lookup of its own
    entries reads each of its segments once, however many entries it
    looks up."""
    import builtins

    import repro.cache as cache_mod

    config = CSnakeConfig(seed=1)
    spec = get_system("toy")
    group = RunGroup.of("t", None, [RunTrace(test_id="t", seed=3)])
    tests = spec.workload_ids()
    other_tree = ExperimentCache(tmp_path, spec, config)
    with monkeypatch.context() as patch:  # a key reads its tree's bytes once
        patch.setattr(cache_mod, "SOURCE_ROOT", edited_source(tmp_path / "tree", "types.py"))
        other_tree.key.identity
    writers = [
        ExperimentCache(tmp_path, spec, config),
        ExperimentCache(tmp_path, spec, CSnakeConfig(seed=2)),
        other_tree,
    ]
    for writer in writers:
        for test_id in tests:
            writer.store_profile(writer.profile_key(test_id), test_id, group)
    directories = {Path(r.segment).parent for r in records(tmp_path)}
    assert len(directories) == 3
    first = writers[0].profile_key(tests[0])
    (own,) = {Path(r.segment).parent for r in records(tmp_path) if r.key == first}

    opened = []
    real_open = builtins.open

    def recording_open(path, *args, **kwargs):
        opened.append(Path(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(cache_mod, "open", recording_open, raising=False)
    reader = ExperimentCache(tmp_path, spec, config)
    assert all(reader.lookup_profile(reader.profile_key(t)) == group for t in tests)
    assert (reader.hits, reader.misses) == (len(tests), 0)
    assert len(tests) > 1 and opened == list(own.iterdir())


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
    # Nothing but segments of the one directory, holding whole records
    # only: each of the two entries once or more, byte for byte the same.
    on_disk = stored(tmp_path)
    assert sorted(on_disk) == sorted(key for key, _, _ in entries)
    assert all(len(set(entries)) == 1 for entries in on_disk.values())
    (directory,) = tmp_path.iterdir()
    assert all(p.suffix == ".seg" for p in directory.iterdir())
