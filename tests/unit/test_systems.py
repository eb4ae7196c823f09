"""Unit tests over every mini-system: registries, workloads, ground truth."""

import pytest

from repro.core.driver import seed_for, run_workload
from repro.instrument.analyzer import analyze
from repro.systems import available_systems, evaluation_systems, get_system
from repro.types import SiteKind

ALL_SYSTEMS = available_systems()


@pytest.fixture(scope="module")
def specs():
    return {name: get_system(name) for name in ALL_SYSTEMS}


def test_registry_lists_eight_systems():
    assert set(ALL_SYSTEMS) == {
        "toy", "minihdfs2", "minihdfs3", "minihbase", "miniflink", "miniozone",
        "miniraft", "minidfs",
    }
    # The paper-evaluation set stays the five paper targets: miniraft and
    # minidfs are extension targets and the toy system a test fixture.
    assert set(evaluation_systems()) == set(ALL_SYSTEMS) - {
        "toy", "miniraft", "minidfs",
    }


def test_unknown_system_raises():
    with pytest.raises(KeyError):
        get_system("hadoop")


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_every_system_has_workloads_and_sites(specs, name):
    spec = specs[name]
    assert len(spec.workloads) >= 4
    assert len(spec.registry) >= 9
    counts = spec.registry.counts()
    assert counts["loop"] >= 3
    assert counts["throw"] + counts["lib_call"] >= 2


@pytest.mark.parametrize("name", evaluation_systems())
def test_evaluation_systems_have_known_bugs(specs, name):
    spec = specs[name]
    assert spec.known_bugs, "%s has no ground-truth bugs" % name
    for bug in spec.known_bugs:
        assert bug.core_faults, bug.bug_id
        for fault in bug.core_faults:
            assert fault.site_id in spec.registry, (
                "%s references unknown site %s" % (bug.bug_id, fault.site_id)
            )


def test_table3_bug_counts_match_paper(specs):
    # HDFS2: 6, HDFS3: 2 (+2 duplicates), HBase: 2, Flink: 2, Ozone: 3.
    assert len(specs["minihdfs2"].known_bugs) == 6
    hdfs3_ids = [b.bug_id for b in specs["minihdfs3"].known_bugs]
    assert len([b for b in hdfs3_ids if b.startswith("H3")]) == 2
    assert len([b for b in hdfs3_ids if b.startswith("H2")]) == 2  # duplicates
    assert len(specs["minihbase"].known_bugs) == 2
    assert len(specs["miniflink"].known_bugs) == 2
    assert len(specs["miniozone"].known_bugs) == 3
    unique = set()
    for name in evaluation_systems():
        for bug in specs[name].known_bugs:
            unique.add(bug.bug_id)
    assert len(unique) == 15  # the paper's 15 distinct bugs


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_static_analyzer_yields_fault_space(specs, name):
    result = analyze(specs[name].registry)
    assert len(result.faults) >= 6
    site_ids = {f.site_id for f in result.faults}
    # Filtered sites stay out of the fault space.
    for site in specs[name].registry:
        meta = site.throw
        if meta and (meta.reflection_related or meta.security_related or meta.test_only):
            assert site.site_id not in site_ids
        if site.detector and (site.detector.final_only or site.detector.primitive_only):
            assert site.site_id not in site_ids
        if site.loop and site.loop.constant_bound:
            assert site.site_id not in site_ids


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_profile_runs_are_deterministic_and_bounded(specs, name):
    spec = specs[name]
    test_id = spec.workload_ids()[0]
    wl = spec.workloads[test_id]
    a = run_workload(spec, wl, None, seed_for(test_id, 0, 99))
    b = run_workload(spec, wl, None, seed_for(test_id, 0, 99))
    assert a.loop_counts == b.loop_counts
    assert not a.saturated
    assert sum(a.loop_counts.values()) > 0


@pytest.mark.parametrize("name", evaluation_systems())
def test_all_workloads_execute_cleanly(specs, name):
    spec = specs[name]
    for test_id in spec.workload_ids():
        wl = spec.workloads[test_id]
        trace = run_workload(spec, wl, None, seed_for(test_id, 0, 42))
        assert not trace.saturated, "%s profile saturated" % test_id
        assert trace.reached, test_id


@pytest.mark.parametrize("name", evaluation_systems())
def test_bug_core_faults_reachable_somewhere(specs, name):
    """Every ground-truth fault location is reached by at least one test."""
    spec = specs[name]
    reached = set()
    for test_id in spec.workload_ids():
        wl = spec.workloads[test_id]
        trace = run_workload(spec, wl, None, seed_for(test_id, 0, 7))
        reached |= trace.reached
    for bug in spec.known_bugs:
        for fault in bug.core_faults:
            assert fault.site_id in reached, (
                "%s: core fault %s unreachable" % (bug.bug_id, fault.site_id)
            )


def test_nested_loop_declarations_consistent(specs):
    for name in ALL_SYSTEMS:
        reg = specs[name].registry
        for site in reg.loops():
            if site.loop and site.loop.parent:
                parent = reg.get(site.loop.parent)
                assert parent.kind is SiteKind.LOOP


#: Runs one minihdfs3 ``reconstruction_tick`` whose every fetch fails, over
#: stand-ins for the runtime, the sim and the NameNode, and prints the
#: re-queued block ids in order.
_RECON_REQUEUE = r'''
import contextlib
from collections import deque
from types import SimpleNamespace

from repro.errors import IOEx
from repro.systems.minihdfs.datanode import DataNode


def failing_fetch(site_id, exc_type, *args, **kwargs):
    raise IOEx("fetch failed")


blocks = ["blk_%d" % i for i in range(20)]
source = DataNode.__new__(DataNode)
source.finalized = set(blocks)
node = DataNode.__new__(DataNode)
node.name = "dn9"
node.rt = SimpleNamespace(
    function=lambda name: contextlib.nullcontext(),
    loop=lambda site_id, items: items,
    lib_call=failing_fetch,
)
node.env = SimpleNamespace(spin=lambda ms: None, rpc=None)
node.nn = SimpleNamespace(datanodes={"dn1": source}, blocks=dict.fromkeys(blocks))
node.cfg = SimpleNamespace(recon_fetch_timeout_ms=1000.0)
node.recon_queue = deque(blocks[:5])
node.reconstruction_tick()
print(" ".join(node.recon_queue))
'''


def test_reconstruction_requeue_order_is_hash_seed_independent():
    """A failed reconstruction fetch re-queues its block and eight stripe
    neighbours; which neighbours must not depend on ``PYTHONHASHSEED``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2] / "src")
    orders = []
    for hash_seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _RECON_REQUEUE],
            env=env, capture_output=True, text=True, check=True,
        )
        orders.append(proc.stdout.split())
    assert len(orders[0]) == 5 * 9
    assert orders[0] == orders[1]
