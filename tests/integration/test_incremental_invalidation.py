"""Incremental cache invalidation under a one-handler source edit.

The CACHE_SCHEMA 3 contract: experiment entries are keyed on the
injection site's *slice digest*, so editing one handler re-runs only the
experiments whose reachable slice contains the edit — everything else is
a warm hit.  The edit used here is the shared ``examples/diffrun``
behaviour-neutral one-liner in ``RaftNode.install_snapshot`` (the same
edit CI's bench job drives through the CLI).

The warm campaign runs in-process against the *edited tree's* analysis
(``SystemSpec.attach_slice_analysis``): cache keys see the edited
source, execution uses the live code.  Because the edit is
behaviour-neutral these coincide, and the subprocess-based CI job covers
the actually-executes-the-edit path.
"""

import json
from pathlib import Path

from examples.diffrun.edit_miniraft import make_edited_tree
from repro.analysis import TreeSource, analyze_system, diff_slices
from repro.config import CSnakeConfig
from repro.pipeline import Pipeline
from repro.systems import get_system

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Budget 6 (not the smoke default 2): under tighter budgets the 3PA
#: allocator can spend every phase at unchanged sites, leaving the
#: invalidation path unexercised.
CFG = dict(repeats=2, delay_values_ms=(2000.0,), seed=7, budget_per_fault=6)


def _cache_files(cache_dir):
    return {str(p) for p in Path(cache_dir).glob("*/*.json")}


def test_single_handler_edit_invalidates_only_changed_slices(tmp_path):
    cache_dir = tmp_path / "cache"
    cold_spec = get_system("miniraft")
    cold = Pipeline.default(
        cold_spec, CSnakeConfig(cache_dir=str(cache_dir), **CFG)
    ).run()
    assert cold.driver.cache.hits == 0 and cold.driver.cache.stores > 0
    cold_files = _cache_files(cache_dir)

    edited_root = make_edited_tree(tmp_path / "edited", REPO_ROOT)
    warm_spec = get_system("miniraft")
    edited = analyze_system(
        warm_spec, TreeSource(edited_root).sources(warm_spec.source_modules)
    )
    sdiff = diff_slices(cold_spec.slice_analysis(), edited)
    assert sdiff.changed_sites and sdiff.unchanged_sites
    # every miniraft workload entry point transitively reaches the edited
    # handler, so all profile entries (but not all experiments) re-run
    assert sdiff.changed_entries

    warm_spec.attach_slice_analysis(edited)
    warm = Pipeline.default(
        warm_spec, CSnakeConfig(cache_dir=str(cache_dir), **CFG)
    ).run()
    assert warm.driver.cache.hits > 0, "nothing reused across the edit"
    assert warm.driver.cache.misses > 0, "the edit invalidated nothing"

    changed_sites = set(sdiff.changed_sites)
    changed_entries = set(sdiff.changed_entries)
    fresh = sorted(_cache_files(cache_dir) - cold_files)
    assert fresh, "warm campaign stored no new entries"
    exp_misses = 0
    for path in fresh:
        entry = json.loads(Path(path).read_text())
        if entry["kind"] == "experiment":
            site = entry["key"]["fault"].rsplit(":", 1)[0]
            assert site in changed_sites, (
                "unchanged-slice experiment re-ran: %s" % site
            )
            exp_misses += 1
        else:
            assert entry["kind"] == "profile"
            assert entry["key"]["test_id"] in changed_entries, (
                "unchanged-entry profile re-ran: %s" % entry["key"]["test_id"]
            )
    assert exp_misses > 0, "budget never reached a changed-slice experiment"
    assert len(fresh) == warm.driver.cache.misses == warm.driver.cache.stores

    # Behaviour-neutral edit: the detection reports agree exactly.
    assert cold.get("report").to_dict() == warm.get("report").to_dict()


def test_edit_script_is_behaviour_neutral_and_anchored(tmp_path):
    """The shared edit script must keep producing a tree that differs from
    the live source in exactly one module."""
    root = make_edited_tree(tmp_path / "edited", REPO_ROOT)
    spec = get_system("miniraft")
    live = spec.slice_analysis()
    edited = analyze_system(spec, TreeSource(root).sources(spec.source_modules))
    sdiff = diff_slices(live, edited)
    assert sdiff.source_changed
    assert sdiff.changed_functions == (
        "repro.systems.miniraft.nodes:RaftNode.install_snapshot",
    )
    assert sdiff.added_functions == () and sdiff.removed_functions == ()


def test_minihdfs_datanode_edit_invalidates_only_changed_slices(tmp_path):
    """The same CACHE_SCHEMA 3 contract on a paper-evaluation system: a
    one-statement edit to the shared datanode write-pipeline handler
    (``DataNode.receive_block``) re-runs only experiments whose slice
    reaches the edit; namenode- and client-only paths stay warm."""
    from examples.diffrun.edit_minihdfs import make_edited_tree as edit_hdfs

    cache_dir = tmp_path / "cache"
    cold_spec = get_system("minihdfs2")
    cold = Pipeline.default(
        cold_spec, CSnakeConfig(cache_dir=str(cache_dir), **CFG)
    ).run()
    assert cold.driver.cache.hits == 0 and cold.driver.cache.stores > 0
    cold_files = _cache_files(cache_dir)

    edited_root = edit_hdfs(tmp_path / "edited", REPO_ROOT)
    warm_spec = get_system("minihdfs2")
    edited = analyze_system(
        warm_spec, TreeSource(edited_root).sources(warm_spec.source_modules)
    )
    sdiff = diff_slices(cold_spec.slice_analysis(), edited)
    assert sdiff.changed_functions == (
        "repro.systems.minihdfs.datanode:DataNode.receive_block",
    )
    assert sdiff.changed_sites and sdiff.unchanged_sites

    warm_spec.attach_slice_analysis(edited)
    warm = Pipeline.default(
        warm_spec, CSnakeConfig(cache_dir=str(cache_dir), **CFG)
    ).run()
    assert warm.driver.cache.hits > 0, "nothing reused across the edit"
    assert warm.driver.cache.misses > 0, "the edit invalidated nothing"

    changed_sites = set(sdiff.changed_sites)
    changed_entries = set(sdiff.changed_entries)
    for path in sorted(_cache_files(cache_dir) - cold_files):
        entry = json.loads(Path(path).read_text())
        if entry["kind"] == "experiment":
            site = entry["key"]["fault"].rsplit(":", 1)[0]
            assert site in changed_sites, (
                "unchanged-slice experiment re-ran: %s" % site
            )
        else:
            assert entry["kind"] == "profile"
            assert entry["key"]["test_id"] in changed_entries, (
                "unchanged-entry profile re-ran: %s" % entry["key"]["test_id"]
            )

    # Behaviour-neutral edit: the detection reports agree exactly.
    assert cold.get("report").to_dict() == warm.get("report").to_dict()
