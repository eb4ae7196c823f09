"""A cache hit after an edit equals the edited tree's recompute.

Every stored result is keyed on the raw bytes of every file a run
executes (``repro.cache.ResultKey``): the framework and the packages of
the system's declared source modules.  So a cache filled by one tree and
replayed by an edited copy may only reuse an entry the edited tree would
have written byte for byte.  The campaigns run the way ``repro diff-run``
runs them: one ``repro run`` subprocess per tree (``_diffrun_side_root`` /
``_diffrun_campaign``), so each side executes its own code.

The edits are fact 9 of ROADMAP.md (a ``spin`` cost in
``NameNode.replication_monitor``), a dataclass default in ``hconfig.py``,
a statement no function covers, and a behaviour-neutral statement in a
framework module (``repro/instrument/runtime.py``) and in minihdfs's
``sites.py``, neither of them a declared source module.  A per-site slice
key replayed stale entries for the first and every entry for the second;
the slicer's source digest replayed every entry for the last two.  A
comment-only edit is other bytes too: it stores every entry anew, with
the same data.
"""

import json
import shutil
from pathlib import Path

import pytest

from examples.diffrun.edit_miniraft import make_edited_tree
from repro.analysis import TreeSource, diff_slices, live_sources, source_digests
from repro.cache import records
from repro.cli import _diffrun_campaign, _diffrun_side_root, build_parser
from repro.systems import get_system

REPO_ROOT = Path(__file__).resolve().parents[2]

RUN = ["--system", "minihdfs2", "--repeats", "2", "--delays", "2000", "--budget", "2",
       "--seed", "7"]

#: name -> (module path under src/repro, text, replacement)
EDITS = {
    "spin": (
        "systems/minihdfs/namenode.py",
        'for bid in self.rt.loop("nn.repl.scan", work):\n                self.env.spin(0.1)',
        'for bid in self.rt.loop("nn.repl.scan", work):\n                self.env.spin(0.5)',
    ),
    "config_default": (
        "systems/minihdfs/hconfig.py",
        "heartbeat_interval_ms: float = 3_000.0",
        "heartbeat_interval_ms: float = 2_000.0",
    ),
    "framework": (
        "instrument/runtime.py",
        '_ROOT = "<root>"\n',
        '_ROOT = "<root>"\n_ROOT = str(_ROOT)\n',
    ),
    "sites": (
        "systems/minihdfs/sites.py",
        "    reg = SiteRegistry(system)\n",
        "    reg = SiteRegistry(system)\n    system = str(system)\n",
    ),
    "comment": (
        "systems/minihdfs/namenode.py",
        'for bid in self.rt.loop("nn.repl.scan", work):\n',
        'for bid in self.rt.loop("nn.repl.scan", work):  # scan every queued block\n',
    ),
}


def _edited_copy(dest, name):
    rel, old, new = EDITS[name]
    shutil.copytree(
        str(REPO_ROOT / "src"), str(dest / "src"), ignore=shutil.ignore_patterns("__pycache__")
    )
    target = dest / "src" / "repro" / rel
    text = target.read_text(encoding="utf-8")
    assert text.count(old) == 1, "edit anchor drifted in %s" % rel
    target.write_text(text.replace(old, new), encoding="utf-8")
    return dest


def _campaign(root, cache_dir):
    """One side's campaign, as ``repro diff-run`` runs it."""
    args = build_parser().parse_args(["diff-run", ".", "."] + RUN)
    return _diffrun_campaign(_diffrun_side_root(TreeSource(root), None, "side"), args, cache_dir)


def _entries(cache_dir):
    """Key -> ``(kind, data)`` of every profile and experiment entry."""
    out = {}
    for record in records(cache_dir):
        entry = json.loads(record.entry)
        out[record.key] = (entry["kind"], entry["data"])
    return out


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The unedited tree's cache and report."""
    cache = tmp_path_factory.mktemp("base") / "cache"
    report = _campaign(REPO_ROOT, str(cache))
    return cache, report


@pytest.mark.parametrize("edit", ["spin", "config_default", "framework", "sites"])
def test_a_replay_across_an_executable_edit_equals_the_edited_recompute(edit, base, tmp_path):
    base_cache, _ = base
    edited = _edited_copy(tmp_path / "edited", edit)
    replay_cache = tmp_path / "replay"
    shutil.copytree(str(base_cache), str(replay_cache))
    replayed = _campaign(edited, str(replay_cache))
    cold_cache = tmp_path / "cold"
    recomputed = _campaign(edited, str(cold_cache))

    cold, replay, stale = _entries(cold_cache), _entries(replay_cache), _entries(base_cache)
    # Every entry the replay could read (the base tree's, plus what it
    # stored) is the one the edited tree computes under that key.
    for key, entry in sorted(cold.items()):
        assert replay.get(key) == entry, "%s entry %s: replay != recompute" % (entry[0], key)
    # And the edit reached every key: the replay stored all of them anew.
    assert set(replay) - set(stale) == set(cold)
    assert replayed == recomputed


def test_a_comment_edit_stores_every_entry_anew(base, tmp_path):
    base_cache, base_report = base
    edited = _edited_copy(tmp_path / "edited", "comment")
    replay_cache = tmp_path / "replay"
    shutil.copytree(str(base_cache), str(replay_cache))
    assert _campaign(edited, str(replay_cache)) == base_report
    stale = _entries(base_cache)
    fresh = [entry for key, entry in _entries(replay_cache).items() if key not in stale]

    def dumped(entries):
        return sorted(json.dumps(entry, sort_keys=True) for entry in entries)

    assert dumped(fresh) == dumped(stale.values())


def test_edit_script_is_behaviour_neutral_and_anchored(tmp_path):
    """The shared edit script must keep producing a tree that differs from
    the live source in exactly one module."""
    root = make_edited_tree(tmp_path / "edited", REPO_ROOT)
    spec = get_system("miniraft")
    live = source_digests(live_sources(spec.source_modules))
    edited = source_digests(TreeSource(root).sources(spec.source_modules))
    sdiff = diff_slices(spec.name, live, edited)
    assert sdiff.source_changed
    assert sdiff.changed_functions == (
        "repro.systems.miniraft.nodes:RaftNode.install_snapshot",
    )
    assert sdiff.added_functions == () and sdiff.removed_functions == ()
