#!/usr/bin/env python
"""Create the one-handler edited tree that the ``repro diff-run`` docs use.

Copies the repository's ``src/`` into DEST and inserts a single
*behaviour-neutral* executable statement into
``RaftNode.install_snapshot`` (miniraft).  The edited file has other
bytes, so every result key of the system moves and every experiment
re-runs; none replays from the cache.  Because the statement is
executable, the static diff names ``install_snapshot`` as the one
changed function.  Because it is behaviour-neutral, the two campaign
reports come out identical, so the expected diff-run output is fully
deterministic:

    $ python examples/diffrun/edit_miniraft.py /tmp/edited
    $ python -m repro.cli diff-run . /tmp/edited --system miniraft

reports the one changed function, zero appeared/vanished loops, and
``reports identical``.
"""

import shutil
import sys
from pathlib import Path

#: Anchor uniquely identifying the handler (fails loudly if nodes.py drifts).
ANCHOR = (
    "    def install_snapshot(self, term: int, leader: str, snap_index: int)"
    " -> Tuple[int, bool]:\n"
    "        self.check_alive()\n"
)
#: The inserted statement: executable (changes the function's digest) but
#: behaviour-neutral (snap_index is already an int).
INSERT = "        snap_index = int(snap_index)\n"


def make_edited_tree(dest: Path, repo: Path) -> Path:
    """Copy ``repo/src`` to ``dest/src`` and apply the one-handler edit."""
    src = repo / "src"
    dest_src = dest / "src"
    if dest_src.exists():
        shutil.rmtree(str(dest_src))
    shutil.copytree(str(src), str(dest_src))
    target = dest_src / "repro" / "systems" / "miniraft" / "nodes.py"
    text = target.read_text(encoding="utf-8")
    if ANCHOR not in text:
        raise SystemExit("anchor not found in %s — has install_snapshot changed?" % target)
    target.write_text(text.replace(ANCHOR, ANCHOR + INSERT, 1), encoding="utf-8")
    return dest


def main(argv):
    if len(argv) != 2:
        print("usage: python examples/diffrun/edit_miniraft.py DEST", file=sys.stderr)
        return 2
    repo = Path(__file__).resolve().parents[2]
    dest = make_edited_tree(Path(argv[1]), repo)
    print("edited tree at %s (one statement added to RaftNode.install_snapshot)" % dest)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
