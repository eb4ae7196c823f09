#!/usr/bin/env python
"""Create a one-handler edited tree for the minihdfs ``diff-run`` flow.

Copies the repository's ``src/`` into DEST and inserts a single
*behaviour-neutral* executable statement into
``DataNode.receive_block`` (minihdfs) — the write-pipeline handler every
datanode shares.  The edited file has other bytes, so every result key
of the system moves and every experiment re-runs; none replays from the
cache.  Because the statement is executable, the static diff names
``receive_block`` as the one changed function.  Because it is
behaviour-neutral, the two campaign reports come out identical:

    $ python examples/diffrun/edit_minihdfs.py /tmp/edited
    $ python -m repro.cli diff-run . /tmp/edited --system minihdfs2

reports the one changed function, zero appeared/vanished loops, and
``reports identical``.
"""

import shutil
import sys
from pathlib import Path

#: Anchor uniquely identifying the handler (fails loudly if datanode.py drifts).
ANCHOR = (
    "        self, bid: str, pipeline: List[\"DataNode\"], packets: int,"
    " is_transfer: bool = False\n"
    "    ) -> None:\n"
    "        \"\"\"Receive a block and forward it down the pipeline.\"\"\"\n"
    "        self.check_alive()\n"
)
#: The inserted statement: executable (changes the function's digest) but
#: behaviour-neutral (packets is already an int).
INSERT = "        packets = int(packets)\n"


def make_edited_tree(dest: Path, repo: Path) -> Path:
    """Copy ``repo/src`` to ``dest/src`` and apply the one-handler edit."""
    src = repo / "src"
    dest_src = dest / "src"
    if dest_src.exists():
        shutil.rmtree(str(dest_src))
    shutil.copytree(str(src), str(dest_src))
    target = dest_src / "repro" / "systems" / "minihdfs" / "datanode.py"
    text = target.read_text(encoding="utf-8")
    if ANCHOR not in text:
        raise SystemExit("anchor not found in %s — has receive_block changed?" % target)
    target.write_text(text.replace(ANCHOR, ANCHOR + INSERT, 1), encoding="utf-8")
    return dest


def main(argv):
    if len(argv) != 2:
        print("usage: python examples/diffrun/edit_minihdfs.py DEST", file=sys.stderr)
        return 2
    repo = Path(__file__).resolve().parents[2]
    dest = make_edited_tree(Path(argv[1]), repo)
    print("edited tree at %s (one statement added to DataNode.receive_block)" % dest)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
