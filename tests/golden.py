"""The self-recorded goldens: one registry, one check, one record.

Each entry of :data:`GOLDENS` pins rows of a JSON fixture under
``tests/``: ``keys`` names the rows and ``row(key)`` computes one, so a
single row is checked alone.  Two entries share ``golden_beam.json``:
``campaign_searches`` owns its ``"campaigns"`` key (its ``block``) and
``beam`` owns every other key.  ``tests/unit/test_golden.py`` checks every
row in the test suite except an entry's ``slow`` ones.  How each golden was
first recorded, and what a change must keep to reproduce it, is the
docstring of the module its rows come from.

Check (the default; ``ok`` / ``MISMATCH`` per golden and row, exit 1 on
any mismatch; no name checks every golden; a fixture not recorded yet
holds no rows, so each of its golden's rows is a ``MISMATCH``)::

    python tests/golden.py [NAME ...]

Record (only for an intended change of what a golden pins; it rewrites
the named goldens' rows, nothing else)::

    python tests/golden.py --record NAME [NAME ...]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

if __name__ == "__main__":  # run as a script: ``tests`` and ``repro`` importable
    sys.path[:0] = [str(Path(__file__).resolve().parents[1] / p) for p in ("", "src")]

from repro.systems import available_systems  # noqa: E402

from tests import golden_beam, golden_campaigns, golden_fault_spaces  # noqa: E402
from tests import golden_slices, golden_traces  # noqa: E402

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Golden:
    fixture: Path
    keys: Tuple[str, ...]
    row: Callable[[str], Any]
    #: The one top-level key of a shared fixture this golden owns; ``None``
    #: owns every key no other golden of the fixture claims as its block.
    block: Optional[str] = None
    #: Rows too slow for the test suite (``golden.py`` still checks them).
    slow: Tuple[str, ...] = ()


SYSTEMS = tuple(available_systems())
DIGESTED = tuple(sorted(golden_campaigns.DIGESTED))

GOLDENS: Dict[str, Golden] = {
    "traces": Golden(
        HERE / "golden_trace_digests.json", SYSTEMS, golden_traces.system_digests
    ),
    "beam": Golden(
        HERE / "golden_beam.json", tuple(sorted(golden_beam.SEARCHES)),
        golden_beam.system_results,
    ),
    "campaigns": Golden(
        HERE / "golden_campaign_digests.json", DIGESTED,
        lambda name: golden_campaigns.campaign_rows(name).digest,
        slow=("minihdfs2_evaluation",),
    ),
    "campaign_searches": Golden(
        HERE / "golden_beam.json", DIGESTED,
        lambda name: golden_campaigns.campaign_rows(name).search,
        block="campaigns", slow=("minihdfs2_evaluation",),
    ),
    "detection": Golden(
        HERE / "golden_detection.json", tuple(sorted(golden_campaigns.CAMPAIGNS)),
        lambda name: golden_campaigns.campaign_rows(name).detection,
        slow=("minihdfs2_evaluation",),
    ),
    "slices": Golden(HERE / "golden_slices.json", SYSTEMS, golden_slices.slice_digest),
    "fault_spaces": Golden(
        HERE / "golden_fault_spaces.json", SYSTEMS, golden_fault_spaces.system_rows
    ),
}


def _read(fixture: Path) -> Dict[str, Any]:
    """A fixture's JSON; one not yet recorded holds nothing."""
    return json.loads(fixture.read_text()) if fixture.exists() else {}


def recorded(name: str, goldens: Dict[str, Golden] = GOLDENS) -> Dict[str, Any]:
    """The rows of golden ``name`` as its fixture holds them."""
    golden = goldens[name]
    data = _read(golden.fixture)
    if golden.block is not None:
        return data.get(golden.block, {})
    return {k: v for k, v in data.items() if k not in _blocks(golden, goldens)}


def _blocks(golden: Golden, goldens: Dict[str, Golden]) -> List[str]:
    """The keys of ``golden``'s fixture that other goldens own as blocks."""
    return [
        g.block for g in goldens.values()
        if g.fixture == golden.fixture and g.block is not None
    ]


def check(name: str, goldens: Dict[str, Golden] = GOLDENS) -> bool:
    golden, want = goldens[name], recorded(name, goldens)
    same = True
    for key in sorted(set(golden.keys) | set(want)):
        if key not in golden.keys:
            verdict = "MISMATCH: recorded, not declared"
        else:
            got = golden.row(key)
            if key in want and got == want[key]:
                verdict = "ok"
            else:
                verdict = "MISMATCH: %s" % json.dumps(got, sort_keys=True)
        same = same and verdict == "ok"
        print("%-18s %-40s %s" % (name, key, verdict))
    return same


def record(name: str, goldens: Dict[str, Golden] = GOLDENS) -> None:
    golden = goldens[name]
    rows = {key: golden.row(key) for key in golden.keys}
    data = _read(golden.fixture)
    if golden.block is not None:
        data[golden.block] = rows
    else:
        data = dict(rows, **{k: data[k] for k in _blocks(golden, goldens) if k in data})
    golden.fixture.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print("wrote %d rows of %s to %s" % (len(rows), name, golden.fixture))


def main(argv: Sequence[str], goldens: Dict[str, Golden] = GOLDENS) -> int:
    parser = argparse.ArgumentParser(description="Check or record the golden fixtures.")
    parser.add_argument("--record", action="store_true", help="rewrite the named goldens")
    parser.add_argument("names", nargs="*", metavar="NAME", help=", ".join(goldens))
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(goldens))
    if unknown:
        parser.error("no golden named %s" % ", ".join(unknown))
    if args.record:
        if not args.names:
            parser.error("--record needs the name of each golden to record")
        for name in args.names:
            record(name, goldens)
        return 0
    results = [check(name, goldens) for name in args.names or goldens]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
