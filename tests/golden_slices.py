"""Golden call graphs and slices: what the code slicer resolves, by name.

For every registered system, one sha256 over the canonical JSON of what
the slicer derives from the system's live source: the call-graph edges
with ``calls_seen`` and ``calls_resolved``, each site's root functions
and slice, each workload's entry function, the reachable set, and the
unresolved sites and entries.  Everything digested is a function key, a
site id, a test id, a count or a reason string — no ``ast.dump`` text —
so one fixture serves every supported Python version.

``golden_slices.json`` was recorded on the commit *before* the
per-function CFG and typed-local resolution were deleted from
``repro.analysis``; a change of the slicer that keeps every digest
keeps every call edge, slice and reachability verdict.
``tests/unit/test_golden_slices.py`` checks it in tier-1.

Check::

    PYTHONPATH=src python tests/golden_slices.py --check

Regenerate (only for an intended change of what the slicer resolves, or
of a system's source)::

    PYTHONPATH=src python tests/golden_slices.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict

from repro.analysis import analyze_system, live_sources
from repro.analysis.astutil import collect_module
from repro.analysis.callgraph import build_call_graph
from repro.systems import available_systems, get_system

FIXTURE = Path(__file__).with_name("golden_slices.json")


def slice_payload(system: str) -> Dict[str, Any]:
    """The name-level result of slicing ``system``'s live source."""
    spec = get_system(system)
    sources = live_sources(spec.source_modules)
    graph = build_call_graph(
        {name: collect_module(name, sources[name]) for name in sorted(sources)}
    )
    analysis = analyze_system(spec, sources)
    return {
        "edges": {key: list(targets) for key, targets in graph.edges.items()},
        "calls_seen": graph.calls_seen,
        "calls_resolved": graph.calls_resolved,
        "site_roots": {k: list(v) for k, v in analysis.site_roots.items()},
        "site_slices": {k: list(v) for k, v in analysis.site_slices.items()},
        "entry_function": analysis.entry_function,
        "reachable": sorted(analysis.reachable),
        "unresolved": analysis.unresolved,
        "unresolved_entries": analysis.unresolved_entries,
    }


def slice_digest(system: str) -> str:
    blob = json.dumps(slice_payload(system), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


if __name__ == "__main__":
    digests = {system: slice_digest(system) for system in available_systems()}
    if sys.argv[1:] == ["--check"]:
        golden = json.loads(FIXTURE.read_text())
        for name in sorted(set(golden) | set(digests)):
            same = golden.get(name) == digests.get(name)
            print("%-10s %s" % (name, "ok" if same else "MISMATCH: %s" % digests.get(name)))
        sys.exit(0 if digests == golden else 1)
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print("wrote %s (%d systems)" % (FIXTURE, len(digests)))
