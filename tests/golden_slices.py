"""Golden call graphs and slices: what the code slicer resolves, by name.

For every registered system, one sha256 over the canonical JSON of what
the slicer derives from the system's live source: the call-graph edges
with ``calls_seen`` and ``calls_resolved``, each site's root functions
and slice, each workload's entry function, the reachable set, and the
unresolved sites and entries.  Everything digested is a function key, a
site id, a test id, a count or a reason string — no ``ast.dump`` text —
so one fixture serves every supported Python version.  A site's slice is
the closure of its roots over the call graph built here; the analysis
keeps only the roots.

``golden_slices.json`` was recorded on the commit *before* the
per-function CFG and typed-local resolution were deleted from
``repro.analysis``; a change of the slicer that keeps every digest
keeps every call edge, slice and reachability verdict.  The minihdfs2
and minihdfs3 rows were re-recorded when ``DataNode.reconstruction_tick``
took a stable ``zlib.crc32`` stripe index in place of ``hash``: their
payloads moved only in ``calls_seen`` (416 to 417, the added
``bid.encode()``).  The toy row was re-recorded when ``build_system``
began to call ``build_registry()`` per spec instead of reading a
module-level registry built at import: its payload moved only by that
one call (``calls_seen`` 86 to 87, ``calls_resolved`` 17 to 18, and the
edge ``build_system -> build_registry``).

The miniflink, minihbase, minihdfs2, minihdfs3, miniozone and miniraft
rows were re-recorded when sites stopped declaring their enclosing
function and the slicer lost its fallback to that declared name: a site
whose hook literal is in no function body is unresolved with the one
reason ``site literal not found``.  Every unresolved reason string
changed with it.  Eight site-system pairs that only the fallback had
bound left ``site_roots`` and ``site_slices`` for ``unresolved``:
``tm.conf.is_local`` (miniflink), ``hm.assign.no_plan``,
``hm.plan.build`` and ``rs.conf.is_secure`` (minihbase),
``nn.conf.is_ha_enabled`` (minihdfs2 and minihdfs3), ``dn.conf.is_ratis``
(miniozone) and ``flw.conf.is_voter`` (miniraft).  The two minihdfs rows
also moved in ``calls_seen`` (417 to 415): ``hdfs_workloads`` stopped
copying each setup's docstring, and with it its ``.strip()`` and
``specs.append`` calls.  No call edge and no reachable set changed; the
minidfs and toy rows, which have no unresolved site, held.

It is the ``slices`` entry of ``tests/golden.py``: one row per system.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

from repro.analysis import analyze_system, live_sources
from repro.analysis.astutil import collect_module
from repro.analysis.callgraph import build_call_graph
from repro.systems import get_system


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
        "site_slices": {
            k: sorted(graph.reachable_from(v)) for k, v in analysis.site_roots.items()
        },
        "entry_function": analysis.entry_function,
        "reachable": sorted(analysis.reachable),
        "unresolved": analysis.unresolved,
        "unresolved_entries": analysis.unresolved_entries,
    }


def slice_digest(system: str) -> str:
    blob = json.dumps(slice_payload(system), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
