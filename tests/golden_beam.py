"""Golden beam-search results: the bit-identity contract of the kernel.

For two small seeded campaigns (toy, miniraft) this runs the pipeline up
to the causal-edge set and searches it under a few beam settings, then
digests what ``BeamSearch.search`` returns: every cycle's serialized
edges (``key()`` and state sets) in result order, ``chains_explored``,
``levels`` and the three :class:`CompatChecker` counters.  The checked-in
``golden_beam.json`` was generated on the commit *before* cycle
reporting moved onto interned ids; a change to ``repro.core.beam`` must
reproduce it.

It is the ``beam`` entry of ``tests/golden.py``: one row per system of
:data:`SEARCHES`.  The fixture's ``"campaigns"`` key is not this
module's: it is the ``campaign_searches`` entry (``tests/golden_campaigns.py``),
and recording either entry leaves the other's keys as they are.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Any, Dict, List, Tuple

from repro.config import CSnakeConfig
from repro.core.beam import BeamSearch
from repro.pipeline import STAGES, PipelineContext
from repro.serialize import cycle_to_obj
from repro.systems import get_system
from repro.types import CausalEdge, FaultKey

_CAMPAIGN = dict(repeats=2, delay_values_ms=(2000.0,), budget_per_fault=4, seed=7)

#: case name -> beam settings searched over that system's edge set.  The
#: narrow cases truncate every level and end the search on a frontier
#: wider than the beam (the level the kernel no longer builds).
SEARCHES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "toy": {
        "default": {},
        "narrow": dict(beam_width=3, max_chain_len=4),
    },
    "miniraft": {
        "default": {},
        "narrow": dict(beam_width=300, max_chain_len=4, max_delay_faults=1),
        "no_compat": dict(beam_width=2000, max_chain_len=5, compat_check=False),
    },
}


@functools.lru_cache(maxsize=None)
def _edge_set(system: str) -> Tuple[List[CausalEdge], Dict[FaultKey, float]]:
    """One system's causal edges and fault scores (one campaign per process)."""
    ctx = PipelineContext(get_system(system), CSnakeConfig(**_CAMPAIGN))
    for _, stage in STAGES[:3]:
        stage(ctx)
    return ctx.driver.edges.all_edges(), ctx.get("allocation").outcome.fault_scores


def system_results(system: str) -> Dict[str, Dict[str, Any]]:
    """Case name -> digested search result for one system's edge set."""
    edges, scores = _edge_set(system)
    out: Dict[str, Dict[str, Any]] = {}
    for case, settings in sorted(SEARCHES[system].items()):
        beam = BeamSearch(CSnakeConfig(**_CAMPAIGN, **settings), scores)
        result = beam.search(edges)
        blob = json.dumps([cycle_to_obj(c) for c in result.cycles], sort_keys=True)
        out[case] = {
            "edges_in": len(edges),
            "cycles": len(result.cycles),
            "cycles_sha256": hashlib.sha256(blob.encode()).hexdigest(),
            "chains_explored": result.chains_explored,
            "levels": result.levels,
            "checks": beam.compat.checks,
            "rejected_fault": beam.compat.rejected_fault,
            "rejected_state": beam.compat.rejected_state,
        }
    return out
