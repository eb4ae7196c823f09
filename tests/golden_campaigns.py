"""Golden campaign digests: the end-to-end bit-identity contract.

Three full campaigns are run through the default pipeline and digested
the way ``benchmarks/campaign_bench/run.py`` digests a rep: sha256 over
``{"report": report.to_dict(), "edges": [edge_to_obj(e) ...]}`` with
sorted keys.  The two benchmark-scale campaigns are the configurations
of the ``hdfs2_*`` and ``dfs_env_*`` workloads
(``benchmarks/campaign_bench/workloads.py``); the third is the
evaluation configuration of the paper tables (``bench_config("minihdfs2")``
in ``tests/paper_tables.py``).  The checked-in
``golden_campaign_digests.json`` was recorded on commit ``377cc61`` —
the commit *before* the single-shot bench verb and the thread backend
were removed; every later commit must reproduce it unless it intends to
change what a campaign reports.

The digests cover cycles and edges but not how the search got there, so
the same contexts also pin the ``search`` stage at campaign scale: edge,
cycle and chain counts, ``levels`` and the three ``CompatChecker``
counters, in the ``"campaigns"`` block of ``golden_beam.json`` (recorded
on commit ``762a35c`` — the commit *before* the beam kernel stopped
holding per-candidate rows).

They are two entries of ``tests/golden.py`` with one row per campaign:
``campaigns`` (the digests) and ``campaign_searches`` (the counters).
:func:`campaign_rows` runs each campaign once for both.  The test suite
checks the two benchmark-scale campaigns (~6 s together); the
evaluation-scale one (~20 s) only ``tests/golden.py`` checks.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Dict, Tuple

from repro.config import CSnakeConfig
from repro.faults import expand_kinds, registered_schedules
from repro.pipeline import Pipeline, PipelineContext
from repro.serialize import edge_to_obj
from repro.systems import get_system
from tests.paper_tables import bench_config

#: Campaign name -> (system, config).
CAMPAIGNS: Dict[str, Tuple[str, CSnakeConfig]] = {
    "minihdfs2_benchmark": (
        "minihdfs2",
        CSnakeConfig(
            seed=7, repeats=2, delay_values_ms=(8000.0,), budget_per_fault=4,
            beam_width=30_000, max_chain_len=5,
        ),
    ),
    "minidfs_benchmark": (
        "minidfs",
        CSnakeConfig(
            seed=7, repeats=2, delay_values_ms=(8000.0,), budget_per_fault=4,
            fault_kinds=expand_kinds("all"),
            schedules=tuple(registered_schedules()),
            adaptive_budget=True,
        ),
    ),
    "minihdfs2_evaluation": ("minihdfs2", bench_config("minihdfs2")),
}


def context_digest(ctx: PipelineContext) -> str:
    """What a finished campaign produced: its report and its causal edges."""
    payload = {
        "report": ctx.get("report").to_dict(),
        "edges": [edge_to_obj(e) for e in ctx.driver.edges.all_edges()],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def search_counters(ctx: PipelineContext) -> Dict[str, int]:
    """What a finished campaign's ``search`` stage did, as exact counts."""
    beam = ctx.get("beam")
    return {
        "edges_in": len(ctx.driver.edges),
        "cycles": len(beam.cycles),
        "chains_explored": beam.chains_explored,
        "levels": beam.levels,
        "checks": beam.compat.checks,
        "rejected_fault": beam.compat.rejected_fault,
        "rejected_state": beam.compat.rejected_state,
    }


@functools.lru_cache(maxsize=None)
def campaign_rows(name: str) -> Tuple[str, Dict[str, int]]:
    """One campaign's digest and search counters; the campaign runs once."""
    system, config = CAMPAIGNS[name]
    ctx = Pipeline.default(get_system(system), config).run()
    return context_digest(ctx), search_counters(ctx)
