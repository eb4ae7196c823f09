"""Golden campaigns: the end-to-end bit-identity contract, and what each
campaign detects.

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

What a campaign detects is the third view of the same runs: which seeded
bugs, for how many runs and budget units, from how many edges and
cycles.  Those rows cover every campaign of :data:`CAMPAIGNS`: the three
above, and six default-config campaigns named by a key
``<system>/<flavour>/r<repeats>/s<seed>`` (:func:`keyed_campaign`) that
pin the campaign matrix — classic kinds against environment kinds against
composed schedules, with the adaptive respend on or off.
``golden_detection.json`` was recorded on the source tree of commit
``e105449``, the last commit whose acceptance tests ran those six
campaigns by hand.  A change reproduces it when it changes nothing a
campaign reports, as for the digests; an intended change of what a
campaign detects re-records it, and
``test_detection_rows_keep_the_campaign_matrix`` in
``tests/unit/test_golden.py`` must still pass on the new rows.

Detection power is a rate over seeds, so the ``detection`` rows also hold
a panel (:data:`PANEL`): both benchmark-scale campaigns at seeds 1–8,
``<campaign>/s<seed>``, with nothing but the seed replaced.  Those 16 rows
were recorded on the source tree of commit ``3a07d98``;
``test_panel_rates_hold`` asserts each pinned bug's rate over the eight
seeds.

They are three entries of ``tests/golden.py`` with one row per campaign:
``campaigns`` (the digests) and ``campaign_searches`` (the counters) for
the three named campaigns, ``detection`` for all 25.
:func:`campaign_rows` runs each campaign once for all three, and two names
of one ``(system, config)`` once between them: the panel's seed-7 rows
are the two benchmark-scale campaigns themselves.  The test
suite checks every campaign but the evaluation-scale one (~20 s) and the
panel's seeds 5–8, which only ``tests/golden.py`` checks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, NamedTuple, Optional, Tuple

from repro.config import CSnakeConfig
from repro.faults import expand_kinds, registered_schedules
from repro.pipeline import Pipeline, PipelineContext
from repro.serialize import edge_to_obj
from repro.systems import get_system
from tests.golden_fault_spaces import flavours
from tests.paper_tables import bench_config

#: The campaigns the ``campaigns`` and ``campaign_searches`` goldens pin.
DIGESTED: Dict[str, Tuple[str, CSnakeConfig]] = {
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

#: The campaign matrix at one seed per system: every other knob is its
#: default (the paper's budget and sweeps).
MATRIX = (
    "minidfs/all+schedules+adaptive/r5/s7",
    "minidfs/all+adaptive/r5/s7",
    "minidfs/classic/r5/s7",
    "miniraft/all/r5/s1234",
    "miniraft/all+schedules+adaptive/r5/s1234",
    "miniraft/all+schedules/r5/s1234",
)


def keyed_campaign(key: str) -> Tuple[str, CSnakeConfig]:
    """``<system>/<flavour>[+adaptive]/r<repeats>/s<seed>`` -> (system,
    config): the flavour's fault-space fields from
    ``golden_fault_spaces.flavours()``, ``adaptive_budget`` on for the
    ``+adaptive`` suffix, and the repeats and seed the key names."""
    system, flavour, repeats, seed = key.split("/")
    fields = dict(flavours()[flavour.removesuffix("+adaptive")])
    if flavour.endswith("+adaptive"):
        fields["adaptive_budget"] = True
    return system, CSnakeConfig(repeats=int(repeats[1:]), seed=int(seed[1:]), **fields)


#: The seeds of the detection panel, and the ones the test suite runs.
PANEL_SEEDS = range(1, 9)
SUITE_SEEDS = range(1, 5)

#: The detection panel: each benchmark-scale :data:`DIGESTED` campaign at
#: every seed of :data:`PANEL_SEEDS`, named ``<campaign>/s<seed>``, with
#: nothing but ``seed`` replaced.
PANEL: Dict[str, Tuple[str, CSnakeConfig]] = {
    "%s/s%d" % (name, seed): (system, dataclasses.replace(config, seed=seed))
    for name, (system, config) in DIGESTED.items()
    if name.endswith("_benchmark")
    for seed in PANEL_SEEDS
}

#: Campaign name -> (system, config).
CAMPAIGNS: Dict[str, Tuple[str, CSnakeConfig]] = {
    **DIGESTED, **{key: keyed_campaign(key) for key in MATRIX}, **PANEL,
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


def detection_row(ctx: PipelineContext) -> Dict[str, Any]:
    """Which seeded bugs a finished campaign detected, and what it spent."""
    report = ctx.get("report")
    return {
        "detected": report.detected_bugs,
        "runs": report.runs_executed,
        "budget": report.budget_used,
        "edges": report.n_edges,
        "cycles": len(report.cycles),
    }


class CampaignRows(NamedTuple):
    digest: Optional[str]
    search: Dict[str, int]
    detection: Dict[str, Any]


def _run_key(system: str, config: CSnakeConfig) -> Tuple[str, str]:
    """What decides a campaign's rows: its system and its whole config."""
    return system, json.dumps(config.to_dict(), sort_keys=True)


#: The runs of the :data:`DIGESTED` campaigns, by :func:`_run_key`.
_DIGESTED_RUNS = {_run_key(*campaign) for campaign in DIGESTED.values()}
#: The rows of every run so far, by :func:`_run_key`.
_ROWS: Dict[Tuple[str, str], CampaignRows] = {}


def campaign_rows(name: str) -> CampaignRows:
    """One campaign's row of each of its goldens; each ``(system, config)``
    runs once, whatever names it.

    Only a :data:`DIGESTED` campaign's run is digested: no golden pins
    another's digest, and digesting a default-config campaign costs up to
    a second.
    """
    system, config = CAMPAIGNS[name]
    run = _run_key(system, config)
    if run not in _ROWS:
        ctx = Pipeline.default(get_system(system), config).run()
        digest = context_digest(ctx) if run in _DIGESTED_RUNS else None
        _ROWS[run] = CampaignRows(digest, search_counters(ctx), detection_row(ctx))
    return _ROWS[run]
