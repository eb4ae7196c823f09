"""The four campaign workloads, spelled out literally.

Configs are written here, not taken from ``repro.bench.bench_config``, so
a later refactor of ``repro.bench`` or ``cli.py`` cannot change what a
workload measures.  Names are fixed; later issues cite them.

The configs are ISSUE 11's in shape (same systems, fault kinds,
schedules, adaptive budget, beam width and chain length) but smaller in
``repeats``, delays and ``budget_per_fault``: the driver of
``BENCHMARK.json`` allows about 37 s per invocation, set-up included, and
one evaluation-scale minihdfs2 campaign (ROADMAP.md's digest
``1b5c754e…``) alone takes 24 s.  At this size a campaign runs once in
set-up and three to five times in a 20 s window (`hdfs2_warm`, which
replays the cache, twenty times).

The campaign seed is part of the workload, like the system: the cost of
a campaign depends on it — on minihdfs2 the beam search of seeds 1..8
takes 0.07 s to 2.6 s for one config — so runs whose campaign seed
differed could not be compared with each other.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional, Tuple

CAMPAIGN_SEED = 7

#: ``"all"`` is expanded at run time through ``repro.faults``
#: (``expand_kinds("all")``, every registered schedule).
_HDFS2 = dict(
    repeats=2, delay_values_ms=(8000.0,), budget_per_fault=4,
    beam_width=30_000, max_chain_len=5,
)
_DFS = dict(
    fault_kinds="all", schedules="all", adaptive_budget=True,
    repeats=2, delay_values_ms=(8000.0,), budget_per_fault=4,
)

#: ``--smoke`` (contract test): the same shapes on the ``toy`` system, a
#: fraction of a second each.
SMOKE_SYSTEM = "toy"
_HDFS2_SMOKE = dict(repeats=2, delay_values_ms=(2000.0,), budget_per_fault=2)
_DFS_SMOKE = dict(
    fault_kinds="all", schedules="all", adaptive_budget=True,
    repeats=2, delay_values_ms=(2000.0,), budget_per_fault=1,
)

#: Seeded bugs every campaign on the system must detect.  At this budget
#: minihdfs2 misses H2-2, H2-5 and H2-6 today.
PINNED_BUGS: Dict[str, Tuple[str, ...]] = {
    "minihdfs2": ("H2-1", "H2-3", "H2-4"),
    "minidfs": ("DFS-1", "DFS-2", "DFS-3", "DFS-4"),
}


class Workload(NamedTuple):
    name: str
    system: str
    config: Dict[str, Any]
    smoke_config: Dict[str, Any]
    #: ``None``: no cache.  ``"cold"``: every rep gets a fresh empty cache
    #: directory (all misses and stores).  ``"warm"``: every rep replays
    #: the directory that set-up filled (all hits, no simulated run).
    cache: Optional[str]
    backend: str
    workers: int


#: Why each one exists is in ``BENCHMARK.json`` and README.md.
WORKLOADS: Tuple[Workload, ...] = (
    Workload("hdfs2_cold", "minihdfs2", _HDFS2, _HDFS2_SMOKE, "cold", "serial", 1),
    Workload("hdfs2_warm", "minihdfs2", _HDFS2, _HDFS2_SMOKE, "warm", "serial", 1),
    Workload("dfs_env_serial", "minidfs", _DFS, _DFS_SMOKE, None, "serial", 1),
    Workload("dfs_env_process2", "minidfs", _DFS, _DFS_SMOKE, None, "process", 2),
)

BY_NAME = {w.name: w for w in WORKLOADS}
