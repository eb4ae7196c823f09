"""Trace-level golden digests: the bit-identity contract of the hot path.

For every registered system this runs each workload fault-free and one
injection run per fault kind (and schedule) the system's fault space
offers, and digests everything a run leaves behind — the serialized
:class:`RunTrace` (events with their local states, ``loop_counts``,
``loop_states``, ``reached``, ``saturated``) plus
``SimEnv.events_processed``.  The checked-in ``golden_trace_digests.json``
was generated on the commit *before* the sim core / instrumentation
runtime hot-path rewrite and re-recorded once, with ``CACHE_SCHEMA`` 5,
from that commit's traces minus the fields schema 5 deleted; a change to
``repro.sim`` or ``repro.instrument`` must reproduce every digest.

It is the ``traces`` entry of ``tests/golden.py``: one row per system.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from typing import Dict, Iterator, List

from repro import faults
from repro.config import CSnakeConfig
from repro.core import driver as driver_mod
from repro.instrument.analyzer import analyze
from repro.sim import SimEnv
from repro.systems import get_system

from tests.helpers import trace_to_obj

CAMPAIGN_SEED = 7


@contextmanager
def events_processed_log() -> Iterator[List[int]]:
    """Collect ``events_processed`` of every ``SimEnv.run`` in the block."""
    log: List[int] = []
    original = SimEnv.run

    def run(env: SimEnv, until_ms: float) -> None:
        original(env, until_ms)
        log.append(env.events_processed)

    SimEnv.run = run
    try:
        yield log
    finally:
        SimEnv.run = original


def _digest(spec, test_id, plan, seed):
    with events_processed_log() as log:
        trace = driver_mod.run_workload(spec, spec.workloads[test_id], plan, seed)
    obj = trace_to_obj(trace)
    obj["events_processed"] = log
    blob = json.dumps(obj, sort_keys=True).encode()
    return trace, hashlib.sha256(blob).hexdigest()


def system_digests(system: str) -> Dict[str, str]:
    """Case name -> digest for one system (profiles, then injections)."""
    spec = get_system(system)
    config = CSnakeConfig(
        fault_kinds=faults.expand_kinds("all"),
        schedules=tuple(faults.registered_schedules()),
        seed=CAMPAIGN_SEED,
    )
    out: Dict[str, str] = {}
    reached: Dict[str, set] = {}
    for test_id in spec.workload_ids():
        seed = driver_mod.seed_for(test_id, 0, config.seed)
        trace, out["profile/%s" % test_id] = _digest(spec, test_id, None, seed)
        reached[test_id] = trace.reached

    space = analyze(spec.registry, config.fault_kinds + config.schedules)
    by_kind: Dict[str, list] = {}
    for fault in space.faults:
        by_kind.setdefault(fault.kind, []).append(fault)
    for kind, kind_faults in sorted(by_kind.items()):
        model = faults.model_for(kind)
        # First fault of the kind some workload reaches (environment
        # faults disturb the world itself, so every workload does).
        for fault in kind_faults:
            tests = [
                t for t in spec.workload_ids()
                if model.environment or fault.site_id in reached[t]
            ]
            if tests:
                break
        else:
            continue
        # The highest-coverage reaching test, as phase one would pick.
        test_id = max(tests, key=lambda t: (len(reached[t]), t))
        plan = model.plans_for(fault, config, spec.registry)[-1]
        seed = driver_mod.seed_for(test_id, 0, config.seed)
        _, out["inject/%s/%s@%s" % (kind, fault.site_id, test_id)] = _digest(
            spec, test_id, plan, seed
        )
    return out
