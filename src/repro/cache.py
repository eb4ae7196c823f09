"""Content-addressed experiment cache: skip re-executing what cannot change.

Every profile run group and every (fault, test) injection experiment is a
pure function of *(system structure, test id, injection plans,
result-affecting config, seeds)* — the determinism guarantee the executor
backends already rely on.  The cache turns that purity into incremental
campaigns: results are stored on disk under a SHA-256 **key digest** of
exactly that tuple, so a repeated campaign replays byte-identical results
instead of re-simulating, and *any* relevant change — a site added to the
registry, a workload renamed, a bumped ``SystemSpec.version``, a different
seed or delay sweep — changes the digest and misses cleanly.  Knobs listed
in :data:`repro.config.EXECUTION_ONLY_KNOBS` (backends, worker counts, the
cache directory itself) are excluded from the key, so a warm cache written
by a serial campaign serves process- and agent-backed ones.

Layout (all writes atomic, safe for concurrent worker processes)::

    <cache-dir>/
        <digest[:2]>/<digest>.json   # {"schema": N, "kind": ..., "key": ..., "data": ...}

Entries embed the full key material for debuggability; unreadable or
mismatching entries are treated as misses.  Hit/miss/store counters are
kept per :class:`ExperimentCache` instance and surfaced by the CLI
(stderr), by agents to their manager, and by ``benchmarks/campaign_bench``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from .config import CSnakeConfig
from .core.fca import FcaResult
from .faults import fault_models_digest, model_for, schedules_digest
from .instrument.plan import InjectionPlan
from .instrument.trace import RunGroup
from .serialize import (
    atomic_write_json,
    fault_to_obj,
    fca_from_obj,
    fca_to_obj,
    group_from_obj,
    group_to_obj,
    plan_to_obj,
)
from .systems.base import SystemSpec
from .types import FaultKey

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .analysis import SliceAnalysis

#: Bump when the entry layout or any codec changes incompatibly; old
#: entries then read as misses instead of corrupt results.
#:
#: Schema history:
#:   1 — PR 4 layout (closed three-kind fault taxonomy).
#:   2 — pluggable fault models: plan payloads grew a ``params`` codec,
#:       ``SystemSpec.digest`` covers environment sites, and every key
#:       embeds the fault-model registry digest.
#:   3 — per-site code-slice keying (``repro.analysis``): experiment keys
#:       embed the injected site's slice digest, profile keys the test's
#:       entry-point slice digest, and the whole-spec digest moved into
#:       the *fallback* component used only when the slicer could not
#:       resolve the site (``slice_unresolved``) or the system declares
#:       no ``source_modules``.  Editing one handler now invalidates
#:       exactly the entries whose slice can reach it.
#:   4 — compositional fault schedules: every key embeds the schedule
#:       registry digest, and an experiment key's slice component is the
#:       *union* of the slices of every site its plans touch
#:       (``FaultModel.plan_sites``) — a composed schedule's entry goes
#:       stale when any of its constituent sites' code changes, not just
#:       the anchor site's.
CACHE_SCHEMA = 4


class ExperimentCache:
    """On-disk, content-addressed store of campaign intermediate results.

    One instance serves one ``(system, config)`` campaign: the spec digest
    and the result-affecting config snapshot are folded into every key at
    construction.  ``hits``/``misses``/``stores`` count this instance's
    lookups only.
    """

    def __init__(self, root: "os.PathLike[str]", spec: SystemSpec, config: CSnakeConfig) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.spec = spec
        self.system = spec.name
        self.spec_digest = spec.digest()
        self.sites_digest = spec.sites_digest()
        self.models_digest = fault_models_digest()
        self.schedules_digest = schedules_digest()
        self.config_snapshot = config.result_affecting()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ---------------------------------------------------------------- keys

    def _slices(self) -> Optional["SliceAnalysis"]:
        """The spec's code-slice analysis (lazy: worker processes rebuild
        the cache from a pickled task, and the analysis is a deterministic
        function of the source files, so they re-derive identical keys)."""
        return self.spec.slice_analysis()

    def _site_slice(self, site_id: str) -> Dict[str, Any]:
        """Slice component of an experiment key: the injected site's slice
        digest, or — when the slicer could not bind the site to code, or
        the system declares no source modules — the whole-spec digest
        with an explicit fallback reason."""
        slices = self._slices()
        if slices is None:
            return {"digest": None, "reason": "no_source_analysis", "spec": self.spec_digest}
        digest = slices.site_digests.get(site_id)
        if digest is None:
            return {"digest": None, "reason": "slice_unresolved", "spec": self.spec_digest}
        return {"digest": digest}

    def _entry_slice(self, test_id: str) -> Dict[str, Any]:
        """Slice component of a profile key: the closure from the test's
        workload entry point."""
        slices = self._slices()
        if slices is None:
            return {"digest": None, "reason": "no_source_analysis", "spec": self.spec_digest}
        digest = slices.entry_digests.get(test_id)
        if digest is None:
            return {"digest": None, "reason": "slice_unresolved", "spec": self.spec_digest}
        return {"digest": digest}

    def _digest(self, kind: str, payload: Dict[str, Any], *, test_id: str) -> str:
        material = {
            "schema": CACHE_SCHEMA,
            "kind": kind,
            "system": self.system,
            # All site rows (ids, kinds, metadata) — traces record every
            # registered site and loop parent/sibling rows feed the FCA
            # edge derivation, so results may depend on any of them.
            "sites": self.sites_digest,
            # This test's declared duration and sim config; *other*
            # workloads cannot affect this entry and are not keyed.
            "workload": self.spec.workload_row(test_id),
            # Registry fingerprints: registering or revising a fault model
            # or a fault schedule shifts every key, so results computed
            # under a different fault vocabulary can never replay as hits.
            "fault_models": self.models_digest,
            "schedules": self.schedules_digest,
            "config": self.config_snapshot,
        }
        material.update(payload)
        blob = json.dumps(material, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def profile_key(self, test_id: str) -> str:
        """Key of the fault-free profile run group of ``test_id``."""
        return self._digest(
            "profile",
            {"test_id": test_id, "slice": self._entry_slice(test_id)},
            test_id=test_id,
        )

    def experiment_key(
        self, test_id: str, fault: FaultKey, plans: List[InjectionPlan]
    ) -> str:
        """Key of one (fault, test) injection experiment (its full plan
        sweep counts as one entry, mirroring one budget unit)."""
        model = model_for(fault.kind)
        touched = sorted({site for p in plans for site in model.plan_sites(p)})
        return self._digest(
            "experiment",
            {
                "test_id": test_id,
                "fault": fault_to_obj(fault),
                "plans": [plan_to_obj(p) for p in plans],
                # Slice union over every site the plans touch: one entry
                # per site so any constituent's code change misses.
                "slices": [[site, self._site_slice(site)] for site in touched],
            },
            test_id=test_id,
        )

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / (key + ".json")

    # -------------------------------------------------------------- lookup

    def _load(self, key: str, kind: str) -> Optional[Any]:
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if payload.get("schema") != CACHE_SCHEMA or payload.get("kind") != kind:
            self.misses += 1
            return None
        self.hits += 1
        return payload["data"]

    def _store(self, key: str, kind: str, key_material: Dict[str, Any], data: Any) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # unique_tmp: worker processes racing on one entry write identical
        # bytes, but must not share a temp-file name while doing so.
        atomic_write_json(
            path,
            {
                "schema": CACHE_SCHEMA,
                "kind": kind,
                "system": self.system,
                "spec": self.spec_digest,
                "key": key_material,
                "data": data,
            },
            unique_tmp=True,
        )
        self.stores += 1

    def lookup_profile(self, key: str) -> Optional[RunGroup]:
        data = self._load(key, "profile")
        if data is None:
            return None
        try:
            return group_from_obj(data)
        except (KeyError, TypeError, ValueError):
            self.hits -= 1  # corrupt entry: count it as the miss it is
            self.misses += 1
            return None

    def store_profile(self, key: str, test_id: str, group: RunGroup) -> None:
        self._store(key, "profile", {"test_id": test_id}, group_to_obj(group))

    def lookup_experiment(self, key: str) -> Optional[Tuple[FcaResult, int]]:
        data = self._load(key, "experiment")
        if data is None:
            return None
        try:
            return fca_from_obj(data["result"]), int(data["runs"])
        except (KeyError, TypeError, ValueError):
            self.hits -= 1
            self.misses += 1
            return None

    def store_experiment(
        self, key: str, test_id: str, fault: FaultKey, result: FcaResult, runs: int
    ) -> None:
        self._store(
            key,
            "experiment",
            {"test_id": test_id, "fault": fault_to_obj(fault)},
            {"result": fca_to_obj(result), "runs": runs},
        )

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        """Number of entries on disk (walks the store; for tests/tools)."""
        return sum(1 for _ in self.root.glob("*/*.json"))

    def stats(self) -> Dict[str, Any]:
        return {
            "dir": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }
