"""Content-addressed experiment cache: skip re-executing what cannot change.

Every profile run group and every (fault, test) injection experiment is a
pure function of *(system structure, test id, injection plans,
result-affecting config, seeds)* — the determinism guarantee the executor
backends already rely on.  The cache turns that purity into incremental
campaigns: results are stored on disk under a SHA-256 **key digest** of
exactly that tuple, so a repeated campaign replays byte-identical results
instead of re-simulating, and *any* relevant change — a site added to the
registry, a workload renamed, a bumped ``SystemSpec.version``, a different
seed or delay sweep — changes the digest and misses cleanly.  The
code-slice analysis those keys embed is as pure a function of the target's
source files, so it is the third kind of entry (``slices``): a campaign
with a cache directory slices a system's source once, not once per
campaign.  Knobs listed
in :data:`repro.config.EXECUTION_ONLY_KNOBS` (backends, worker counts, the
cache directory itself) are excluded from the key, so a warm cache written
by a serial campaign serves process- and agent-backed ones.

Layout (all writes atomic, safe for concurrent worker processes)::

    <cache-dir>/
        <digest[:2]>/<digest>.json   # {"data": ..., "key": ..., "kind": ...,
                                     #  "schema": N, "sha256": ..., ...}

An entry is one sorted-key JSON object, so ``data`` comes first and its
bytes run from a fixed offset to wherever the JSON value ends;
``sha256`` is the digest of exactly those bytes as written.  Entries
embed key material for debuggability; unreadable, malformed or
mismatching entries are treated as misses (and overwritten by the
recompute), and an entry whose data no longer hashes to its checksum —
a value changed inside valid JSON — is a miss counted as ``corrupt``.
Hit/miss/store counters — of ``profile`` and ``experiment`` entries
only; the one ``slices`` lookup is reported as ``replayed`` or
``recomputed`` — are kept per :class:`ExperimentCache` instance and
surfaced by the CLI (stderr), by agents to their manager, and by
``benchmarks/campaign_bench``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, TypeVar

from .analysis.slicer import workload_entries
from .analysis.source import analyzer_digest
from .config import CSnakeConfig
from .core.fca import FcaResult
from .faults import fault_models_digest, model_for
from .instrument.plan import InjectionPlan
from .instrument.trace import RunGroup
from .serialize import (
    InternTable,
    atomic_write_text,
    fault_to_obj,
    fca_from_obj,
    fca_to_obj,
    group_from_obj,
    group_to_obj,
    plan_to_obj,
    slices_from_obj,
    slices_to_obj,
)
from .systems.base import SystemSpec
from .types import FaultKey

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .analysis import SliceAnalysis

_T = TypeVar("_T")

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
#:   5 — configs, plans and traces hold only what something reads: six
#:       never-set config knobs left every key's ``config`` component
#:       (``crash_restart_values_ms``, ``partition_values_ms``,
#:       ``drop_prob_values``, ``cluster_distance``,
#:       ``injection_warmup_ms``, ``sticky_negation``), plans lost their
#:       ``sticky`` key, traces ``branches_recorded`` and
#:       ``virtual_end_ms``, fault events their ``time``; FCA results
#:       must carry ``min_p`` and ``aborted``.
#:
#: The ``slices`` entry kind was added without a bump: it changes no
#: existing key or codec, so a schema-4 cache written before it replays
#: fully warm and merely gains the one entry.
#:
#: The ``schedules`` key component left without a bump when schedules
#: joined the one fault-model registry: ``fault_models`` now covers them.
#: Every key changed but no codec did, so a schema-5 cache written before
#: reads as clean misses, never as corrupt or stale entries.
#:
#:   6 — a profile entry holds its run group's columns (``n_runs``, a
#:       count row per loop site, loop-state unions, per-fault natural
#:       hits and state unions, injected states, ``reached``) instead of
#:       one serialized trace per run, and every entry carries the
#:       ``sha256`` of its data bytes, checked on each lookup.
CACHE_SCHEMA = 6

#: How every entry begins: sorted keys put ``data`` first.
_DATA = '{"data": '
_DECODER = json.JSONDecoder()


class ExperimentCache:
    """On-disk, content-addressed store of campaign intermediate results.

    One instance serves one ``(system, config)`` campaign: the spec digest
    and the result-affecting config snapshot are folded into every key at
    construction.  ``hits``/``misses``/``stores`` count this instance's
    profile and experiment lookups only; ``slices`` says what became of
    its one code-slice lookup.
    """

    def __init__(self, root: "os.PathLike[str]", spec: SystemSpec, config: CSnakeConfig) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.spec = spec
        self.system = spec.name
        self.spec_digest = spec.digest()
        self.sites_digest = spec.sites_digest()
        self.models_digest = fault_models_digest()
        self.config_snapshot = config.result_affecting()
        # What a stored slice analysis additionally depends on: the
        # analyzer's own source (a smarter call graph must never replay a
        # stale slice, also not across the two trees of ``repro diff-run``,
        # which share one cache directory) and the interpreter's
        # (major, minor), because the digests are over ``ast.dump``.
        self.analyzer_digest = analyzer_digest()
        self.python = sys.version_info[:2]
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Lookups of any kind whose entry failed its checksum (each is
        #: also a miss, or a recomputed slice analysis).
        self.corrupt = 0
        #: ``"replayed"`` / ``"recomputed"`` once the slice analysis went
        #: through this cache; ``None`` when it never did (the spec carried
        #: one already, or declares no source modules).
        self.slices: Optional[str] = None
        #: The decoded faults, local states and state sets of every entry
        #: this instance replayed, one object per distinct value: a warm
        #: campaign's edges then share their state sets.
        self.interned = InternTable()

    # ---------------------------------------------------------------- keys

    def _slices(self) -> Optional["SliceAnalysis"]:
        """The spec's code-slice analysis: the one the driver attached
        (replayed from this cache or freshly computed), else sliced
        lazily — either way a deterministic function of the source files,
        so every process derives identical keys."""
        return self.spec.slice_analysis()

    def _slice(self, ident: str, *, entry: bool = False) -> Dict[str, Any]:
        """Slice component of a key: the slice digest of an injected site
        (of a test's workload entry point when ``entry``), or — when the
        slicer could not bind it to code, or the system declares no
        source modules — the whole-spec digest with an explicit fallback
        reason."""
        slices = self._slices()
        if slices is None:
            return {"digest": None, "reason": "no_source_analysis", "spec": self.spec_digest}
        digest = (slices.entry_digests if entry else slices.site_digests).get(ident)
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
            # Registry fingerprint: registering or revising a fault model
            # (a schedule is one) shifts every key, so results computed
            # under a different fault vocabulary can never replay as hits.
            "fault_models": self.models_digest,
            "config": self.config_snapshot,
        }
        material.update(payload)
        blob = json.dumps(material, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def profile_key(self, test_id: str) -> str:
        """Key of the fault-free profile run group of ``test_id``."""
        return self._digest(
            "profile",
            {"test_id": test_id, "slice": self._slice(test_id, entry=True)},
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
                "slices": [[site, self._slice(site)] for site in touched],
            },
            test_id=test_id,
        )

    def slices_key(self, sources: Dict[str, str]) -> str:
        """Key of the code-slice analysis of ``sources`` (module name ->
        source text) against this spec's sites and workloads: everything
        the analysis is a function of — and no campaign config, so every
        campaign over one system shares the entry."""
        material = {
            "schema": CACHE_SCHEMA,
            "kind": "slices",
            "system": self.system,
            "sources": [
                [module, hashlib.sha256(text.encode("utf-8")).hexdigest()]
                for module, text in sorted(sources.items())
            ],
            # The site rows the slicer binds, and the entry points it
            # closes over.
            "sites": sorted([s.site_id, s.kind.value, s.function] for s in self.spec.registry),
            "entries": workload_entries(self.spec),
            "analyzer": self.analyzer_digest,
            "python": list(self.python),
        }
        return hashlib.sha256(json.dumps(material, sort_keys=True).encode()).hexdigest()

    def _path(self, key: str) -> str:
        # A string, not two pathlib joins: a warm campaign looks up about
        # a hundred entries.
        return "%s/%s/%s.json" % (self.root, key[:2], key)

    # -------------------------------------------------------------- lookup

    def _load(self, key: str, kind: str, decode: Callable[[Any], _T]) -> Optional[_T]:
        """The decoded entry under ``key``, or ``None`` for anything that
        is not a well-formed entry of this kind and schema: a missing or
        truncated file, JSON that is not an object, a missing field, data
        that fails its checksum (counted in ``corrupt``), data the codec
        rejects."""
        try:
            with open(self._path(key), "rb") as fh:
                raw = fh.read()
            # Latin-1 maps each byte to one character, so the decoder's
            # offsets are byte offsets into ``raw``.
            text = raw.decode("latin-1")
            if not text.startswith(_DATA):
                return None
            data, end = _DECODER.raw_decode(text, len(_DATA))
            header = json.loads("{" + text[end + 1 :])  # text[end:] is ', "key": ...}'
            if header["schema"] != CACHE_SCHEMA or header["kind"] != kind:
                return None
            if hashlib.sha256(raw[len(_DATA) : end]).hexdigest() != header["sha256"]:
                self.corrupt += 1
                return None
            return decode(data)
        except (OSError, ValueError, LookupError, TypeError, AttributeError):
            return None

    def _lookup(self, key: str, kind: str, decode: Callable[[Any], _T]) -> Optional[_T]:
        """:meth:`_load`, counted: a hit once the entry has decoded,
        everything else a miss."""
        value = self._load(key, kind, decode)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def _store(self, key: str, kind: str, key_material: Dict[str, Any], data: Any) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        text = json.dumps(data, sort_keys=True)
        header = json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "kind": kind,
                "system": self.system,
                "spec": self.spec_digest,
                "key": key_material,
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
            },
            sort_keys=True,
        )
        # Every header key sorts after "data", so this is the sorted dump
        # of the whole entry, with the data encoded once.  Writers racing
        # on one entry write identical bytes, each through its own temp
        # file.
        atomic_write_text(path, "%s%s, %s\n" % (_DATA, text, header[1:]))

    def lookup_profile(self, key: str) -> Optional[RunGroup]:
        return self._lookup(key, "profile", lambda data: group_from_obj(data, self.interned))

    def store_profile(self, key: str, test_id: str, group: RunGroup) -> None:
        self._store(key, "profile", {"test_id": test_id}, group_to_obj(group))
        self.stores += 1

    def lookup_experiment(self, key: str) -> Optional[Tuple[FcaResult, int]]:
        return self._lookup(
            key,
            "experiment",
            lambda data: (fca_from_obj(data["result"], self.interned), int(data["runs"])),
        )

    def store_experiment(
        self, key: str, test_id: str, fault: FaultKey, result: FcaResult, runs: int
    ) -> None:
        self._store(
            key,
            "experiment",
            {"test_id": test_id, "fault": fault_to_obj(fault)},
            {"result": fca_to_obj(result), "runs": runs},
        )
        self.stores += 1

    def lookup_slices(self, key: str) -> Optional["SliceAnalysis"]:
        slices = self._load(key, "slices", slices_from_obj)
        if slices is not None:
            self.slices = "replayed"
        return slices

    def store_slices(self, key: str, slices: "SliceAnalysis") -> None:
        self._store(
            key,
            "slices",
            {"analyzer": self.analyzer_digest, "python": list(self.python)},
            slices_to_obj(slices),
        )
        self.slices = "recomputed"

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
            "corrupt": self.corrupt,
            "slices": self.slices,
        }
