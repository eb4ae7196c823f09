"""Content-addressed experiment cache: skip re-executing what cannot change.

Every profile run group and every (fault, test) injection experiment is a
pure function of *(system structure, code, test id, injection plans,
result-affecting config, seeds)* — the determinism guarantee the executor
backends already rely on.  :class:`ResultKey` is the one identity of such
a result: a SHA-256 over exactly that tuple, the code being the SHA-256
of the raw bytes of every file a run executes (:func:`code_digests`): the
framework (:data:`FRAMEWORK`) and every ``.py`` file of the package of
each of the system's declared ``source_modules``.  The cache stores
results under it, so a repeated campaign replays byte-identical results
instead of re-simulating, and *any* change — an edit to one of those
files, comments included, a site added to the registry, a workload
renamed, a different seed or delay sweep — changes the key and misses
cleanly.  The agent fleet deduplicates tasks on the same key
(``repro.service``).  Code outside the keyed files (``repro.analysis``,
``repro.pipeline``, ``repro.service``, the CLI) computes no stored
result.  Knobs listed in
:data:`repro.config.EXECUTION_ONLY_KNOBS` (backends, worker counts, the
cache directory itself) are excluded from the key, so a warm cache written
by a serial campaign serves process- and agent-backed ones.

Layout (append-only, safe for concurrent writer processes and threads)::

    <cache-dir>/
        <identity>/              # ResultKey.identity: one (system, config, code)
            <pid>-<nonce>.seg    # one segment per writer, made at its first store

A segment is a run of records, each ``<key> <entry>\n`` and written with
one ``write`` before the store returns.  An entry is one sorted-key JSON
object (``{"data": ..., "key": ..., "kind": ..., "schema": N, "sha256":
..., "system": ...}``), so ``data`` comes first and its bytes run from a
fixed offset to wherever the JSON value ends; ``sha256`` is the digest of
exactly those bytes as written.  A lookup reads its directory's segments
once into an in-memory index and, on a miss, what any writer appended
since, so a worker hits an entry its parent stored.  A record without its
newline (a writer killed mid-append; a writer whose append fails never
uses that segment again) is not read at all.  Entries embed key material
for debuggability; malformed or mismatching entries are treated as
misses (the recompute appends a good record, which later lookups find),
and an entry whose data no longer hashes to its checksum — a value
changed inside valid JSON — is a miss counted as ``corrupt``.  A store
appends nothing when the index already holds a good record of its key:
after a fanned-out batch the driver reads what its workers stored, so
each entry is written once, by the process that computed it.
Hit/miss/store counters are kept per :class:`ExperimentCache` instance
and surfaced by the CLI (stderr), by agents to their manager, and by
``benchmarks/campaign_bench``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import weakref
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, TypeVar,
)

from .config import CSnakeConfig
from .core.fca import FcaResult
from .faults import fault_models_digest
from .instrument.plan import InjectionPlan
from .instrument.trace import RunGroup
from .serialize import (
    InternTable,
    fault_to_obj,
    fca_from_obj,
    fca_to_obj,
    group_from_obj,
    group_to_obj,
    plan_to_obj,
)
from .systems.base import SystemSpec
from .types import FaultKey

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
#:       resolve the site or the system declares no ``source_modules``.
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
#:   7 — one key for every result (:class:`ResultKey`): its code
#:       component is the source digest of the whole declared source,
#:       module constants and class bodies included, in place of the
#:       per-site slice union and the test's entry slice, which replayed
#:       stale entries after an edit the slices did not reach.  The
#:       fleet's task dedup uses the same key.
#:   8 — append-only segments in one directory per result identity (see
#:       the layout above) replace one ``<digest[:2]>/<digest>.json``
#:       file per entry; keys, entries and checksums are unchanged, and a
#:       schema-7 file is never read.
#:   9 — the code component is the SHA-256 of the raw bytes of every file
#:       a run executes (:func:`code_digests`) in place of the slicer's
#:       source digest of the declared modules: an edit to the framework
#:       or to a system's ``build.py`` / ``sites.py`` now misses, and so
#:       does a comment edit.  ``SystemSpec.version`` left the key, and a
#:       key folds in its identity in place of the shared material.
#:       Entries and codecs are unchanged.
#:
#: The ``slices`` codec lost its digests and per-site slices without a
#: bump: every ``slices`` key covers the bytes of ``repro/analysis``, which
#: that change edited, so no record of the old codec is ever looked up.
#:
#: The ``slices`` entry kind left without a bump, once the analyzer read
#: declared dead sites in place of a slice analysis: no kept codec
#: changed, and a ``slices`` record in an older cache directory is never
#: looked up.
CACHE_SCHEMA = 9

#: The directory that holds the ``repro`` package: :func:`code_digests`
#: reads the files under it.
SOURCE_ROOT = Path(__file__).resolve().parent.parent

#: What every run executes whatever the system: these packages' ``.py``
#: files and these modules, relative to :data:`SOURCE_ROOT`.
FRAMEWORK = (
    "repro/sim",
    "repro/instrument",
    "repro/faults",
    "repro/core",
    "repro/types.py",
    "repro/config.py",
    "repro/systems/__init__.py",
    "repro/systems/base.py",
)


def _packages(spec: SystemSpec) -> Tuple[str, ...]:
    """The package directory of each of the spec's declared source
    modules, relative to :data:`SOURCE_ROOT`: its ``build.py``,
    ``sites.py`` and workloads are in them."""
    return tuple(sorted({os.path.dirname(m.replace(".", "/")) for m in spec.source_modules}))


def code_digests(paths: Sequence[str]) -> Dict[str, str]:
    """The SHA-256 of the raw bytes of each file of ``paths`` (relative to
    :data:`SOURCE_ROOT`; a directory stands for its ``.py`` files), by
    path.  Any byte moves it, a comment's too: the key is sound without
    knowing what an edit means."""
    files = set()
    for path in paths:
        full = SOURCE_ROOT / path
        if full.is_dir():
            files.update("%s/%s" % (path, name) for name in os.listdir(full) if name.endswith(".py"))
        else:
            files.add(path)
    return {
        rel: hashlib.sha256((SOURCE_ROOT / rel).read_bytes()).hexdigest() for rel in sorted(files)
    }


#: How every entry begins: sorted keys put ``data`` first.
_DATA = '{"data": '
_DECODER = json.JSONDecoder()
#: What an entry that fails its checksum reads as (see :func:`_data`).
_CORRUPT = object()
#: What a malformed entry, or data its codec rejects, raises.
_MALFORMED = (ValueError, LookupError, TypeError, AttributeError)
#: The suffix of a segment file; anything else in a directory is not read.
_SEGMENT = ".seg"


def _data(entry: bytes, kind: str) -> Any:
    """The JSON data of one entry of ``kind`` and this schema; ``None`` for
    anything that is not one (JSON that is not an object, a missing
    field, another kind or schema), ``_CORRUPT`` for data that fails its
    checksum."""
    try:
        # Latin-1 maps each byte to one character, so the decoder's
        # offsets are byte offsets into ``entry``.
        text = entry.decode("latin-1")
        if not text.startswith(_DATA):
            return None
        data, end = _DECODER.raw_decode(text, len(_DATA))
        header = json.loads("{" + text[end + 1 :])  # text[end:] is ', "key": ...}'
        if header["schema"] != CACHE_SCHEMA or header["kind"] != kind:
            return None
        if hashlib.sha256(entry[len(_DATA) : end]).hexdigest() != header["sha256"]:
            return _CORRUPT
        return data
    except _MALFORMED:
        return None


def _split(chunk: bytes) -> Iterator[Tuple[str, bytes]]:
    """``(key, entry)`` of each whole record in ``chunk``; a last record
    without its newline is torn, and left out."""
    for line in chunk.split(b"\n")[:-1]:
        key, _, entry = line.partition(b" ")
        yield key.decode("latin-1"), entry


class Record(NamedTuple):
    """One whole record on disk, as :func:`records` reads it."""

    key: str
    entry: bytes  # the checksummed entry, without the record's newline
    segment: str  # path of the segment file that holds it


def records(root: "os.PathLike[str]") -> Iterator[Record]:
    """Every whole record under the cache directory ``root``: directories
    and segments in name order, each segment in append order, and every
    record of a key (two writers that both stored it leave two).  The
    store's reader for tests and tools; a campaign reads only its own
    directories."""
    for directory in sorted(os.scandir(root), key=lambda d: d.name):
        if not directory.is_dir():
            continue
        for name in sorted(os.listdir(directory.path)):
            if name.endswith(_SEGMENT):
                path = os.path.join(directory.path, name)
                with open(path, "rb") as fh:
                    chunk = fh.read()
                for key, entry in _split(chunk):
                    yield Record(key, entry, path)


class _Segments:
    """One directory of the store: an index of the records this process
    has read or written, and this writer's own segment.

    ``lock`` guards both: a cache may be shared by threads, and each
    record goes out as one ``write`` to a segment no other writer opens,
    so records never interleave.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        #: Key -> entry of each whole record indexed, in the order read.
        self.index: Dict[str, List[bytes]] = {}
        #: Segment name -> how many of its bytes are indexed.
        self._read: Dict[str, int] = {}
        self._fd: Optional[int] = None
        #: Closes ``_fd`` once: on a failed append, or when this object is
        #: collected or the interpreter exits.
        self._closer: Optional[weakref.finalize] = None
        self._name = ""
        #: The process that opened ``_fd``: a forked child opens its own.
        self._pid = 0
        self.lock = threading.Lock()

    def _close(self) -> None:
        if self._closer is not None:
            self._closer()
        self._fd = self._closer = None
        self._pid = 0

    def refresh(self) -> None:
        """Index what every writer appended since the last refresh: the
        whole directory at the first, nothing when it does not exist."""
        try:
            listing = os.scandir(self.path)
        except FileNotFoundError:
            return
        with listing:
            for segment in listing:
                done = self._read.get(segment.name, 0)
                if not segment.name.endswith(_SEGMENT) or segment.stat().st_size <= done:
                    continue
                with open(segment.path, "rb") as fh:
                    fh.seek(done)
                    chunk = fh.read()
                # A tail without its newline is a record still being
                # written (or torn): read it again next time.
                whole = chunk.rfind(b"\n") + 1
                self._read[segment.name] = done + whole
                for key, entry in _split(chunk[:whole]):
                    self.index.setdefault(key, []).append(entry)

    def append(self, key: str, entry: bytes) -> None:
        """Write one record to this writer's segment, made (with the
        directory) at this process's first append.  An append that fails
        closes the segment for good, so a torn record is always the last
        of its segment and never damages a later one."""
        if self._pid != os.getpid():
            self._close()
            os.makedirs(self.path, exist_ok=True)
            self._name = "%d-%s%s" % (os.getpid(), os.urandom(6).hex(), _SEGMENT)
            flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND
            self._fd = os.open(os.path.join(self.path, self._name), flags, 0o644)
            self._closer = weakref.finalize(self, os.close, self._fd)
            self._pid = os.getpid()
            self._read[self._name] = 0
        record = b"%s %s\n" % (key.encode(), entry)
        try:
            written = os.write(self._fd, record)
        except BaseException:
            self._close()
            raise
        if written != len(record):
            self._close()
            raise OSError(
                "short write to %s/%s (%d of %d bytes)"
                % (self.path, self._name, written, len(record))
            )
        self._read[self._name] += written
        self.index.setdefault(key, []).append(entry)


class ResultKey:
    """The one identity of a stored result, for one ``(system, config)``.

    ``key(test_id)`` names a test's profile run group, ``key(test_id,
    fault, plans)`` one (fault, test) experiment with its full plan sweep
    (one budget unit).  The cache stores under it and the manager's queue
    deduplicates on it.  Its code component is the byte digest of the
    framework and the spec's packages (:func:`code_digests`), read on the
    first call; every key folds in :attr:`identity`, the digest of that
    shared material, rather than the material itself.
    """

    def __init__(self, spec: SystemSpec, config: CSnakeConfig) -> None:
        self.spec = spec
        self.config_snapshot = config.result_affecting()
        self._code: Optional[Dict[str, str]] = None
        self._identity: Optional[str] = None

    @property
    def code(self) -> Dict[str, str]:
        """The code component: the byte digest of every file a run of this
        system executes, read once."""
        if self._code is None:
            self._code = code_digests(FRAMEWORK + _packages(self.spec))
        return self._code

    def _material(self) -> Dict[str, Any]:
        """The key material every result of this ``(system, config)`` shares."""
        return {
            "schema": CACHE_SCHEMA,
            "system": self.spec.name,
            # All site rows (ids, kinds, metadata) — traces record every
            # registered site and loop parent/sibling rows feed the FCA
            # edge derivation, so results may depend on any of them.
            "sites": self.spec.sites_digest(),
            # Registering or revising a fault model (a schedule is one)
            # shifts every key, so results computed under a different
            # fault vocabulary can never replay as hits.
            "fault_models": fault_models_digest(),
            "config": self.config_snapshot,
            "code": self.code,
        }

    @property
    def identity(self) -> str:
        """Digest of the shared key material: the name of the cache
        directory that holds these results, so a campaign reads no other
        config's, code's or schema's entries."""
        if self._identity is None:
            material = json.dumps(self._material(), sort_keys=True)
            self._identity = hashlib.sha256(material.encode()).hexdigest()
        return self._identity

    def __call__(
        self,
        test_id: str,
        fault: Optional[FaultKey] = None,
        plans: Sequence[InjectionPlan] = (),
    ) -> str:
        material = {
            "identity": self.identity,
            "test_id": test_id,
            # This test's declared duration and sim config; *other*
            # workloads cannot affect this entry and are not keyed.
            "workload": self.spec.workload_row(test_id),
            "fault": None if fault is None else fault_to_obj(fault),
            "plans": [plan_to_obj(p) for p in plans],
        }
        return hashlib.sha256(json.dumps(material, sort_keys=True).encode()).hexdigest()


class ExperimentCache:
    """On-disk, content-addressed store of campaign intermediate results.

    One instance serves one ``(system, config)`` campaign and keys through
    one :class:`ResultKey`.  ``hits``/``misses``/``stores`` count this
    instance's lookups and stores.
    """

    def __init__(self, root: "os.PathLike[str]", spec: SystemSpec, config: CSnakeConfig) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.system = spec.name
        self.key = ResultKey(spec, config)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Lookups whose entry failed its checksum (each is also a miss).
        self.corrupt = 0
        #: The decoded faults, local states and state sets of every entry
        #: this instance replayed, one object per distinct value: a warm
        #: campaign's edges then share their state sets.
        self.interned = InternTable()
        #: This instance's view of its campaign's directory, made at the
        #: first lookup or store (naming it reads the code digests).
        self._dir: Optional[_Segments] = None

    # ---------------------------------------------------------------- keys
    #
    # Both are :attr:`key`; they stay two methods because the benchmark's
    # ``cache.key`` span wraps them by name.

    def profile_key(self, test_id: str) -> str:
        """Key of the fault-free profile run group of ``test_id``."""
        return self.key(test_id)

    def experiment_key(
        self, test_id: str, fault: FaultKey, plans: List[InjectionPlan]
    ) -> str:
        """Key of one (fault, test) injection experiment."""
        return self.key(test_id, fault, plans)

    def _segments(self) -> _Segments:
        """This instance's one view of its campaign's directory of the store."""
        if self._dir is None:
            self._dir = _Segments(os.path.join(self.root, self.key.identity))
        return self._dir

    # -------------------------------------------------------------- lookup

    def _lookup(self, key: str, kind: str, decode: Callable[[Any], _T]) -> Optional[_T]:
        """The decoded entry under ``key``, or ``None`` when no record of it
        is a well-formed entry of this kind and schema whose data passes
        its checksum and decodes: the index first, then what other writers
        appended since.  Counted: a hit once the entry has decoded,
        everything else a miss, and ``corrupt`` too when only records
        failing their checksum were found."""
        segments = self._segments()
        tried, corrupt = 0, False
        with segments.lock:
            for refresh in (False, True):
                if refresh:
                    segments.refresh()
                found = segments.index.get(key, ())
                for entry in found[tried:]:
                    data = _data(entry, kind)
                    if data is _CORRUPT:
                        corrupt = True
                    elif data is not None:
                        try:
                            value = decode(data)
                        except _MALFORMED:
                            continue
                        self.hits += 1
                        return value
                tried = len(found)
        self.corrupt += corrupt
        self.misses += 1
        return None

    def refresh(self) -> None:
        """Read what other writers appended to this campaign's directory
        since this instance last read it — a fanned-out batch's workers
        store what they compute, so the stores that follow append nothing."""
        segments = self._segments()
        with segments.lock:
            segments.refresh()

    def _store(self, key: str, kind: str, key_material: Dict[str, Any], data: Any) -> None:
        """Append the entry to this writer's segment, unless a good record
        of it was read already (see :meth:`refresh`)."""
        segments = self._segments()
        with segments.lock:
            if any(_data(e, kind) not in (None, _CORRUPT) for e in segments.index.get(key, ())):
                return
            text = json.dumps(data, sort_keys=True)
            header = json.dumps(
                {
                    "schema": CACHE_SCHEMA,
                    "kind": kind,
                    "system": self.system,
                    "key": key_material,
                    "sha256": hashlib.sha256(text.encode()).hexdigest(),
                },
                sort_keys=True,
            )
            # Every header key sorts after "data", so this is the sorted
            # dump of the whole entry, with the data encoded once.
            segments.append(key, ("%s%s, %s" % (_DATA, text, header[1:])).encode())

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

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        """Number of distinct keys on disk, of every directory (walks the
        store; for tests/tools)."""
        return len({record.key for record in records(self.root)})

    def stats(self) -> Dict[str, Any]:
        return {
            "dir": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }
