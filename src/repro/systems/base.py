"""Target-system abstraction: what the CSnake pipeline needs from a system.

A :class:`SystemSpec` bundles a site registry (the static view), a suite of
integration-test workloads (the dynamic view), and the system's known
self-sustaining cascade bugs (the evaluation ground truth for Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..config import SimConfig
from ..faults import EnvFaultPort
from ..instrument.sites import SiteRegistry
from ..types import FaultKey

if TYPE_CHECKING:  # pragma: no cover
    from ..analysis import SliceAnalysis
    from ..core.cycles import Cycle
    from ..instrument.runtime import Runtime
    from ..sim import SimEnv

#: A workload body: builds the cluster on ``env`` (instrumented through
#: ``rt``) and schedules the client operations; the driver then calls
#: ``env.run``.
WorkloadFn = Callable[["SimEnv", "Runtime"], None]


@dataclass
class WorkloadSpec:
    """One integration test shipped with the target system."""

    test_id: str
    description: str
    setup: WorkloadFn
    duration_ms: float = 120_000.0
    sim_config: Optional[SimConfig] = None


@dataclass(frozen=True)
class KnownBug:
    """Ground-truth self-sustaining cascading failure (a Table 3 row)."""

    bug_id: str
    description: str
    signature: str  # expected cycle composition, e.g. "1D|2E|0N"
    core_faults: FrozenSet[FaultKey]
    alt_detectable: bool = False  # naive single-fault strategy finds it (§8.2)
    jira: str = ""
    #: Environment faults that must have *revealed* the cycle: detection
    #: additionally requires a discovered causal edge from one of these
    #: faults into the cycle's fault set.  Environment faults never occur
    #: naturally, so they cannot sit inside a cycle — a trigger set is how
    #: ground truth expresses "only environment fault injection exposes
    #: this" (e.g. miniraft's partition-seeded RAFT-5).
    trigger_faults: FrozenSet[FaultKey] = frozenset()

    def matches(self, cycle: "Cycle", faults: Optional[FrozenSet[FaultKey]] = None) -> bool:
        """A reported cycle exposes this bug if it involves every core fault
        (the trigger-fault requirement is checked against the edge DB by
        :func:`repro.core.report.match_bugs`).  ``faults`` is
        ``cycle.fault_set()`` when the caller has it already."""
        if faults is None:
            faults = cycle.fault_set()
        return self.core_faults <= faults


@dataclass
class SystemSpec:
    """A target system: registry + workloads + ground truth."""

    name: str
    registry: SiteRegistry
    workloads: Dict[str, WorkloadSpec] = field(default_factory=dict)
    known_bugs: List[KnownBug] = field(default_factory=list)
    #: Spec version, part of every result key.  Code in
    #: :attr:`source_modules` is keyed by its own digest, and the registry
    #: and workload list by :meth:`digest`; bump the version when behaviour
    #: changes anywhere else (a module this spec does not declare).
    version: str = "0"
    #: The system's injectable environment surface: crashable nodes and
    #: severable links.  Declaring a port registers the corresponding
    #: ``ENV_NODE``/``ENV_LINK`` sites, which environment fault models
    #: (``repro.faults.environment``) target like code sites.
    env_port: Optional[EnvFaultPort] = None
    #: Python modules holding this system's node implementations, config
    #: and workload bodies — the input of the code-slice analysis
    #: (``repro.analysis``), whose source digest is the code component of
    #: every result key.  The framework (``repro.sim``, ``repro.instrument``,
    #: ``repro.faults``) is not covered; an edit there needs a
    #: ``CACHE_SCHEMA`` bump.  Empty means "not sliceable": result keys
    #: carry the whole-spec :meth:`digest` instead and no reachability
    #: pruning happens.
    source_modules: Tuple[str, ...] = ()
    _slices: Optional["SliceAnalysis"] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.env_port is not None:
            self.env_port.register_sites(self.registry)

    def slice_analysis(self) -> Optional["SliceAnalysis"]:
        """This system's code-slice analysis: the attached one when there
        is one, else a fresh slice of the live :attr:`source_modules`
        (then kept for this spec object); ``None`` for a system that
        declares no source modules.

        The fresh path serves whoever holds a spec and no cache
        directory — ``repro analyze``, the analyze stage of a cache-less
        campaign, tests.  A campaign *with* a cache directory never
        reaches it: its :class:`~repro.core.driver.ExperimentDriver`
        attaches the analysis (replayed from the cache, or computed and
        stored) before anything asks.
        """
        if self._slices is None and self.source_modules:
            from ..analysis import analyze_system
            from ..analysis.source import live_sources

            self.attach_slice_analysis(analyze_system(self, live_sources(self.source_modules)))
        return self._slices

    @property
    def attached_slice_analysis(self) -> Optional["SliceAnalysis"]:
        """The analysis this spec already carries, if any (never slices)."""
        return self._slices

    def attach_slice_analysis(self, slices: "SliceAnalysis") -> None:
        """Make ``slices`` this spec's analysis.  Called by the experiment
        driver with the cache's or a fresh analysis of the live source,
        and by tests with an analysis of *other* source text (an edited
        tree) sliced against this spec's registry and workloads; result
        keys then carry that text's source digest.  The driver leaves a
        spec that already carries one alone."""
        self._slices = slices

    def _sites_payload(self) -> List[List[str]]:
        sites = []
        for site in sorted(self.registry, key=lambda s: s.site_id):
            sites.append(
                [
                    site.site_id,
                    site.kind.value,
                    site.function,
                    repr(site.loop),
                    repr(site.detector),
                    repr(site.throw),
                    repr(site.env),
                ]
            )
        return sites

    def digest(self) -> str:
        """Content digest of the declared system structure.

        Covers the name, the declared :attr:`version`, every site
        definition (id, kind, function, metadata), and the workload
        inventory (test ids, durations, and sim configs).  It is the code
        component of the result keys of a system that declares no
        :attr:`source_modules`.
        """
        import hashlib
        import json

        payload = {
            "name": self.name,
            "version": self.version,
            "sites": self._sites_payload(),
            "workloads": [
                # sim_config feeds SimEnv directly (timeouts, latencies),
                # so it is declared result-affecting data like duration.
                self.workload_row(t) for t in self.workload_ids()
            ],
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def sites_digest(self) -> str:
        """Digest of the full site inventory (every site's id, kind, and
        metadata) plus name and version — *without* the workload list.

        Experiment results can structurally depend on every registered
        site (traces record all of them, and loop parent/sibling rows
        feed the FCA edge derivation), but not on what other workloads
        exist; cache keys therefore embed this instead of :meth:`digest`.
        """
        import hashlib
        import json

        payload = {
            "name": self.name,
            "version": self.version,
            "sites": self._sites_payload(),
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def workload_row(self, test_id: str) -> List[object]:
        """The result-affecting declaration of one workload (cache-key
        component of every profile/experiment entry for that test).

        Unknown test ids get a null row: they cannot execute, so their
        keys only need to be stable and distinct per id.
        """
        wl = self.workloads.get(test_id)
        if wl is None:
            return [test_id, None, None]
        return [test_id, wl.duration_ms, repr(wl.sim_config)]

    def add_workload(self, spec: WorkloadSpec) -> None:
        if spec.test_id in self.workloads:
            raise ValueError("duplicate workload %s" % spec.test_id)
        self.workloads[spec.test_id] = spec

    def workload_ids(self) -> List[str]:
        return sorted(self.workloads)

    def bug(self, bug_id: str) -> KnownBug:
        for bug in self.known_bugs:
            if bug.bug_id == bug_id:
                return bug
        raise KeyError(bug_id)
