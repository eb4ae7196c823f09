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
    #: The system's injectable environment surface: crashable nodes and
    #: severable links.  Declaring a port registers the corresponding
    #: ``ENV_NODE``/``ENV_LINK`` sites, which environment fault models
    #: (``repro.faults.environment``) target like code sites.
    env_port: Optional[EnvFaultPort] = None
    #: Python modules holding this system's node implementations, config
    #: and workload bodies — the input of the code-slice analysis
    #: (``repro.analysis``).  Every result key covers the raw bytes of
    #: every ``.py`` file of their packages, ``build.py`` and ``sites.py``
    #: included, beside the framework's (``repro.cache.code_digests``).
    #: Empty means "not sliceable": ``repro analyze`` reports no slices,
    #: and the key covers the framework only.
    source_modules: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.env_port is not None:
            self.env_port.register_sites(self.registry)

    def sites_digest(self) -> str:
        """Digest of the full site inventory (every site's id, kind, and
        metadata) — *without* the workload list.

        Experiment results can structurally depend on every registered
        site (traces record all of them, and loop parent/sibling rows
        feed the FCA edge derivation), but not on what other workloads
        exist; cache keys embed this and one :meth:`workload_row`.
        """
        import hashlib
        import json

        sites = [
            [
                site.site_id,
                site.kind.value,
                site.function,
                repr(site.loop),
                repr(site.detector),
                repr(site.throw),
                repr(site.env),
            ]
            for site in sorted(self.registry, key=lambda s: s.site_id)
        ]
        return hashlib.sha256(json.dumps(sites).encode()).hexdigest()

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
