"""Diffing two slice analyses and two detection reports.

Backs ``repro diff-run OLD NEW``: the static half decides which cache
entries an edit invalidates; the report half states what actually
changed — fault-induced loops that newly appeared or vanished.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from ..types import FaultKey
from .slicer import SliceAnalysis


@dataclass
class SliceDiff:
    """Per-site and per-entry digest comparison of two analyses."""

    system: str
    changed_sites: Tuple[str, ...] = ()
    unchanged_sites: Tuple[str, ...] = ()
    added_sites: Tuple[str, ...] = ()  # digest only on the NEW side
    removed_sites: Tuple[str, ...] = ()  # digest only on the OLD side
    unresolved_sites: Tuple[str, ...] = ()  # unresolved on either side
    changed_entries: Tuple[str, ...] = ()
    unchanged_entries: Tuple[str, ...] = ()
    changed_functions: Tuple[str, ...] = ()  # function keys with new body digests
    added_functions: Tuple[str, ...] = ()
    removed_functions: Tuple[str, ...] = ()
    source_changed: bool = False

    def invalidates(self, site_id: str) -> bool:
        """Must experiments injecting at ``site_id`` be re-run?

        Unresolved and one-sided sites are conservatively invalidated
        (their fallback key carries the whole-spec digest anyway)."""
        return site_id not in set(self.unchanged_sites)

    def partition_faults(
        self, faults: Sequence[FaultKey]
    ) -> Tuple[List[FaultKey], List[FaultKey]]:
        """Split a fault space into (invalidated, reusable)."""
        invalidated: List[FaultKey] = []
        reusable: List[FaultKey] = []
        for fault in sorted(faults):
            (invalidated if self.invalidates(fault.site_id) else reusable).append(fault)
        return invalidated, reusable

    def to_obj(self) -> Dict[str, Any]:
        return {
            "system": self.system,
            "source_changed": self.source_changed,
            "sites": {
                "changed": list(self.changed_sites),
                "unchanged": list(self.unchanged_sites),
                "added": list(self.added_sites),
                "removed": list(self.removed_sites),
                "unresolved": list(self.unresolved_sites),
            },
            "entries": {
                "changed": list(self.changed_entries),
                "unchanged": list(self.unchanged_entries),
            },
            "functions": {
                "changed": list(self.changed_functions),
                "added": list(self.added_functions),
                "removed": list(self.removed_functions),
            },
        }


def diff_slices(old: SliceAnalysis, new: SliceAnalysis) -> SliceDiff:
    diff = SliceDiff(system=new.system, source_changed=old.source_digest != new.source_digest)

    unresolved = sorted(set(old.unresolved) | set(new.unresolved))
    changed: List[str] = []
    unchanged: List[str] = []
    added: List[str] = []
    removed: List[str] = []
    for site_id in sorted(set(old.site_digests) | set(new.site_digests)):
        if site_id in unresolved:
            continue
        od = old.site_digests.get(site_id)
        nd = new.site_digests.get(site_id)
        if od is None:
            added.append(site_id)
        elif nd is None:
            removed.append(site_id)
        elif od != nd:
            changed.append(site_id)
        else:
            unchanged.append(site_id)
    diff.changed_sites = tuple(changed)
    diff.unchanged_sites = tuple(unchanged)
    diff.added_sites = tuple(added)
    diff.removed_sites = tuple(removed)
    diff.unresolved_sites = tuple(unresolved)

    entries_changed: List[str] = []
    entries_unchanged: List[str] = []
    for test_id in sorted(set(old.entry_digests) | set(new.entry_digests)):
        if old.entry_digests.get(test_id) == new.entry_digests.get(test_id):
            entries_unchanged.append(test_id)
        else:
            entries_changed.append(test_id)
    diff.changed_entries = tuple(entries_changed)
    diff.unchanged_entries = tuple(entries_unchanged)

    old_fns, new_fns = old.function_digests, new.function_digests
    diff.changed_functions = tuple(
        sorted(k for k in old_fns.keys() & new_fns.keys() if old_fns[k] != new_fns[k])
    )
    diff.added_functions = tuple(sorted(new_fns.keys() - old_fns.keys()))
    diff.removed_functions = tuple(sorted(old_fns.keys() - new_fns.keys()))
    return diff


# ---------------------------------------------------------------- reports


def _loop_identity(cycle_obj: Dict[str, Any]) -> Tuple[Tuple[str, str, str, str], ...]:
    """Canonical identity of one fault-induced loop: its edge set without
    the recorded local states (those vary run to run)."""
    return tuple(
        sorted(
            (e["src"], e["etype"], e["dst"], e["test_id"])
            for e in cycle_obj.get("edges", [])
        )
    )


def _loop_label(identity: Tuple[Tuple[str, str, str, str], ...]) -> str:
    return " ; ".join("%s -%s-> %s [%s]" % (s, t, d, w) for s, t, d, w in identity)


@dataclass
class ReportDiff:
    """What changed between two detection reports (dict form)."""

    appeared_loops: Tuple[str, ...] = ()
    vanished_loops: Tuple[str, ...] = ()
    appeared_bugs: Tuple[str, ...] = ()
    vanished_bugs: Tuple[str, ...] = ()
    old_summary: Dict[str, int] = field(default_factory=dict)
    new_summary: Dict[str, int] = field(default_factory=dict)

    @property
    def identical(self) -> bool:
        return not (
            self.appeared_loops
            or self.vanished_loops
            or self.appeared_bugs
            or self.vanished_bugs
        )

    def to_obj(self) -> Dict[str, Any]:
        return {
            "appeared_loops": list(self.appeared_loops),
            "vanished_loops": list(self.vanished_loops),
            "appeared_bugs": list(self.appeared_bugs),
            "vanished_bugs": list(self.vanished_bugs),
            "identical": self.identical,
            "old_summary": dict(sorted(self.old_summary.items())),
            "new_summary": dict(sorted(self.new_summary.items())),
        }


def diff_reports(old: Dict[str, Any], new: Dict[str, Any]) -> ReportDiff:
    old_loops = {_loop_identity(c) for c in old.get("cycles", [])}
    new_loops = {_loop_identity(c) for c in new.get("cycles", [])}

    def detected(report: Dict[str, Any]) -> set:
        return {
            m["bug"]["bug_id"]
            for m in report.get("bug_matches", [])
            if m.get("detected")
        }

    old_bugs = detected(old)
    new_bugs = detected(new)
    return ReportDiff(
        appeared_loops=tuple(_loop_label(i) for i in sorted(new_loops - old_loops)),
        vanished_loops=tuple(_loop_label(i) for i in sorted(old_loops - new_loops)),
        appeared_bugs=tuple(sorted(new_bugs - old_bugs)),
        vanished_bugs=tuple(sorted(old_bugs - new_bugs)),
        old_summary=dict(old.get("summary", {})),
        new_summary=dict(new.get("summary", {})),
    )
