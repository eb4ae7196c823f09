"""Diffing two slice analyses and two detection reports.

Backs ``repro diff-run OLD NEW``: the static half names the functions and
modules an edit changed (any change moves the source digest, so every
stored result of the system re-runs); the report half states what
actually changed — fault-induced loops that newly appeared or vanished.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from .slicer import SliceAnalysis


@dataclass
class SliceDiff:
    """Which functions and module-level statements differ between two
    analyses of one system."""

    system: str
    changed_functions: Tuple[str, ...] = ()  # function keys with new body digests
    added_functions: Tuple[str, ...] = ()
    removed_functions: Tuple[str, ...] = ()
    changed_modules: Tuple[str, ...] = ()  # statements outside any function changed
    source_changed: bool = False

    def to_obj(self) -> Dict[str, Any]:
        return {
            "system": self.system,
            "source_changed": self.source_changed,
            "functions": {
                "changed": list(self.changed_functions),
                "added": list(self.added_functions),
                "removed": list(self.removed_functions),
            },
            "modules": {"changed": list(self.changed_modules)},
        }


def diff_slices(old: SliceAnalysis, new: SliceAnalysis) -> SliceDiff:
    old_fns, new_fns = old.function_digests, new.function_digests
    old_mods, new_mods = old.module_digests, new.module_digests
    return SliceDiff(
        system=new.system,
        changed_functions=tuple(
            sorted(k for k in old_fns.keys() & new_fns.keys() if old_fns[k] != new_fns[k])
        ),
        added_functions=tuple(sorted(new_fns.keys() - old_fns.keys())),
        removed_functions=tuple(sorted(old_fns.keys() - new_fns.keys())),
        changed_modules=tuple(
            sorted(
                m for m in old_mods.keys() | new_mods.keys() if old_mods.get(m) != new_mods.get(m)
            )
        ),
        source_changed=old.source_digest != new.source_digest,
    )


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
