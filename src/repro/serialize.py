"""JSON codecs for the framework's value types.

One ``*_to_obj`` / ``*_from_obj`` pair per domain type that is read
back, shared by the experiment cache, the wire form of experiment tasks
and the machine-readable report output (``DetectionReport.to_dict``);
``analysis_to_obj`` (``repro analyze --json``) is write-only.  All
``to_obj`` functions emit plain JSON-compatible values (dicts, lists,
strings, numbers, bools) with deterministic ordering, so dumping the same
value twice yields byte-identical files.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .analysis.slicer import SliceAnalysis
    from .core.driver import ExperimentTask

from .core.cycles import Cycle
from .core.fca import FcaResult
from .faults import model_for
from .instrument.analyzer import AnalysisResult
from .instrument.plan import InjectionPlan
from .instrument.trace import RunGroup
from .types import CausalEdge, EdgeType, FaultKey, LocalState, StateSet

_EDGE_TYPES = {etype.value: etype for etype in EdgeType}

# ------------------------------------------------------------ atomic writes


def atomic_write_text(path: "os.PathLike[str]", text: str) -> None:
    """Write ``text`` via temp file + ``os.replace``.

    The temp file is named per writer (process id and thread id), so
    concurrent writers of one entry — cache-sharing worker processes, a
    manager's campaign threads — never open, or move, each other's temp.
    A write that fails removes its temp file.
    """
    path = Path(path)
    tmp = path.with_suffix(".tmp.%d.%d" % (os.getpid(), threading.get_ident()))
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ------------------------------------------------------------ intern table


class InternTable:
    """The one decoded object per distinct fault, local state and state set.

    A decoder given a table returns the object already in it for a value
    equal to one it decoded before, so a campaign replaying its cache
    holds each distinct state set once and every set, dict and frozenset
    that meets one again compares it by identity, never through the
    dataclasses' ``__eq__``.  Keys are the wire form: a fault its string,
    a state ``(stack, branches)`` as tuples, a state set the tuple of its
    states' keys in written order; one dict per kind, so keys of
    different kinds never meet.  A decoder called without a table uses a
    fresh one for that call.  The table only grows, by the distinct
    values of the entries it decoded, so its owner bounds its life: an
    :class:`~repro.cache.ExperimentCache` has one.
    """

    __slots__ = ("faults", "states", "state_sets")

    def __init__(self) -> None:
        self.faults: Dict[str, FaultKey] = {}
        self.states: Dict[Tuple[Any, ...], LocalState] = {}
        self.state_sets: Dict[Tuple[Any, ...], StateSet] = {}


# --------------------------------------------------------------- fault keys


def fault_to_obj(fault: FaultKey) -> str:
    return "%s:%s" % (fault.site_id, fault.kind)


def fault_from_obj(obj: str, table: Optional[InternTable] = None) -> FaultKey:
    if table is None:
        table = InternTable()
    fault = table.faults.get(obj)
    if fault is None:
        site_id, kind = obj.rsplit(":", 1)
        # An unregistered kind is a ValueError from model_for.
        fault = table.faults[obj] = FaultKey(site_id, model_for(kind).kind_id)
    return fault


# ------------------------------------------------------------ local states


def state_to_obj(state: LocalState) -> Dict[str, Any]:
    return {
        "stack": list(state.call_stack),
        "branches": [[site, taken] for site, taken in state.branch_trace],
    }


def states_to_obj(states: StateSet) -> List[Dict[str, Any]]:
    ordered = sorted(states, key=lambda s: (s.call_stack, s.branch_trace))
    return [state_to_obj(s) for s in ordered]


def states_from_obj(obj: List[Dict[str, Any]], table: Optional[InternTable] = None) -> StateSet:
    if table is None:
        table = InternTable()
    # ``states_to_obj`` writes a set's states in sorted order, so an equal
    # set always spells the same key.
    keys = tuple((tuple(o["stack"]), tuple(map(tuple, o["branches"]))) for o in obj)
    found = table.state_sets.get(keys)
    if found is None:
        states = table.states
        members = []
        for key in keys:
            state = states.get(key)
            if state is None:
                stack, branches = key
                state = states[key] = LocalState(
                    stack, tuple((site, bool(taken)) for site, taken in branches)
                )
            members.append(state)
        found = table.state_sets[keys] = frozenset(members)
    return found


# ------------------------------------------------------------ causal edges


def edge_to_obj(edge: CausalEdge) -> Dict[str, Any]:
    return {
        "src": fault_to_obj(edge.src),
        "dst": fault_to_obj(edge.dst),
        "etype": edge.etype.value,
        "test_id": edge.test_id,
        "src_states": states_to_obj(edge.src_states),
        "dst_states": states_to_obj(edge.dst_states),
    }


def _edge_type(value: str) -> EdgeType:
    try:
        return _EDGE_TYPES[value]
    except (KeyError, TypeError):
        raise ValueError("%r is not a valid EdgeType" % (value,)) from None


def edge_from_obj(obj: Dict[str, Any], table: Optional[InternTable] = None) -> CausalEdge:
    if table is None:
        table = InternTable()
    return CausalEdge(
        src=fault_from_obj(obj["src"], table),
        dst=fault_from_obj(obj["dst"], table),
        etype=_edge_type(obj["etype"]),
        test_id=obj["test_id"],
        src_states=states_from_obj(obj["src_states"], table),
        dst_states=states_from_obj(obj["dst_states"], table),
    )


# --------------------------------------------------------- injection plans


def plan_to_obj(plan: Optional[InjectionPlan]) -> Optional[Dict[str, Any]]:
    if plan is None:
        return None
    fault = plan.fault
    out = {
        "fault": fault_to_obj(fault),
        "delay_ms": plan.delay_ms,
        "warmup_ms": plan.warmup_ms,
    }
    params = model_for(fault.kind).params_to_obj(plan)
    if params:
        # Omitted when empty: classic plans keep their historical layout.
        out["params"] = params
    return out


def plan_from_obj(
    obj: Optional[Dict[str, Any]], table: Optional[InternTable] = None
) -> Optional[InjectionPlan]:
    if obj is None:
        return None
    fault = fault_from_obj(obj["fault"], table)
    return InjectionPlan(
        fault=fault,
        delay_ms=obj["delay_ms"],
        warmup_ms=obj["warmup_ms"],
        params=model_for(fault.kind).params_from_obj(obj.get("params", {})),
    )


# -------------------------------------------------------------- run groups


def group_to_obj(group: RunGroup) -> Dict[str, Any]:
    """A run group's columns; the runs it was built from are not kept."""
    return {
        "test_id": group.test_id,
        "injection": plan_to_obj(group.injection),
        "n_runs": group.n_runs,
        "loop_counts": {site: list(row) for site, row in sorted(group.loop_counts.items())},
        "loop_states": {
            site: states_to_obj(states) for site, states in sorted(group.loop_states.items())
        },
        "natural": {
            fault_to_obj(fault): {
                "hits": hits,
                "states": states_to_obj(group.natural_states[fault]),
            }
            for fault, hits in sorted(group.natural_hits.items())
        },
        "injected_states": states_to_obj(group.injected_states),
        "reached": sorted(group.reached),
    }


def group_from_obj(obj: Dict[str, Any], table: Optional[InternTable] = None) -> RunGroup:
    if table is None:
        table = InternTable()
    natural = {fault_from_obj(fault, table): row for fault, row in obj["natural"].items()}
    return RunGroup(
        test_id=obj["test_id"],
        injection=plan_from_obj(obj["injection"], table),
        n_runs=obj["n_runs"],
        loop_counts={site: tuple(row) for site, row in obj["loop_counts"].items()},
        loop_states={
            site: states_from_obj(states, table) for site, states in obj["loop_states"].items()
        },
        natural_hits={fault: row["hits"] for fault, row in natural.items()},
        natural_states={
            fault: states_from_obj(row["states"], table) for fault, row in natural.items()
        },
        injected_states=states_from_obj(obj["injected_states"], table),
        reached=frozenset(obj["reached"]),
    )


# ------------------------------------------------- experiment task descriptors


def task_to_obj(task: "ExperimentTask") -> Dict[str, Any]:
    """Wire form of one :class:`~repro.core.driver.ExperimentTask`.

    The config snapshot stays the *canonical JSON string* the driver
    computed (sorted keys), so a round-trip reproduces the exact
    ``config_json`` and the worker-side driver cache keys on identical
    strings whichever transport carried the task.
    """
    return {
        "system": task.system_name,
        "test_id": task.test_id,
        "config_json": task.config_json,
        "fault": None if task.fault is None else fault_to_obj(task.fault),
        "plans": [plan_to_obj(p) for p in task.plans],
        "key": task.key,
    }


def task_from_obj(obj: Dict[str, Any]) -> "ExperimentTask":
    from .core.driver import ExperimentTask  # deferred: core imports serialize users

    fault = obj["fault"]
    plans = [plan_from_obj(p) for p in obj["plans"]]
    return ExperimentTask(
        system_name=obj["system"],
        test_id=obj["test_id"],
        config_json=obj["config_json"],
        fault=None if fault is None else fault_from_obj(fault),
        plans=tuple(p for p in plans if p is not None),
        key=obj["key"],
    )


def task_result_to_obj(result: Any) -> Dict[str, Any]:
    """Wire form of what :func:`execute_experiment_task` returns.

    Profile tasks yield a :class:`RunGroup`; experiment tasks yield an
    ``(FcaResult, runs)`` pair.  The envelope is tagged so the receiving
    side needs no out-of-band knowledge of which task produced it.
    """
    if isinstance(result, RunGroup):
        return {"kind": "profile", "group": group_to_obj(result)}
    fca, runs = result
    return {"kind": "experiment", "fca": fca_to_obj(fca), "runs": runs}


def task_result_from_obj(obj: Dict[str, Any]) -> Any:
    if obj["kind"] == "profile":
        return group_from_obj(obj["group"])
    return (fca_from_obj(obj["fca"]), obj["runs"])


# ------------------------------------------------------------- FCA results


def fca_to_obj(result: FcaResult) -> Dict[str, Any]:
    return {
        "fault": fault_to_obj(result.fault),
        "test_id": result.test_id,
        "edges": [edge_to_obj(e) for e in result.edges],
        "interference": [fault_to_obj(f) for f in result.interference],
        "min_p": result.min_p,
        "aborted": result.aborted,
    }


def fca_from_obj(obj: Dict[str, Any], table: Optional[InternTable] = None) -> FcaResult:
    if table is None:
        table = InternTable()
    return FcaResult(
        fault=fault_from_obj(obj["fault"], table),
        test_id=obj["test_id"],
        edges=[edge_from_obj(e, table) for e in obj["edges"]],
        interference=[fault_from_obj(f, table) for f in obj["interference"]],
        min_p=obj["min_p"],
        aborted=obj["aborted"],
    )


# ---------------------------------------------------------- analysis result


def analysis_to_obj(analysis: AnalysisResult) -> Dict[str, Any]:
    return {
        "system": analysis.system,
        "faults": [fault_to_obj(f) for f in analysis.faults],
        "excluded": {k: list(v) for k, v in sorted(analysis.excluded.items())},
        "counts": dict(sorted(analysis.counts.items())),
    }


# ------------------------------------------------------ code-slice analysis


def slices_to_obj(slices: "SliceAnalysis") -> Dict[str, Any]:
    """Everything but ``timings``, which describe the pass that computed
    the record rather than the record (and would make two writers of one
    cache entry disagree on its bytes)."""
    return {
        "system": slices.system,
        "modules": list(slices.modules),
        "source_digest": slices.source_digest,
        "function_digests": slices.function_digests,
        "module_digests": slices.module_digests,
        "counts": slices.counts,
        "site_roots": {site: list(roots) for site, roots in slices.site_roots.items()},
        "site_slices": {site: list(keys) for site, keys in slices.site_slices.items()},
        "env_sites": list(slices.env_sites),
        "unresolved": slices.unresolved,
        "entry_function": slices.entry_function,
        "unresolved_entries": slices.unresolved_entries,
        "reachable": sorted(slices.reachable),
        "reachability_trusted": slices.reachability_trusted,
    }


def slices_from_obj(obj: Dict[str, Any]) -> "SliceAnalysis":
    # deferred: a cache-less campaign never loads the analysis package
    from .analysis.slicer import SliceAnalysis

    return SliceAnalysis(
        system=obj["system"],
        modules=tuple(obj["modules"]),
        source_digest=obj["source_digest"],
        function_digests=dict(obj["function_digests"]),
        module_digests=dict(obj["module_digests"]),
        counts=dict(obj["counts"]),
        site_roots={site: tuple(roots) for site, roots in obj["site_roots"].items()},
        site_slices={site: tuple(keys) for site, keys in obj["site_slices"].items()},
        env_sites=tuple(obj["env_sites"]),
        unresolved=dict(obj["unresolved"]),
        entry_function=dict(obj["entry_function"]),
        unresolved_entries=dict(obj["unresolved_entries"]),
        reachable=set(obj["reachable"]),
        reachability_trusted=bool(obj["reachability_trusted"]),
    )


# ------------------------------------------------------------------ cycles


def cycle_to_obj(cycle: Cycle) -> Dict[str, Any]:
    return {"edges": [edge_to_obj(e) for e in cycle.edges]}


def cycle_from_obj(obj: Dict[str, Any]) -> Cycle:
    table = InternTable()
    return Cycle(tuple(edge_from_obj(e, table) for e in obj["edges"]))

