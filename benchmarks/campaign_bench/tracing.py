"""Span tracing from outside the program.

The benchmark wraps named public callables of ``repro`` from here, so no
file under ``src/`` changes: a wrapped call becomes one span ``(name,
start, end, parent)`` kept in memory.  A layer's *self time* is its
spans' duration minus the part their direct children cover, so self
times of all layers sum to the duration of the root span.

Wrapping fails softly: a target that a later change renamed or removed
is listed in :attr:`Tracer.missing` and its layer metrics read ``None``;
nothing else is affected, and an untraced run never imports this state.

One stack, no lock: spans are recorded in the driving thread of a
serial campaign, or on the parent side of a process-backed one (forked
workers inherit the wrappers and record into memory nobody reads).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``probe(counts, args)`` runs before the wrapped call and may return a
#: ``done(result)`` callable that runs after it; both add to ``counts``.
Probe = Callable[[Dict[str, float], tuple], Optional[Callable[[Any], None]]]

Span = Tuple[str, float, float, int]  # name, start, end, parent index (-1: root)


def resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name).

    Raises ``ImportError`` or ``AttributeError`` when any part is gone.
    """
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)
    return owner, attr


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Span names whose target could not be wrapped.
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (name, self.spans[index][1], time.perf_counter(), parent)

    def reset(self) -> None:
        """Forget recorded spans and counts (patches stay installed)."""
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    # ------------------------------------------------------------- patching

    def wrap(self, target: str, name: str, probe: Optional[Probe] = None) -> bool:
        """Record every call of ``target`` as a span called ``name``.

        Returns False, and lists ``name`` under :attr:`missing`, when the
        target does not exist.
        """
        try:
            owner, attr = resolve(target)
        except (ImportError, AttributeError):
            if name not in self.missing:
                self.missing.append(name)
            return False
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            done = probe(tracer.counts, args) if probe is not None else None
            with tracer.span(name):
                result = original(*args, **kwargs)
            if done is not None:
                done(result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))
        return True

    def unwrap_all(self) -> None:
        """Restore every wrapped callable."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[index]
        return out
