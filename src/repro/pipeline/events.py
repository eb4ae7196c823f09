"""Observer hooks for pipeline progress reporting.

The runner emits one :class:`PipelineEvent` per lifecycle transition;
observers subscribe by implementing :meth:`PipelineObserver.on_event`.
Events are purely informational — observers cannot alter pipeline
behaviour, and a misbehaving observer fails the run loudly rather than
corrupting it silently.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, TextIO

#: Event kinds, in lifecycle order.
PIPELINE_STARTED = "pipeline_started"
STAGE_STARTED = "stage_started"
STAGE_FINISHED = "stage_finished"
PIPELINE_FINISHED = "pipeline_finished"


@dataclass(frozen=True)
class PipelineEvent:
    """One lifecycle transition of a pipeline run."""

    kind: str
    stage: Optional[str] = None  # stage name, None for pipeline-level events
    seconds: float = 0.0  # wall time, for *_finished events


class PipelineObserver:
    """Base observer: override :meth:`on_event` (default ignores all)."""

    def on_event(self, event: PipelineEvent) -> None:  # pragma: no cover
        pass


class ProgressPrinter(PipelineObserver):
    """Human-readable stage progress on a stream (stderr by default)."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream or sys.stderr

    def on_event(self, event: PipelineEvent) -> None:
        if event.kind == STAGE_STARTED:
            line = "[pipeline] %s ..." % event.stage
        elif event.kind == STAGE_FINISHED:
            line = "[pipeline] %s done in %.2fs" % (event.stage, event.seconds)
        elif event.kind == PIPELINE_FINISHED:
            line = "[pipeline] finished in %.2fs" % event.seconds
        else:
            return
        print(line, file=self.stream)


class EventRecorder(PipelineObserver):
    """Records every event; handy for tests and programmatic inspection."""

    def __init__(self) -> None:
        self.events = []

    def on_event(self, event: PipelineEvent) -> None:
        self.events.append(event)

    def kinds(self, stage: Optional[str] = None):
        return [e.kind for e in self.events if stage is None or e.stage == stage]
