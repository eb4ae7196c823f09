"""The campaign event stream: lifecycle events, sinks and their one format.

The runner hands one :class:`PipelineEvent` per lifecycle transition to
each of its sinks, and a sink is any callable of one event.  Events are
purely informational: a sink cannot alter the campaign, and a sink that
raises fails the run loudly rather than corrupting it silently.

:func:`format_event` is the one way an event becomes a line of text, for a
local campaign (``repro run -v``) and a submitted one (``--follow``) alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

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

    def detail(self) -> Dict[str, Any]:
        """The ``detail`` of this event in a campaign's event feed."""
        return {"stage": self.stage, "seconds": round(self.seconds, 6)}


class EventRecorder:
    """The list sink: records every event, for tests and programmatic use."""

    def __init__(self) -> None:
        self.events: List[PipelineEvent] = []

    def __call__(self, event: PipelineEvent) -> None:
        self.events.append(event)

    def kinds(self, stage: Optional[str] = None) -> List[str]:
        return [e.kind for e in self.events if stage is None or e.stage == stage]


def format_event(label: str, kind: str, detail: Dict[str, Any]) -> str:
    """``[label] kind key=value, ...``: the detail's keys sorted, its empty
    values left out."""
    fields = ", ".join(
        "%s=%s" % (k, v) for k, v in sorted(detail.items()) if v not in (None, "")
    )
    return "[%s] %s %s" % (label, kind, fields)
