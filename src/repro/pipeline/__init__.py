"""The campaign pipeline.

The top-level API of the reproduction::

    from repro.pipeline import Pipeline
    from repro.systems import get_system

    ctx = Pipeline.default(get_system("toy")).run()
    report = ctx.get("report")

A campaign is the five stage functions of :data:`STAGES` run in order on
one :class:`PipelineContext`; independent injection experiments fan out
over a pluggable :class:`Executor`.  With ``cache_dir`` set, every
finished experiment is on disk, so an interrupted campaign is recovered
by running it again.  See DESIGN.md §4.
"""

from .context import PipelineContext
from .events import EventRecorder, PipelineEvent, format_event
from .executor import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from .runner import Pipeline
from .stages import STAGES

__all__ = [
    "Pipeline",
    "PipelineContext",
    "STAGES",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "BACKENDS",
    "make_executor",
    "PipelineEvent",
    "EventRecorder",
    "format_event",
]
