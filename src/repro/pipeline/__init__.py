"""Composable, parallel campaign pipeline.

The top-level API of the reproduction::

    from repro.pipeline import Pipeline
    from repro.systems import get_system

    ctx = Pipeline.default(get_system("toy")).run()
    report = ctx.get("report")

Stages declare ``requires``/``provides`` artifact names and are validated
as a DAG before anything runs; independent injection experiments fan out
over a pluggable :class:`Executor`.  With ``cache_dir`` set, every
finished experiment is on disk, so an interrupted campaign is recovered
by running it again.  See DESIGN.md for the stage graph.
"""

from .context import PipelineContext
from .events import (
    EventRecorder,
    PipelineEvent,
    PipelineObserver,
    ProgressPrinter,
)
from .executor import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from .runner import Pipeline
from .stage import Stage
from .stages import (
    AllocationStage,
    BeamSearchStage,
    ProfileStage,
    ReportStage,
    StaticAnalysisStage,
    default_stages,
)

__all__ = [
    "Pipeline",
    "PipelineContext",
    "Stage",
    "default_stages",
    "StaticAnalysisStage",
    "ProfileStage",
    "AllocationStage",
    "BeamSearchStage",
    "ReportStage",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "BACKENDS",
    "make_executor",
    "PipelineEvent",
    "PipelineObserver",
    "ProgressPrinter",
    "EventRecorder",
]
