"""Composable, parallel, resumable campaign pipeline.

The top-level API of the reproduction::

    from repro.pipeline import Pipeline
    from repro.systems import get_system

    ctx = Pipeline.default(get_system("toy")).run()
    report = ctx.get("report")

Stages declare ``requires``/``provides`` artifact names and are validated
as a DAG before anything runs; independent injection experiments fan out
over a pluggable :class:`Executor`; attaching a :class:`Session` persists
each stage's artifact as JSON so an interrupted campaign resumes exactly
where it stopped.  See DESIGN.md for the stage graph and session layout.
"""

from .artifacts import ARTIFACT_CODECS, AllocationArtifact, ProfilesArtifact
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
from .session import Session
from .stage import Stage
from .stages import (
    STAGE_NAMES,
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
    "STAGE_NAMES",
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
    "Session",
    "PipelineEvent",
    "PipelineObserver",
    "ProgressPrinter",
    "EventRecorder",
    "ProfilesArtifact",
    "AllocationArtifact",
    "ARTIFACT_CODECS",
]
