"""The pipeline runner: validated stage DAG and lifecycle events."""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from ..config import CSnakeConfig
from ..errors import StageDependencyError
from ..systems.base import SystemSpec
from .context import PipelineContext
from .events import (
    PIPELINE_FINISHED,
    PIPELINE_STARTED,
    STAGE_CACHED,
    STAGE_FINISHED,
    STAGE_STARTED,
    PipelineEvent,
    PipelineObserver,
)
from .executor import Executor, make_executor
from .stage import Stage
from .stages import default_stages


class Pipeline:
    """Composable staged campaign over one target system.

    The stage list is validated up front: every stage's ``requires`` must
    be provided by an earlier stage — ordering mistakes fail before any
    experiment runs, not three stages in.
    """

    def __init__(
        self,
        spec: SystemSpec,
        config: Optional[CSnakeConfig] = None,
        stages: Optional[Sequence[Stage]] = None,
        executor: Optional[Executor] = None,
        observers: Sequence[PipelineObserver] = (),
    ) -> None:
        self.spec = spec
        self.config = config or CSnakeConfig()
        self._owns_executor = executor is None
        self.executor = executor or make_executor(
            self.config.experiment_workers,
            self.config.experiment_backend,
            self.config.manager_url,
        )
        self.ctx = PipelineContext(spec, self.config, self.executor)
        self.stages: List[Stage] = list(stages) if stages is not None else default_stages()
        self.observers = list(observers)
        self.validate()

    # ------------------------------------------------------------ wiring

    @classmethod
    def default(cls, spec: SystemSpec, config: Optional[CSnakeConfig] = None, **kwargs) -> "Pipeline":
        """The standard five-stage CSnake pipeline."""
        return cls(spec, config, stages=default_stages(), **kwargs)

    def validate(self) -> None:
        """Check stage-name uniqueness and requires/provides satisfiability."""
        seen_names = set()
        available = set()
        for stage in self.stages:
            if not stage.name:
                raise StageDependencyError("stage %r has no name" % stage)
            if stage.name in seen_names:
                raise StageDependencyError("duplicate stage name %r" % stage.name)
            seen_names.add(stage.name)
            missing = [r for r in stage.requires if r not in available]
            if missing:
                raise StageDependencyError(
                    "stage %r requires %s, provided by no earlier stage"
                    % (stage.name, ", ".join(repr(m) for m in missing))
                )
            available.update(stage.provides)

    def _emit(self, kind: str, stage: Optional[str] = None, seconds: float = 0.0, **detail) -> None:
        event = PipelineEvent(kind=kind, stage=stage, seconds=seconds, detail=detail)
        for observer in self.observers:
            observer.on_event(event)

    # -------------------------------------------------------------- running

    def run(self) -> PipelineContext:
        """Run the pipeline; returns the final context.

        A stage whose artifacts are all already in the context is skipped
        (``stage_cached``).  An interrupted campaign is recovered by running
        it again over the same ``cache_dir``: every experiment it finished
        replays from the experiment cache.
        """
        started = time.perf_counter()
        self._emit(PIPELINE_STARTED)
        try:
            self._run_stages()
        finally:
            if self._owns_executor:
                # Release backend resources (worker processes, in
                # particular).  Executors re-open lazily, so a re-run of
                # the same pipeline object still works.
                self.executor.close()
        self._emit(PIPELINE_FINISHED, seconds=time.perf_counter() - started)
        return self.ctx

    def _run_stages(self) -> None:
        for stage in self.stages:
            if all(self.ctx.has(name) for name in stage.provides):
                self._emit(STAGE_CACHED, stage.name)
                continue
            self._emit(STAGE_STARTED, stage.name)
            t0 = time.perf_counter()
            stage.run(self.ctx)
            missing = [n for n in stage.provides if not self.ctx.has(n)]
            if missing:
                raise StageDependencyError(
                    "stage %r finished without providing %s"
                    % (stage.name, ", ".join(repr(m) for m in missing))
                )
            self._emit(STAGE_FINISHED, stage.name, time.perf_counter() - t0)
