"""The pipeline runner: the five stages in order, with lifecycle events."""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from ..config import CSnakeConfig
from ..systems.base import SystemSpec
from .context import PipelineContext
from .events import (
    PIPELINE_FINISHED,
    PIPELINE_STARTED,
    STAGE_FINISHED,
    STAGE_STARTED,
    PipelineEvent,
)
from .executor import Executor, make_executor
from .stages import STAGES


class Pipeline:
    """One CSnake campaign over one target system: :data:`STAGES` in order."""

    def __init__(
        self,
        spec: SystemSpec,
        config: Optional[CSnakeConfig] = None,
        executor: Optional[Executor] = None,
        observers: Sequence[Callable[[PipelineEvent], None]] = (),
    ) -> None:
        self.spec = spec
        self.config = config or CSnakeConfig()
        self._owns_executor = executor is None
        self.executor = executor or make_executor(
            self.config.experiment_workers, self.config.experiment_backend
        )
        self.observers = list(observers)

    @classmethod
    def default(cls, spec: SystemSpec, config: Optional[CSnakeConfig] = None, **kwargs) -> "Pipeline":
        """The standard five-stage CSnake pipeline."""
        return cls(spec, config, **kwargs)

    def _emit(self, kind: str, stage: Optional[str] = None, seconds: float = 0.0) -> None:
        event = PipelineEvent(kind=kind, stage=stage, seconds=seconds)
        for observer in self.observers:
            observer(event)

    def run(self) -> PipelineContext:
        """Run the campaign on a fresh context and return it.

        Every call is a whole campaign of its own.  An interrupted campaign
        is recovered by running it again over the same ``cache_dir``: every
        experiment it finished replays from the experiment cache.
        """
        ctx = PipelineContext(self.spec, self.config, self.executor)
        started = time.perf_counter()
        self._emit(PIPELINE_STARTED)
        try:
            for name, stage in STAGES:
                self._emit(STAGE_STARTED, name)
                t0 = time.perf_counter()
                stage(ctx)
                self._emit(STAGE_FINISHED, name, time.perf_counter() - t0)
        finally:
            if self._owns_executor:
                # Release backend resources (worker processes, in
                # particular).  Executors re-open lazily, so a re-run of
                # the same pipeline object still works.
                self.executor.close()
        self._emit(PIPELINE_FINISHED, seconds=time.perf_counter() - started)
        return ctx
