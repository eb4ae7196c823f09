"""The pipeline runner: validated stage DAG, events, session persistence."""

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
    STAGE_RESUMED,
    STAGE_STARTED,
    PipelineEvent,
    PipelineObserver,
)
from .executor import Executor, make_executor
from .session import Session
from .stage import Stage
from .stages import default_stages, producer_of


class Pipeline:
    """Composable staged campaign over one target system.

    The stage list is validated up front: every stage's ``requires`` must
    be provided by an earlier stage, already present in the context, or
    restorable from the attached session — ordering mistakes fail before
    any experiment runs, not three stages in.
    """

    def __init__(
        self,
        spec: SystemSpec,
        config: Optional[CSnakeConfig] = None,
        stages: Optional[Sequence[Stage]] = None,
        executor: Optional[Executor] = None,
        observers: Sequence[PipelineObserver] = (),
        session: Optional[Session] = None,
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
        self.session = session
        self.validate()

    # ------------------------------------------------------------ wiring

    @classmethod
    def default(cls, spec: SystemSpec, config: Optional[CSnakeConfig] = None, **kwargs) -> "Pipeline":
        """The standard five-stage CSnake pipeline."""
        return cls(spec, config, stages=default_stages(), **kwargs)

    def validate(self) -> None:
        """Check stage-name uniqueness and requires/provides satisfiability."""
        seen_names = set()
        available = set(self.ctx.names())
        if self.session is not None:
            available |= {n for n in self.session.completed if self.session.has_artifact(n)}
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

    def _load_requirements(self, stage: Stage) -> None:
        """Restore a live stage's missing requirements from the session.

        A filtered stage list (``--stages allocate`` continuing an earlier
        ``--stages analyze,profile`` session) runs a stage whose producers
        are absent; their persisted artifacts are loaded and hydrated via
        the default producer so shared driver state is rewired too.
        """
        if self.session is None:
            return
        for name in stage.requires:
            if self.ctx.has(name) or not self.session.has_artifact(name):
                continue
            value = self.session.load_artifact(name)
            self.ctx.put(name, value)
            producer = producer_of(name)
            if producer is not None:
                producer.hydrate(self.ctx, {name: value})
                self._emit(STAGE_RESUMED, producer.name)

    # -------------------------------------------------------------- running

    def run(self) -> PipelineContext:
        """Run (or resume) the pipeline; returns the final context.

        With a session attached, the longest prefix of stages whose
        artifacts are already persisted is *loaded* instead of run
        (``stage_resumed`` events); every stage that does run live has its
        artifacts persisted on completion.
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
        resuming = self.session is not None
        for stage in self.stages:
            if all(self.ctx.has(name) for name in stage.provides):
                self._emit(STAGE_CACHED, stage.name)
                continue
            if resuming and all(self.session.has_artifact(n) for n in stage.provides):
                loaded = {n: self.session.load_artifact(n) for n in stage.provides}
                for name, value in loaded.items():
                    self.ctx.put(name, value)
                stage.hydrate(self.ctx, loaded)
                self._emit(STAGE_RESUMED, stage.name)
                continue
            # Once one stage runs live, later artifacts on disk are stale
            # relative to the in-memory driver state — rerun them too.
            resuming = False
            self._load_requirements(stage)
            self._emit(STAGE_STARTED, stage.name)
            t0 = time.perf_counter()
            stage.run(self.ctx)
            missing = [n for n in stage.provides if not self.ctx.has(n)]
            if missing:
                raise StageDependencyError(
                    "stage %r finished without providing %s"
                    % (stage.name, ", ".join(repr(m) for m in missing))
                )
            seconds = time.perf_counter() - t0
            if self.session is not None:
                names = self.session.persistable(stage.provides)
                self.session.save_artifacts(
                    stage.name, {n: self.ctx.get(n) for n in names}
                )
            self._emit(STAGE_FINISHED, stage.name, seconds)
