"""The typed artifact store threaded through every pipeline stage."""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..config import CSnakeConfig
from ..core.driver import ExperimentDriver
from ..errors import MissingArtifact
from ..systems.base import SystemSpec
from .executor import Executor, SerialExecutor


class PipelineContext:
    """Everything stages share: spec, config, driver, executor, artifacts.

    Artifacts are keyed by name (``analysis``, ``profiles``,
    ``allocation``, ``beam``, ``report``); :meth:`require` raises
    :class:`~repro.errors.MissingArtifact` with the producing stage's name
    when a dependency was skipped, instead of the old facade's opaque
    ``RuntimeError``.
    """

    def __init__(
        self,
        spec: SystemSpec,
        config: Optional[CSnakeConfig] = None,
        executor: Optional[Executor] = None,
    ) -> None:
        self.spec = spec
        self.config = config or CSnakeConfig()
        self.executor = executor or SerialExecutor()
        #: The shared workload driver: profile cache, edge DB, counters.
        self.driver = ExperimentDriver(self.spec, self.config)
        self._artifacts: Dict[str, Any] = {}

    # -------------------------------------------------------------- storage

    def put(self, name: str, value: Any) -> None:
        self._artifacts[name] = value

    def get(self, name: str, default: Any = None) -> Any:
        return self._artifacts.get(name, default)

    def has(self, name: str) -> bool:
        return name in self._artifacts

    def require(self, name: str) -> Any:
        try:
            return self._artifacts[name]
        except KeyError:
            raise MissingArtifact(
                "artifact %r has not been produced; run its stage first" % name
            ) from None
