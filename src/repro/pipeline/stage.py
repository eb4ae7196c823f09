"""The stage protocol: named, dependency-typed units of pipeline work.

A stage declares which artifacts it ``requires`` from the context and
which it ``provides`` back; the :class:`~repro.pipeline.runner.Pipeline`
validates that every requirement is met by an earlier stage *before*
anything runs, replacing the old facade's hidden "call this method
first" ordering constraints with a checked DAG.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .context import PipelineContext


class Stage:
    """One unit of pipeline work.

    Subclasses set the three class attributes and implement :meth:`run`,
    which reads its inputs via ``ctx.require(...)`` and publishes each
    artifact named in ``provides`` via ``ctx.put(...)``.  The runner
    verifies the contract (all ``provides`` present) after ``run``.
    """

    #: Unique stage name, used by progress events.
    name: str = ""
    #: Artifact names this stage reads from the context.
    requires: Tuple[str, ...] = ()
    #: Artifact names this stage publishes to the context.
    provides: Tuple[str, ...] = ()

    def run(self, ctx: "PipelineContext") -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<stage %s: %s -> %s>" % (
            self.name,
            ",".join(self.requires) or "()",
            ",".join(self.provides),
        )
