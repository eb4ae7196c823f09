"""The stage protocol: named, dependency-typed units of pipeline work.

A stage declares which artifacts it ``requires`` from the context and
which it ``provides`` back; the :class:`~repro.pipeline.runner.Pipeline`
validates that every requirement is met by an earlier stage (or by a
resumed session) *before* anything runs, replacing the old facade's
hidden "call this method first" ordering constraints with a checked DAG.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .context import PipelineContext


class Stage:
    """One unit of pipeline work.

    Subclasses set the three class attributes and implement :meth:`run`,
    which reads its inputs via ``ctx.require(...)`` and publishes each
    artifact named in ``provides`` via ``ctx.put(...)``.  The runner
    verifies the contract (all ``provides`` present) after ``run``.
    """

    #: Unique stage name, used by ``--stages`` and progress events.
    name: str = ""
    #: Artifact names this stage reads from the context.
    requires: Tuple[str, ...] = ()
    #: Artifact names this stage publishes to the context.
    provides: Tuple[str, ...] = ()

    def run(self, ctx: "PipelineContext") -> None:
        raise NotImplementedError

    def hydrate(self, ctx: "PipelineContext", artifacts: Dict[str, Any]) -> None:
        """Wire session-loaded artifacts into live state (driver caches).

        Called instead of :meth:`run` when every artifact in ``provides``
        was restored from a session; ``artifacts`` maps each provided name
        to its loaded value (already ``put`` into the context).  The
        default is a no-op — stages whose artifacts feed shared mutable
        state (the experiment driver) override this.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<stage %s: %s -> %s>" % (
            self.name,
            ",".join(self.requires) or "()",
            ",".join(self.provides),
        )
