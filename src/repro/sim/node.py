"""Node base class for simulated cluster members."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import NodeCrashed

if TYPE_CHECKING:  # pragma: no cover
    from .events import SimEnv


class Node:
    """A single-threaded cluster member with a ``busy_until`` horizon.

    Subclasses implement protocol handlers as plain methods; the environment
    charges their processing cost (``env.spin``) to this node, delaying its
    subsequently scheduled work.
    """

    def __init__(self, env: "SimEnv", name: str) -> None:
        self.env = env
        self.name = name
        self.busy_until = 0.0
        self.crashed = False
        env.nodes.append(self)

    def crash(self) -> None:
        """Stop executing handlers; pending events for this node are dropped.

        The crash leaves a ``seq`` watermark (:meth:`SimEnv.cancel_events_for`)
        and :meth:`SimEnv.run` drops every entry scheduled before it when it
        pops one — so also a periodic chain's next firing that falls
        *beyond* a later restart.  Letting that survive the outage would
        leave the old chain running alongside the one ``on_restart``
        re-registers: double-rate ticking after recovery.
        """
        self.crashed = True
        self.env.cancel_events_for(self)

    def restart(self) -> None:
        """Bring a crashed node back.

        The crash dropped the node's pending events — including the tail
        of any ``env.every`` chain — so :meth:`on_restart` runs afterwards
        to rebuild periodic behaviour and reset volatile state.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.busy_until = self.env.now
        self.on_restart()

    def on_restart(self) -> None:
        """Recovery hook invoked by :meth:`restart`; subclasses re-register
        their periodic handlers and reset volatile role state here."""

    def check_alive(self) -> None:
        """Raise if a synchronous call reached a crashed node."""
        if self.crashed:
            raise NodeCrashed(self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<Node %s>" % self.name
