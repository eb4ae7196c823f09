"""Campaign-as-a-service: manager/agent distributed execution.

The subsystem has four parts, layered so every piece is testable without
a network and the whole service runs on the standard library alone:

* :mod:`repro.service.manager` — :class:`ManagerCore`, the thread-safe
  lease-based work queue + campaign registry (pure state machine, clock
  injectable);
* :mod:`repro.service.remote` — :class:`RemoteExecutor`, the
  :class:`~repro.pipeline.executor.Executor` a submitted campaign runs
  on manager-side, over the :class:`ManagerCore`'s own queue;
* :mod:`repro.service.http` — stdlib ``http.server`` JSON API;
* :mod:`repro.service.agent` — the worker agent loop (``repro agent``).
"""

from .agent import Agent
from .http import HttpTransport, ManagerServer
from .manager import ManagerCore
from .remote import RemoteExecutor

__all__ = [
    "Agent",
    "HttpTransport",
    "ManagerCore",
    "ManagerServer",
    "RemoteExecutor",
]
