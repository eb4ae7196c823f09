"""Virtual-time discrete-event substrate for the simulated mini-systems.

The model (documented in DESIGN.md): every node is a single-threaded
executor with a ``busy_until`` horizon.  Handlers fire from a global event
heap; a handler scheduled at ``t`` on a node busy until ``b > t`` starts at
``b``.  While a handler runs it accrues virtual processing cost via
:meth:`SimEnv.spin` — which is exactly where injected per-iteration delay
lands — pushing ``busy_until`` forward and thereby postponing the node's
subsequent heartbeats, reports, and RPC service.  RPCs execute the callee
synchronously with time accounting and raise :class:`~repro.errors.RpcTimeout`
when the accounted round-trip exceeds the timeout.  This is what turns an
injected delay into the timeouts and error-handler activations that
self-sustaining cascades feed on.
"""

from .events import SimEnv
from .node import Node

__all__ = ["SimEnv", "Node"]
