"""HTTP framing for the manager: stdlib server and JSON client.

The wire protocol is deliberately boring: every endpoint is JSON over
POST/GET, a thin shim over one :class:`~repro.service.manager.ManagerCore`
method each, so the in-process transport used by tests exercises the same
state machine as the network.  After registering, an agent sends one kind
of request: a ``lease`` that delivers the outcomes it finished since the
last one, renews its lease, and leases the free room in its window.  The
primary server is built on ``http.server.ThreadingHTTPServer`` — no
dependency beyond the standard library, which is what keeps the tier-1
test suite runnable anywhere.

Endpoints (all request/response bodies JSON):

========  ==================================  ==================================================
 method    path                                core method
========  ==================================  ==================================================
 GET       ``/api/health``                     ``stats()`` (protocol version 4)
 POST      ``/api/agents/register``            ``register_agent(name, workers)``
 POST      ``/api/agents/lease``               ``lease(agent, max_tasks, wait_s, outcomes, cache)``
 POST      ``/api/campaigns``                  ``start_campaign(system, config)``
 GET       ``/api/campaigns``                  ``list_campaigns()``
 GET       ``/api/campaigns/<id>``             ``campaign_status(id, wait)``
 GET       ``/api/campaigns/<id>/report``      ``campaign_report(id)``
 GET       ``/api/campaigns/<id>/events``      ``campaign_events(id, after, wait)``
========  ==================================  ==================================================

Failure semantics: a :class:`~repro.errors.ReproError` from the core maps
to HTTP 400 with ``{"error": ...}``, as does a body or query that lacks or
mistypes a field the route reads (the error names it, down to one entry
of a lease's ``outcomes``) and a body shorter than its
``Content-Length``; a declared length over
:data:`MAX_REQUEST_BYTES` is a 413, answered unread; anything else is a
500.  Long-polling endpoints (``lease``, a campaign's status and
``events``) bound their own wait, so a client timeout only needs a small
margin over the requested wait.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from .manager import ManagerCore

#: Extra client-side slack over a long-poll's server-side wait bound.
CLIENT_TIMEOUT_MARGIN_S = 30.0
#: The longest request body the manager reads, in bytes; a longer declared
#: ``Content-Length`` is answered 413 before any of it is read.  The largest
#: body measured is an ``/api/agents/lease`` of a submitted minidfs campaign
#: on a 2-worker agent: 26 358 bytes at the default config (24 911 with
#: every fault kind and schedule).  16 MiB leaves a margin of over 600x: a
#: lease carries at most ``2 × workers`` outcomes, so even a 300-worker
#: agent's window of outcomes that large fits.
MAX_REQUEST_BYTES = 16 * 1024 * 1024


def _field(obj: Dict[str, Any], name: str, cast: Optional[Callable] = None, default: Any = None):
    """Field ``name`` of a request body or query, required unless given a
    ``default``; a :class:`ReproError` (HTTP 400) names it when it is
    missing or not what ``cast`` takes."""
    if name not in obj:
        if default is None:
            raise ReproError("bad request: field %r is missing" % name)
        return default
    try:
        return obj[name] if cast is None else cast(obj[name])
    except (TypeError, ValueError):
        raise ReproError(
            "bad request: field %r must be %s, got %r" % (name, cast.__name__, obj[name])
        ) from None


def _outcomes(body: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The ``outcomes`` of a lease request, ``[]`` when absent; a
    :class:`ReproError` (HTTP 400) names the field that is not a list of
    objects each with a string ``id`` and one of ``result`` or ``error``."""
    outcomes = body.get("outcomes", [])
    if not isinstance(outcomes, list):
        raise ReproError("bad request: field 'outcomes' must be a list")
    for i, entry in enumerate(outcomes):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("id"), str)
            and (entry.get("result") is None) != (entry.get("error") is None)
            and isinstance(entry.get("error", ""), (str, type(None)))
        ):
            raise ReproError(
                "bad request: field 'outcomes[%d]' needs a string 'id' and either a "
                "'result' or an 'error' string" % i
            )
    return outcomes


# ---------------------------------------------------------------- server


class _TooLarge(Exception):
    """A declared request body longer than :data:`MAX_REQUEST_BYTES`."""


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the owning server's :class:`ManagerCore`."""

    server_version = "repro-manager/1"
    protocol_version = "HTTP/1.1"

    # Quiet by default; the CLI flips this on with ``repro serve -v``.
    def log_message(self, fmt: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    @property
    def core(self) -> ManagerCore:
        return self.server.core  # type: ignore[attr-defined]

    def _body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        if length > MAX_REQUEST_BYTES:
            raise _TooLarge("%d bytes exceeds the %d-byte limit" % (length, MAX_REQUEST_BYTES))
        data = self.rfile.read(length)
        if len(data) < length:
            raise ValueError("ended after %d of %d bytes" % (len(data), length))
        return json.loads(data.decode("utf-8"))

    def _reply(self, payload: Dict[str, Any], status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, fn: Callable[[], Dict[str, Any]]) -> None:
        try:
            self._reply(fn())
        except ReproError as exc:
            self._reply({"error": str(exc)}, status=400)
        except BrokenPipeError:  # client hung up mid-long-poll
            pass
        except Exception as exc:  # noqa: BLE001 - report, don't kill the thread
            self._reply({"error": "%s: %s" % (type(exc).__name__, exc)}, status=500)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        parsed = urllib.parse.urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query = {k: v[-1] for k, v in urllib.parse.parse_qs(parsed.query).items()}
        if parts == ["api", "health"]:
            self._dispatch(self.core.stats)
        elif parts == ["api", "campaigns"]:
            self._dispatch(self.core.list_campaigns)
        elif len(parts) == 3 and parts[:2] == ["api", "campaigns"]:
            self._dispatch(
                lambda: self.core.campaign_status(
                    parts[2], wait_s=_field(query, "wait", float, 0.0)
                )
            )
        elif len(parts) == 4 and parts[:2] == ["api", "campaigns"] and parts[3] == "report":
            self._dispatch(lambda: {"report": self.core.campaign_report(parts[2])})
        elif len(parts) == 4 and parts[:2] == ["api", "campaigns"] and parts[3] == "events":
            self._dispatch(
                lambda: self.core.campaign_events(
                    parts[2],
                    after=_field(query, "after", int, 0),
                    wait_s=_field(query, "wait", float, 0.0),
                )
            )
        else:
            self._reply({"error": "no such endpoint: %s" % parsed.path}, status=404)

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        parts = [p for p in urllib.parse.urlparse(self.path).path.split("/") if p]
        try:
            body = self._body()
            if not isinstance(body, dict):
                raise ValueError("expected a JSON object")
        except _TooLarge as exc:
            # The body is left unread, so the connection cannot carry
            # another request.
            self.close_connection = True
            self._reply({"error": "bad request body: %s" % exc}, status=413)
            return
        except (ValueError, UnicodeDecodeError) as exc:
            self._reply({"error": "bad request body: %s" % exc}, status=400)
            return
        routes: Dict[Tuple[str, ...], Callable[[], Dict[str, Any]]] = {
            ("api", "agents", "register"): lambda: self.core.register_agent(
                name=body.get("name", ""), workers=_field(body, "workers", int, 1)
            ),
            ("api", "agents", "lease"): lambda: self.core.lease(
                _field(body, "agent"),
                max_tasks=_field(body, "max_tasks", int, 1),
                wait_s=_field(body, "wait_s", float, 0.0),
                outcomes=_outcomes(body),
                cache=body.get("cache"),
            ),
            ("api", "campaigns"): lambda: self.core.start_campaign(
                _field(body, "system"), _field(body, "config"), label=body.get("label", "")
            ),
        }
        fn = routes.get(tuple(parts))
        if fn is None:
            self._reply({"error": "no such endpoint: %s" % self.path}, status=404)
        else:
            self._dispatch(fn)


class ManagerServer:
    """The stdlib HTTP manager: a ``ThreadingHTTPServer`` over a core.

    ``port=0`` binds an ephemeral port (tests, benchmarks); ``url`` is
    available after construction either way.  ``serve_forever`` blocks;
    ``start`` serves from a daemon thread.
    """

    def __init__(
        self,
        core: Optional[ManagerCore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.core = core or ManagerCore()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.core = self.core  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return "http://%s:%d" % (host, port)

    def start(self) -> "ManagerServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-manager-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever(poll_interval=0.1)

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ManagerServer":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.shutdown()


# ---------------------------------------------------------------- client


class HttpTransport:
    """JSON client for the manager API (urllib; no dependencies).

    Implements the agent-side surface (``register_agent`` / ``lease``)
    and the campaign verbs the CLI uses — one class is the entire
    protocol.
    """

    def __init__(self, url: str, timeout_s: float = CLIENT_TIMEOUT_MARGIN_S) -> None:
        self.url = url.rstrip("/")
        self.timeout_s = timeout_s

    def _call(
        self,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        wait_s: float = 0.0,
    ) -> Dict[str, Any]:
        url = self.url + path
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            request = urllib.request.Request(url, data=data, headers=headers)
        except ValueError as exc:
            raise ReproError("invalid manager URL %r: %s" % (self.url, exc)) from exc
        try:
            with urllib.request.urlopen(request, timeout=wait_s + self.timeout_s) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8")).get("error", "")
            except Exception:  # noqa: BLE001 - body may not be JSON
                detail = ""
            raise ReproError(
                "manager %s replied %d%s" % (url, exc.code, ": %s" % detail if detail else "")
            ) from exc
        except (urllib.error.URLError, socket.timeout, ConnectionError) as exc:
            raise ReproError("cannot reach manager at %s: %s" % (url, exc)) from exc

    # agent-side --------------------------------------------------------

    def register_agent(self, name: str = "", workers: int = 1) -> Dict[str, Any]:
        return self._call("/api/agents/register", {"name": name, "workers": workers})

    def lease(
        self,
        agent: str,
        max_tasks: int = 1,
        wait_s: float = 0.0,
        outcomes: Sequence[Dict[str, Any]] = (),
        cache: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        payload = {"agent": agent, "max_tasks": max_tasks, "wait_s": wait_s}
        payload.update(outcomes=list(outcomes), cache=cache)
        return self._call("/api/agents/lease", payload, wait_s=wait_s)

    # campaign verbs ----------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._call("/api/health")

    def start_campaign(
        self, system: str, config_obj: Dict[str, Any], label: str = ""
    ) -> Dict[str, Any]:
        return self._call(
            "/api/campaigns", {"system": system, "config": config_obj, "label": label}
        )

    def list_campaigns(self) -> Dict[str, Any]:
        return self._call("/api/campaigns")

    def campaign_status(self, campaign_id: str, wait_s: float = 0.0) -> Dict[str, Any]:
        return self._call("/api/campaigns/%s?wait=%s" % (campaign_id, wait_s), wait_s=wait_s)

    def campaign_report(self, campaign_id: str) -> Optional[Dict[str, Any]]:
        return self._call("/api/campaigns/%s/report" % campaign_id)["report"]

    def campaign_events(
        self, campaign_id: str, after: int = 0, wait_s: float = 0.0
    ) -> Dict[str, Any]:
        return self._call(
            "/api/campaigns/%s/events?after=%d&wait=%s" % (campaign_id, after, wait_s),
            wait_s=wait_s,
        )
