"""Live observability endpoint: scrape a running simulation.

A stdlib-only HTTP server (``http.server``) exposing the *current*
observability objects — it reads :func:`repro.obs.get_registry` /
:func:`~repro.obs.get_timeseries` / :func:`~repro.obs.get_events` at
request time, so a sweep can be scraped mid-run while the simulation
thread keeps mutating them (single-writer, snapshot-on-read).

Routes:

* ``GET /metrics`` — Prometheus text exposition of the live registry.
* ``GET /snapshot.json`` — one JSON document: metrics dump, time-series
  payload, the SLO evaluation of the server's policy, and the event
  tail.
* ``GET /healthz`` — liveness probe.

Usage (the CLI's ``--serve PORT`` does exactly this)::

    from repro.obs import server
    srv = server.start_server(port=9105)   # port=0 picks a free port
    print(srv.url)
    ...
    srv.close()

This endpoint is the seam the ROADMAP's interactive control plane will
own later: anything that can scrape Prometheus or fetch JSON can watch
a run without touching the simulation loop.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import enabled, get_events, get_registry, get_timeseries
from .slo import SloPolicy, default_policy, evaluate

__all__ = ["ObsServer", "start_server", "build_snapshot"]

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Events included in the JSON snapshot (newest last).
SNAPSHOT_EVENT_TAIL = 200


def build_snapshot(policy: SloPolicy | None = None) -> dict:
    """The /snapshot.json document over the live observability objects.

    With observability off every section is empty.
    """
    if not enabled():
        return {"enabled": False, "metrics": {},
                "timeseries": {"max_days": 0, "days": []}, "events": []}
    timeseries = get_timeseries()
    snapshot = {
        "enabled": True,
        "metrics": get_registry().as_dict(),
        "timeseries": timeseries.as_payload(),
        "events": [event.as_dict()
                   for event in get_events().tail(SNAPSHOT_EVENT_TAIL)],
    }
    if len(timeseries):
        used = policy if policy is not None else default_policy()
        snapshot["slo"] = evaluate(used, timeseries).as_dict()
    return snapshot


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            registry = get_registry()
            body = (registry.to_prometheus().encode() if registry.enabled
                    else b"")
            self._reply(200, PROMETHEUS_CONTENT_TYPE, body)
        elif path == "/snapshot.json":
            snapshot = build_snapshot(getattr(self.server, "obs_policy",
                                              None))
            body = json.dumps(snapshot, sort_keys=True).encode()
            self._reply(200, "application/json", body)
        elif path == "/healthz":
            self._reply(200, "text/plain; charset=utf-8", b"ok\n")
        else:
            self._reply(404, "text/plain; charset=utf-8",
                        f"no route {path}\n".encode())

    def _reply(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        pass  # scrapes must not spam the run's stderr


class ObsServer:
    """The live endpoint: a daemon-threaded HTTP server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 policy: SloPolicy | None = None) -> None:
        self._http = ThreadingHTTPServer((host, port), _Handler)
        self._http.daemon_threads = True
        self._http.obs_policy = policy
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObsServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._http.serve_forever, name="repro-obs-server",
                daemon=True)
            self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._http.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._http.server_close()

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


def start_server(host: str = "127.0.0.1", port: int = 0,
                 policy: SloPolicy | None = None) -> ObsServer:
    """Create and start an :class:`ObsServer`; ``port=0`` = ephemeral."""
    return ObsServer(host=host, port=port, policy=policy).start()
