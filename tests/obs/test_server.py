"""The live HTTP endpoint: scrape metrics and snapshots over real sockets."""

import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.server import (PROMETHEUS_CONTENT_TYPE, build_snapshot,
                              start_server)

from .rows import RowLog


def _get(url):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, response.headers, response.read().decode()


@pytest.fixture()
def server():
    srv = start_server(port=0)
    yield srv
    srv.close()


def test_metrics_route_serves_prometheus_text(live_obs, server):
    _, registry = live_obs
    registry.counter("repro_test_requests_total", route="a").inc(3)
    status, headers, body = _get(server.url + "/metrics")
    assert status == 200
    assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
    assert "# TYPE repro_test_requests_total counter" in body
    assert 'repro_test_requests_total{route="a"} 3' in body


def test_metrics_route_reads_the_live_registry_at_request_time(live_obs,
                                                               server):
    """The endpoint is scrapeable mid-run: mutations after start() show
    up on the next scrape."""
    _, registry = live_obs
    counter = registry.counter("repro_live_updates_total")
    _, _, before = _get(server.url + "/metrics")
    assert "repro_live_updates_total 0" in before
    counter.inc(7)
    _, _, after = _get(server.url + "/metrics")
    assert "repro_live_updates_total 7" in after


def test_snapshot_route_carries_all_pillars_and_slo(live_obs, server):
    obs.get_timeseries().observe_day(day=0, records=RowLog([]))
    obs.get_events().emit("fault_injected", day=0, fault_kind="crash")
    status, headers, body = _get(server.url + "/snapshot.json")
    assert status == 200
    assert headers["Content-Type"] == "application/json"
    snapshot = json.loads(body)
    assert snapshot["enabled"] is True
    assert snapshot["timeseries"]["days"][0][0]["region"] == "all"
    assert snapshot["events"][-1]["kind"] == "fault_injected"
    assert snapshot["slo"]["policy"]["name"] == "cloudfog-default"


def test_healthz_and_unknown_routes(server):
    status, _, body = _get(server.url + "/healthz")
    assert (status, body) == (200, "ok\n")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(server.url + "/no-such-route")
    assert excinfo.value.code == 404


def test_build_snapshot_disabled_omits_slo():
    snapshot = build_snapshot()
    assert snapshot["enabled"] is False
    assert "slo" not in snapshot
    assert snapshot["events"] == []


def test_server_context_manager_closes_socket():
    with start_server(port=0) as srv:
        url = srv.url
        status, _, _ = _get(url + "/healthz")
        assert status == 200
    with pytest.raises(urllib.error.URLError):
        _get(url + "/healthz")
