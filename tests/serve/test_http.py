"""Socket-level tests of the HTTP edge: auth, limits, shedding, drain.

Real sockets on ephemeral ports, virtual time everywhere else: the
rate limiter and service share one ``VirtualClock``, so quota windows
never slide mid-test and latency math is deterministic.
"""

from __future__ import annotations

import http.client
import json
import statistics
import time

import pytest

from repro.serve import (
    DEFAULT_TIERS,
    Authenticator,
    Tier,
    VerificationRequestHandler,
    build_server,
)
from repro.web.resilience.clock import VirtualClock

#: A tier small enough to exhaust in three requests.
TINY_TIER = Tier(
    name="tiny",
    rate_limit=2,
    window_seconds=60.0,
    max_batch=3,
    request_budget=2.0,
    batch_budget=5.0,
)

KEYS = {"test-internal-key": "internal", "test-tiny-key": "tiny"}


def request(
    port,
    method,
    path,
    body=None,
    key="test-internal-key",
    headers=None,
):
    """One HTTP round trip; returns (status, headers dict, json body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        all_headers = dict(headers or {})
        if key is not None:
            all_headers["X-API-Key"] = key
        payload = json.dumps(body) if body is not None else None
        if payload is not None:
            all_headers["Content-Type"] = "application/json"
        conn.request(method, path, body=payload, headers=all_headers)
        response = conn.getresponse()
        raw = response.read()
        parsed = json.loads(raw) if raw and raw.strip().startswith(b"{") else raw
        return response.status, dict(response.getheaders()), parsed
    finally:
        conn.close()


@pytest.fixture()
def server(fitted_verifier, tiny_corpus, tiny_host):
    instance = build_server(
        fitted_verifier,
        sites=tiny_corpus.sites,
        host=tiny_host,
        port=0,
        authenticator=Authenticator(
            keys=KEYS, tiers={**DEFAULT_TIERS, "tiny": TINY_TIER}
        ),
        jobs=4,
        max_queue=4,
        clock=VirtualClock(),
    )
    instance.start_background()
    yield instance
    instance.drain(timeout=10.0)


class TestRouting:
    def test_healthz(self, server):
        status, _, payload = request(server.port, "GET", "/healthz", key=None)
        assert status == 200
        assert payload["status"] == "ok"

    def test_unknown_route_404(self, server):
        status, _, payload = request(server.port, "GET", "/nope")
        assert status == 404
        assert "no such route" in payload["error"]

    def test_wrong_method_405(self, server):
        status, _, _ = request(server.port, "GET", "/v1/verify")
        assert status == 405

    def test_metrics_text_and_json(self, server):
        request(server.port, "GET", "/healthz", key=None)
        status, headers, body = request(server.port, "GET", "/metrics", key=None)
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert b"http_requests_total" in body
        status, _, payload = request(
            server.port, "GET", "/metrics?format=json", key=None
        )
        assert status == 200
        assert "counters" in payload and "latency" in payload


class TestKeepAlive:
    def test_handler_sets_tcp_nodelay(self):
        assert VerificationRequestHandler.disable_nagle_algorithm is True

    def test_sequential_requests_on_one_connection_do_not_stall(
        self, server, tiny_corpus
    ):
        # Headers and body leave in two writes; without TCP_NODELAY the
        # body of every kept-alive response waits ~40 ms for the client's
        # delayed ACK.  The median keeps one scheduler hiccup from failing
        # the test while still catching a stall on every response.
        body = json.dumps({"domain": tiny_corpus.sites[0].domain})
        headers = {"X-API-Key": "test-internal-key", "Content-Type": "application/json"}
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        timings = []
        try:
            conn.request("POST", "/v1/verify", body=body, headers=headers)
            assert conn.getresponse().read()  # warm: connect + first scoring
            for i in range(5):
                started = time.perf_counter()
                if i % 2:
                    conn.request("POST", "/v1/verify", body=body, headers=headers)
                else:
                    conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                timings.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            conn.close()
        median = statistics.median(timings)
        assert median < 0.020, f"median {median * 1e3:.1f} ms over {len(timings)} requests"


class TestAuth:
    def test_unknown_key_401(self, server):
        status, _, payload = request(
            server.port, "POST", "/v1/verify",
            body={"domain": "x.com"}, key="wrong-key",
        )
        assert status == 401
        assert "API key" in payload["error"]

    def test_anonymous_allowed_by_default(self, server, tiny_corpus):
        status, _, payload = request(
            server.port, "POST", "/v1/verify",
            body={"domain": tiny_corpus.sites[0].domain}, key=None,
        )
        assert status == 200
        assert payload["domain"] == tiny_corpus.sites[0].domain


class TestVerifyRoutes:
    def test_verify_roundtrip(self, server, tiny_corpus):
        domain = tiny_corpus.sites[0].domain
        status, headers, payload = request(
            server.port, "POST", "/v1/verify", body={"domain": domain}
        )
        assert status == 200
        assert payload["verdict"] in ("legitimate", "illegitimate")
        assert "X-RateLimit-Limit" in headers
        assert "X-RateLimit-Remaining" in headers

    def test_batch_roundtrip_reports_budget(self, server, tiny_corpus):
        domains = [s.domain for s in tiny_corpus.sites[:4]]
        status, _, payload = request(
            server.port, "POST", "/v1/verify/batch", body={"domains": domains}
        )
        assert status == 200
        assert [r["domain"] for r in payload["results"]] == domains
        assert payload["budget_seconds"] == pytest.approx(
            DEFAULT_TIERS["internal"].batch_budget
        )

    def test_budget_header_caps_but_never_raises_budget(self, server, tiny_corpus):
        domain = tiny_corpus.sites[0].domain
        status, _, payload = request(
            server.port, "POST", "/v1/verify/batch",
            body={"domains": [domain]},
            headers={"X-Request-Budget": "0.5"},
        )
        assert status == 200
        assert payload["budget_seconds"] == pytest.approx(0.5)
        status, _, payload = request(
            server.port, "POST", "/v1/verify/batch",
            body={"domains": [domain]},
            headers={"X-Request-Budget": "9999"},
        )
        assert payload["budget_seconds"] == pytest.approx(
            DEFAULT_TIERS["internal"].batch_budget
        )

    def test_invalid_json_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request(
                "POST", "/v1/verify", body="{not json",
                headers={"X-API-Key": "test-internal-key"},
            )
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_bad_domain_400(self, server):
        status, _, payload = request(
            server.port, "POST", "/v1/verify", body={"domain": "not a domain!"}
        )
        assert status == 400
        assert "registrable domain" in payload["error"]

    def test_batch_over_tier_limit_400(self, server):
        status, _, payload = request(
            server.port, "POST", "/v1/verify/batch",
            body={"domains": ["a.com", "b.com", "c.com", "d.com"]},
            key="test-tiny-key",
        )
        assert status == 400
        assert "max of 3" in payload["error"]

    def test_batch_domains_must_be_list(self, server):
        status, _, _ = request(
            server.port, "POST", "/v1/verify/batch", body={"domains": "a.com"}
        )
        assert status == 400

    def test_unknown_domain_degrades_not_500(self, server):
        status, _, payload = request(
            server.port, "POST", "/v1/verify",
            body={"domain": "unknown-pharmacy.example.com"},
        )
        assert status == 200
        assert payload["degraded"] is True
        assert "seed_unreachable" in payload["degradation_reasons"]


class TestRateLimit:
    def test_429_with_headers_after_quota(self, server, tiny_corpus):
        domain = tiny_corpus.sites[0].domain
        for _ in range(TINY_TIER.rate_limit):
            status, _, _ = request(
                server.port, "POST", "/v1/verify",
                body={"domain": domain}, key="test-tiny-key",
            )
            assert status == 200
        status, headers, payload = request(
            server.port, "POST", "/v1/verify",
            body={"domain": domain}, key="test-tiny-key",
        )
        assert status == 429
        assert headers["X-RateLimit-Remaining"] == "0"
        assert int(headers["Retry-After"]) >= 1
        assert "rate limit" in payload["error"]
        # Health stays reachable for the throttled client.
        assert request(server.port, "GET", "/healthz", key=None)[0] == 200

    def test_429_does_not_consume_other_principals(self, server, tiny_corpus):
        domain = tiny_corpus.sites[0].domain
        for _ in range(TINY_TIER.rate_limit + 1):
            request(
                server.port, "POST", "/v1/verify",
                body={"domain": domain}, key="test-tiny-key",
            )
        status, _, _ = request(
            server.port, "POST", "/v1/verify", body={"domain": domain}
        )
        assert status == 200


class TestOverload:
    def test_saturated_bulkhead_sheds_503(self, server, tiny_corpus):
        # Fill the bulkhead from outside so the next request sheds
        # without racing a real slow backend.
        claimed = 0
        while server.bulkhead.try_acquire():
            claimed += 1
        server.admission_timeout = 0.0
        try:
            status, headers, payload = request(
                server.port, "POST", "/v1/verify",
                body={"domain": tiny_corpus.sites[0].domain},
            )
        finally:
            for _ in range(claimed):
                server.bulkhead.release()
        assert status == 503
        assert headers["Retry-After"] == "1"
        assert "saturated" in payload["error"]
        assert server.metrics.counter_value("http_shed_total") == 1.0

    def test_metrics_count_requests_by_status(self, server, tiny_corpus):
        import time

        request(
            server.port, "POST", "/v1/verify",
            body={"domain": tiny_corpus.sites[0].domain},
        )
        # The count lands just after the response bytes; poll briefly.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if server.metrics.counter_value(
                "http_requests_total", route="/v1/verify", status="200"
            ) >= 1.0:
                break
            time.sleep(0.01)
        assert (
            server.metrics.counter_value(
                "http_requests_total", route="/v1/verify", status="200"
            )
            >= 1.0
        )


class TestDrain:
    def test_draining_rejects_then_drain_completes(
        self, fitted_verifier, tiny_corpus
    ):
        server = build_server(
            fitted_verifier,
            sites=tiny_corpus.sites,
            port=0,
            clock=VirtualClock(),
        )
        server.start_background()
        try:
            server.draining = True
            status, headers, payload = request(
                server.port, "POST", "/v1/verify",
                body={"domain": tiny_corpus.sites[0].domain}, key=None,
            )
            assert status == 503
            assert payload["error"] == "draining"
            assert headers["Retry-After"] == "1"
            # Health reports the drain instead of refusing.
            status, _, health = request(server.port, "GET", "/healthz", key=None)
            assert status == 200
            assert health["status"] == "draining"
        finally:
            assert server.drain(timeout=10.0) is True

    def test_drain_is_idempotent(self, fitted_verifier, tiny_corpus):
        server = build_server(
            fitted_verifier, sites=tiny_corpus.sites, port=0, clock=VirtualClock()
        )
        server.start_background()
        assert server.drain(timeout=10.0) is True
        assert server.drain(timeout=10.0) is True
