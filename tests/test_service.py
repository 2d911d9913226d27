"""The analysis service: HTTP protocol, differential fidelity, coalescing.

The contract under test is the acceptance criterion of the service PR: a
request answered by the daemon is **bit-identical** (modulo wall-clock
timings) to the same configuration run directly through
:func:`repro.service.api.execute_request` — including when four concurrent
clients share one daemon and one artifact cache — and a repeated identical
request is served from that cache, visibly in ``/metrics``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import PROMETHEUS_CONTENT_TYPE
from repro.pipeline import ArtifactCache
from repro.pipeline import cache as cache_mod
from repro.service import (
    AnalysisRequest,
    AnalysisService,
    LintRequest,
    ServiceClient,
    ServiceError,
    SweepRequest,
    comparable_payload,
    execute_lint,
    execute_request,
    make_server,
)
from repro.service import api as api_mod
from repro.service import daemon as daemon_mod

TARGET = "gen-small"


def _request(**overrides) -> AnalysisRequest:
    return AnalysisRequest(**{"target": TARGET, "check": True, **overrides})


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One daemon on an ephemeral port with a disk cache, shared by the
    whole module (its cache state is part of what the tests exercise)."""
    cache_dir = tmp_path_factory.mktemp("service-cache")
    service = AnalysisService(jobs=4, cache_dir=str(cache_dir))
    server = make_server("127.0.0.1", 0, service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    yield service, client
    server.shutdown()
    server.server_close()
    service.shutdown()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def direct_payload():
    """The oracle: the same request executed in-process, uncached."""
    return execute_request(_request())


# -- protocol basics -------------------------------------------------------


def test_healthz(served):
    _, client = served
    health = client.wait_ready(timeout=10)
    assert health["status"] == "ok"
    assert health["workers"] == 4
    assert "cache" in health


def test_unknown_endpoint_and_job_are_404(served):
    _, client = served
    with pytest.raises(ServiceError) as exc:
        client._request("GET", "/v1/nope")
    assert exc.value.status == 404
    with pytest.raises(ServiceError) as exc:
        client.job("job-999999")
    assert exc.value.status == 404


def test_bad_requests_are_400(served):
    _, client = served
    for body in (
        {"target": "no-such-target"},
        {"target": TARGET, "bogus": 1},
        {"target": TARGET, "source": "func main() { return 0; }"},
        {"target": TARGET, "engine": "warp-drive"},
        {"target": "gen:nonsense"},
        {},
    ):
        with pytest.raises(ServiceError) as exc:
            client.submit(body)
        assert exc.value.status == 400, body


#: Bodies whose fields have the wrong type or range, per endpoint.
MALFORMED_BODIES = [
    pytest.param(path, body, id=label)
    for label, path, body in (
        ("analyze-ca-object", "/v1/analyze", {"target": "sieve", "ca": {}}),
        ("analyze-cr-null", "/v1/analyze", {"target": "sieve", "cr": None}),
        ("analyze-check-string", "/v1/analyze", {"target": "sieve", "check": "yes"}),
        ("analyze-args-int", "/v1/analyze", {"target": "sieve", "args": 5}),
        ("analyze-inputs-list", "/v1/analyze",
         {"source": "func main() { return 0; }", "inputs": []}),
        ("lint-min-mass-list", "/v1/lint", {"target": "sieve", "min_mass": [1]}),
        ("lint-target-int", "/v1/lint", {"target": 7}),
        ("diff-edit-function-int", "/v1/diff",
         {"target": "sieve", "seed_edit": True, "edit_function": 3}),
        ("sweep-jobs-list", "/v1/sweep", {"jobs": []}),
        ("sweep-workloads-int", "/v1/sweep", {"workloads": 5}),
        ("sweep-ca-values-object", "/v1/sweep", {"ca_values": [{}]}),
        ("sweep-ca-values-range", "/v1/sweep", {"ca_values": [2.0]}),
        ("sweep-cr-range", "/v1/sweep", {"cr": 7}),
        ("analyze-deep-nesting", "/v1/analyze", b"[" * 100_000),
    )
]


def _post_raw(served, path, body, headers=None):
    """POST over a real socket; returns (status, parsed JSON body)."""
    _, client = served
    host, port = client.base_url.split("//", 1)[1].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        conn.putrequest("POST", path)
        for name, value in (headers or {}).items():
            conn.putheader(name, value)
        conn.endheaders(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@pytest.mark.parametrize("path, body", MALFORMED_BODIES)
def test_malformed_fields_are_400(served, path, body):
    raw = body if isinstance(body, bytes) else json.dumps(body).encode()
    status, payload = _post_raw(
        served, path, raw, {"Content-Length": str(len(raw))}
    )
    assert status == 400, payload
    assert isinstance(payload["error"], str)


@pytest.mark.parametrize("length", ["-1", "12abc", "1e3"])
def test_bad_content_length_is_400(served, length):
    status, payload = _post_raw(
        served, "/v1/analyze", None, {"Content-Length": length}
    )
    assert status == 400
    assert "Content-Length" in payload["error"]


def test_oversized_body_is_413_before_reading(served):
    # The header promises more than the cap and no body follows: a server
    # that tried to read it would block until the client timed out.
    length = daemon_mod.MAX_BODY_BYTES + 1
    status, payload = _post_raw(
        served, "/v1/analyze", None, {"Content-Length": str(length)}
    )
    assert status == 413
    assert str(length) in payload["error"]


def test_metrics_scrape_shape(served):
    _, client = served
    client.analyze(_request())  # at least one request behind the counters
    assert client.metrics_content_type() == PROMETHEUS_CONTENT_TYPE
    text = client.metrics()
    assert text.endswith("\n")
    assert "# TYPE repro_service_requests_total counter" in text
    assert "# TYPE repro_service_request_latency_ms histogram" in text
    # Dotted pipeline counter names arrive sanitized, never raw.
    names = {
        line.split("{")[0].split(" ")[0]
        for line in text.splitlines()
        if line and not line.startswith("#")
    }
    assert names and all("." not in name for name in names)


# -- differential fidelity --------------------------------------------------


def test_daemon_matches_direct_execution(served, direct_payload):
    _, client = served
    result = client.analyze(_request())
    assert comparable_payload(result) == comparable_payload(direct_payload)
    # The deterministic half round-trips JSON losslessly (so two clients
    # comparing responses compare the same bytes).
    wire = json.dumps(comparable_payload(result), sort_keys=True)
    assert json.loads(wire) == comparable_payload(result)


def test_concurrent_clients_share_cache_and_agree(served, direct_payload):
    """Four clients hammer the daemon at once; every response equals the
    direct-execution oracle bit for bit."""
    _, client = served
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: client.analyze(_request()), range(4)))
    for result in results:
        assert comparable_payload(result) == comparable_payload(direct_payload)


def test_repeat_request_is_a_cache_hit_in_metrics(served, direct_payload):
    """A repeated identical request recomputes nothing: the cache-hit
    counters in /metrics move, and the answer is unchanged."""
    _, client = served

    def hit_count(text: str) -> int:
        return sum(
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_cache_hits_total{")
        )

    client.analyze(_request())  # ensure at least one completed run
    before = hit_count(client.metrics())
    result = client.analyze(_request())
    after = hit_count(client.metrics())
    assert after > before
    assert comparable_payload(result) == comparable_payload(direct_payload)


def test_inline_source_submission(served):
    _, client = served
    with open("examples/running_example.mc") as f:
        source = f.read()
    request = AnalysisRequest(
        source=source,
        name="running_example.mc",
        args=(2,),
        inputs={
            "sel1": [1] + [0] * 15,
            "sel2": [1] + [0] * 7 + [1] + [0] * 7,
            "cont": [0] * 8 + [1, 0, 0, 0, 0, 0, 0, 0],
        },
        check=True,
    )
    result = client.analyze(request)
    direct = execute_request(request)
    assert comparable_payload(result) == comparable_payload(direct)
    assert not result["diagnostics"]["has_errors"]
    sharp = result["summary"]["sharpening"]
    assert sharp["qualified_nonlocal"] > sharp["iterative_nonlocal"]


def test_sweep_endpoint_matches_driver(served):
    _, client = served
    request = SweepRequest(workloads=("compress95",), ca_values=(0.97,))
    result = client.sweep(request)
    from repro.service import execute_sweep

    direct = execute_sweep(request)
    assert comparable_payload(result) == comparable_payload(direct)
    assert not result["diagnostics"]["has_errors"]


# -- job lifecycle ----------------------------------------------------------


def test_job_listing_and_payload(served):
    _, client = served
    submitted = client.submit(_request())
    job = client.wait(submitted["job"])
    assert job["kind"] == "analyze"
    assert job["label"] == TARGET
    assert job["duration_s"] >= 0
    listing = client.jobs()
    assert any(j["id"] == submitted["job"] for j in listing)
    assert all("result" not in j for j in listing)  # summaries stay small


def test_failed_job_reports_error_state(served):
    """A job that dies mid-analysis becomes an error *response*, with the
    daemon healthy throughout."""
    _, client = served
    submitted = client.submit(
        {"source": "func main() { return undeclared_var; }", "name": "bad.mc"}
    )
    with pytest.raises(ServiceError, match="failed"):
        client.wait(submitted["job"], timeout=60)
    assert client.health()["status"] == "ok"


def test_identical_inflight_submissions_coalesce(monkeypatch):
    """While a request is queued or running, an identical submission shares
    its job id instead of queueing a duplicate computation."""
    gate = threading.Event()
    started = threading.Event()
    real = daemon_mod.execute_request

    def gated(request, cache):
        started.set()
        assert gate.wait(30)
        return real(request, cache)

    monkeypatch.setattr(daemon_mod, "execute_request", gated)
    service = AnalysisService(jobs=1)
    try:
        first, coalesced1 = service.submit(_request(check=False))
        assert not coalesced1
        assert started.wait(30)
        second, coalesced2 = service.submit(_request(check=False))
        assert second is first and coalesced2
        other, coalesced3 = service.submit(_request(check=True))  # different fp
        assert other is not first and not coalesced3
        gate.set()
        service.wait(first, timeout=120)
        service.wait(other, timeout=120)
        assert first.coalesced == 1
        assert first.state == "done" and other.state == "done"
    finally:
        gate.set()
        service.shutdown()


def test_submit_fingerprints_each_request_once(monkeypatch):
    """``submit`` hashes a request once, before it takes the service lock,
    and the new job reuses that fingerprint: one ``content_key`` call per
    submission, coalesced or not."""
    gate = threading.Event()
    calls = []
    real_key = api_mod.content_key

    def counting_key(*parts, **kwargs):
        calls.append(parts[0])
        return real_key(*parts, **kwargs)

    def gated(request, cache):
        assert gate.wait(30)
        return {}

    monkeypatch.setattr(api_mod, "content_key", counting_key)
    monkeypatch.setattr(daemon_mod, "execute_request", gated)
    service = AnalysisService(jobs=1)
    try:
        first, _ = service.submit(_request(check=False))
        second, coalesced = service.submit(_request(check=False))
        assert second is first and coalesced
        other, _ = service.submit(_request(check=True))
        assert other is not first
        assert calls == ["service-analyze"] * 3
        assert first.fingerprint == real_key(
            "service-analyze", _request(check=False).to_dict()
        )
    finally:
        gate.set()
        service.shutdown()


def test_warm_requests_hash_keys_not_data(monkeypatch):
    """On a primed cache, an analyze and a lint of go95 hash only small key
    parts: the train and ref keys take the workload's data digests, which
    are computed once per resolved workload, instead of every input
    integer going through ``_canonical`` on every request."""
    cache = ArtifactCache()
    analyze, lint = AnalysisRequest(target="go95"), LintRequest(target="go95")
    execute_request(analyze, cache)
    execute_lint(lint, cache)
    calls = 0
    real = cache_mod._canonical

    def counting(part):
        nonlocal calls
        calls += 1
        return real(part)

    monkeypatch.setattr(cache_mod, "_canonical", counting)
    before = cache.stats_snapshot()
    execute_request(analyze, cache)
    execute_lint(lint, cache)
    assert cache.stats_snapshot().diff(before).total_misses == 0
    assert 0 < calls < 1000


def test_shutdown_drains_queued_jobs(monkeypatch):
    gate = threading.Event()
    real = daemon_mod.execute_request

    def gated(request, cache):
        assert gate.wait(30)
        return real(request, cache)

    monkeypatch.setattr(daemon_mod, "execute_request", gated)
    service = AnalysisService(jobs=1)
    running, _ = service.submit(_request(check=False))
    queued, _ = service.submit(_request(check=True))
    done = threading.Thread(target=service.shutdown, kwargs={"drain": True})
    done.start()
    gate.set()
    done.join(timeout=120)
    assert not done.is_alive()
    assert running.state == "done" and queued.state == "done"
    with pytest.raises(daemon_mod.ServiceClosed):
        service.submit(_request())


def test_shutdown_without_drain_fails_queued_jobs(monkeypatch):
    gate = threading.Event()
    real = daemon_mod.execute_request

    def gated(request, cache):
        assert gate.wait(30)
        return real(request, cache)

    monkeypatch.setattr(daemon_mod, "execute_request", gated)
    service = AnalysisService(jobs=1)
    running, _ = service.submit(_request(check=False))
    queued, _ = service.submit(_request(check=True))
    # Give the worker a beat to pick up the first job, then abandon the rest.
    deadline = time.monotonic() + 10
    while running.state == "queued" and time.monotonic() < deadline:
        time.sleep(0.01)
    done = threading.Thread(target=service.shutdown, kwargs={"drain": False})
    done.start()
    gate.set()
    done.join(timeout=120)
    assert not done.is_alive()
    assert running.state == "done"  # in-flight work always completes
    assert queued.state == "error" and "shut down" in queued.error


def test_submit_after_shutdown_is_503():
    service = AnalysisService(jobs=1)
    server = make_server("127.0.0.1", 0, service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        client.wait_ready(timeout=10)
        service.shutdown()
        with pytest.raises(ServiceError) as exc:
            client.submit(_request())
        assert exc.value.status == 503
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


# -- CLI ---------------------------------------------------------------------


def test_cmd_submit_against_live_daemon(capsys):
    from repro.cli import main

    service = AnalysisService(jobs=2)
    server = make_server("127.0.0.1", 0, service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        rc = main(["submit", TARGET, "--url", url])
        out = capsys.readouterr()
        assert rc == 0
        assert "qualified non-local" in out.out
        assert "# checks: 0 error(s)" in out.err

        rc = main(["submit", TARGET, "--url", url, "--json", "--no-check"])
        out = capsys.readouterr()
        assert rc == 0
        payload = json.loads(out.out)
        assert payload["workload"] == TARGET
        assert payload["diagnostics"] is None
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()
        thread.join(timeout=10)


def test_cmd_submit_rejects_bad_invocations(tmp_path):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["submit"])  # neither target nor --file
    mc = tmp_path / "p.mc"
    mc.write_text("func main() { return 0; }\n")
    with pytest.raises(SystemExit):
        main(["submit", TARGET, "--file", str(mc)])  # both
    with pytest.raises(SystemExit, match="cannot reach|failed"):
        # Nothing listens on this closed port: a clean client error, not a
        # traceback.
        main(["submit", TARGET, "--url", "http://127.0.0.1:9", "--timeout", "2"])
