"""Service throughput and warm-cache latency — the daemon's perf story.

The point of ``repro serve`` is amortization: after the first request has
populated the shared :class:`ArtifactCache`, subsequent identical requests
should cost orders of magnitude less than the cold analysis, and N
concurrent clients should share one warm process instead of N cold CLI
start-ups.  This bench measures both over a live daemon (real HTTP on a
loopback socket, real worker pool):

* ``warm_speedup`` — cold-request latency over best warm-request latency
  for the same configuration (gated: the cache must buy at least 3x);
* ``concurrent_throughput`` — requests/second with 4 clients hammering a
  warm daemon, and its ratio to serial warm throughput (reported; the gate
  only requires concurrency not to *lose* against serial);
* ``checked_over_unchecked`` — best warm request with the checkers on (the
  daemon's default) over best warm request with them off.  A warm checked
  request replays the verdicts of the artifacts it is served, so it must
  cost at most 2x an unchecked one.

Writes ``BENCH_serve.json`` for the mechanical diff in ``bench_diff.py``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.evaluation import format_table
from repro.service import AnalysisRequest, AnalysisService, ServiceClient, make_server

from conftest import once

TARGET = "gen-medium"
CLIENTS = 4
WARM_REQUESTS = 12
MIN_WARM_SPEEDUP = 3.0
#: Concurrent clients must at least match one serial client's throughput
#: (they share the worker pool; the gate catches an accidental global lock).
MIN_CONCURRENCY_RATIO = 0.9
#: A warm checked request may cost at most this many unchecked ones.
MAX_CHECKED_OVER_UNCHECKED = 2.0


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def compute_bench_serve(tmp_dir: str) -> dict:
    service = AnalysisService(jobs=CLIENTS, cache_dir=tmp_dir)
    server = make_server("127.0.0.1", 0, service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        client.wait_ready(timeout=10)
        request = AnalysisRequest(target=TARGET, check=False)

        cold_seconds, _ = _timed(lambda: client.analyze(request))

        warm_times = []
        for _ in range(WARM_REQUESTS):
            seconds, _ = _timed(lambda: client.analyze(request, timeout=120))
            warm_times.append(seconds)
        warm_best = min(warm_times)

        # The first checked request checks the warm artifacts; later ones
        # replay those verdicts.
        checked = AnalysisRequest(target=TARGET, check=True)
        client.analyze(checked, timeout=120)
        checked_best = min(
            _timed(lambda: client.analyze(checked, timeout=120))[0]
            for _ in range(WARM_REQUESTS)
        )

        serial_seconds = sum(warm_times)
        serial_throughput = WARM_REQUESTS / serial_seconds

        def one_client(n: int) -> int:
            c = ServiceClient(f"http://{host}:{port}")
            for _ in range(WARM_REQUESTS // CLIENTS):
                c.analyze(request, timeout=120)
            return n

        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            concurrent_seconds, _ = _timed(
                lambda: list(pool.map(one_client, range(CLIENTS)))
            )
        concurrent_requests = CLIENTS * (WARM_REQUESTS // CLIENTS)
        concurrent_throughput = concurrent_requests / concurrent_seconds

        snap = service.cache.stats_snapshot()
        return {
            "target": TARGET,
            "clients": CLIENTS,
            "cold_ms": cold_seconds * 1000,
            "warm_best_ms": warm_best * 1000,
            "warm_mean_ms": serial_seconds / WARM_REQUESTS * 1000,
            "warm_speedup": cold_seconds / warm_best,
            "warm_checked_best_ms": checked_best * 1000,
            "checked_over_unchecked": checked_best / warm_best,
            "serial_throughput_rps": serial_throughput,
            "concurrent_throughput_rps": concurrent_throughput,
            "concurrency_ratio": concurrent_throughput / serial_throughput,
            "cache_computations": sum(snap.misses.values()),
            "cache_hits": snap.total_hits,
        }
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()
        thread.join(timeout=10)


def test_bench_serve(benchmark, record, record_json, tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("bench-serve-cache"))
    data = once(benchmark, compute_bench_serve, cache_dir)
    record(
        "BENCH_serve",
        format_table(
            ["metric", "value"],
            [
                ["target", data["target"]],
                ["cold request (ms)", f"{data['cold_ms']:.1f}"],
                ["warm best (ms)", f"{data['warm_best_ms']:.1f}"],
                ["warm mean (ms)", f"{data['warm_mean_ms']:.1f}"],
                ["warm speedup", f"{data['warm_speedup']:.1f}x"],
                ["warm checked best (ms)", f"{data['warm_checked_best_ms']:.1f}"],
                ["checked / unchecked", f"{data['checked_over_unchecked']:.2f}x"],
                ["serial warm rps", f"{data['serial_throughput_rps']:.1f}"],
                [
                    f"{CLIENTS}-client rps",
                    f"{data['concurrent_throughput_rps']:.1f}",
                ],
                ["concurrency ratio", f"{data['concurrency_ratio']:.2f}"],
                ["pipeline computations", data["cache_computations"]],
                ["cache hits", data["cache_hits"]],
            ],
            title=f"repro serve latency/throughput ({TARGET})",
        ),
    )
    record_json("BENCH_serve", data)
    assert data["warm_speedup"] >= MIN_WARM_SPEEDUP, (
        f"warm requests only {data['warm_speedup']:.1f}x faster than cold "
        f"(need >= {MIN_WARM_SPEEDUP}x): the shared cache is not being hit"
    )
    assert data["checked_over_unchecked"] <= MAX_CHECKED_OVER_UNCHECKED, (
        f"warm checked requests cost {data['checked_over_unchecked']:.2f}x "
        f"unchecked ones (need <= {MAX_CHECKED_OVER_UNCHECKED}x): checker "
        f"verdicts are not being replayed"
    )
    assert data["concurrency_ratio"] >= MIN_CONCURRENCY_RATIO, (
        f"{CLIENTS} concurrent clients reach only "
        f"{data['concurrency_ratio']:.2f}x of serial throughput — "
        f"the daemon is serializing requests somewhere"
    )
