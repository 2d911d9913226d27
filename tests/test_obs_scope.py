"""Request-scoped observability: contextvar isolation and drain semantics.

Two properties carry the daemon's observability story:

* **isolation** — two interleaved request scopes (threads) see only their
  own tracer/registry through :func:`get_tracer`/:func:`get_metrics`, so
  their span trees are disjoint and their counters independent;
* **conservation** — on scope exit the captured spans/metrics drain into
  the ambient (usually global) sinks, so per-request counts sum exactly to
  the process totals ``/metrics`` reports.
"""

from __future__ import annotations

import threading

from repro.dataflow import engine_scope, get_default_engine
from repro.obs import (
    MetricsRegistry,
    Tracer,
    capture,
    get_metrics,
    get_tracer,
    request_scope,
)


def test_scope_overrides_ambient_and_restores():
    with capture() as (global_tracer, global_registry):
        assert get_tracer() is global_tracer
        with request_scope(drain=False) as (tracer, registry):
            assert get_tracer() is tracer and tracer is not global_tracer
            assert get_metrics() is registry and registry is not global_registry
        assert get_tracer() is global_tracer
        assert get_metrics() is global_registry


def test_interleaved_scopes_have_disjoint_span_trees():
    """Two threads trace concurrently; neither sees the other's spans, and
    each scope's tree is rooted only in its own request."""
    barrier = threading.Barrier(2, timeout=30)
    trees: dict[str, list] = {}

    def request(name: str):
        with request_scope(drain=False) as (tracer, _):
            with get_tracer().span(f"request.{name}") as root:
                barrier.wait()  # both requests are now mid-span
                with get_tracer().span(f"stage.{name}.inner"):
                    barrier.wait()
                root.set(owner=name)
            trees[name] = tracer.spans()

    threads = [
        threading.Thread(target=request, args=(name,)) for name in ("a", "b")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    names_a = {s.name for s in trees["a"]}
    names_b = {s.name for s in trees["b"]}
    assert names_a == {"request.a", "stage.a.inner"}
    assert names_b == {"request.b", "stage.b.inner"}
    assert not (names_a & names_b)


def test_drained_metrics_sum_to_global_snapshot():
    with capture() as (_, global_registry):
        per_request = []

        def request(n: int):
            with request_scope() as (_, registry):  # drain=True default
                get_metrics().counter("work_items").inc(n)
                get_metrics().counter("requests").inc()
            per_request.append(registry.snapshot())

        threads = [
            threading.Thread(target=request, args=(n,)) for n in (3, 5, 7)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)

        total = global_registry.snapshot()["counters"]
        summed: dict = {}
        for snap in per_request:
            for key, value in snap["counters"].items():
                summed[key] = summed.get(key, 0) + value
        assert total == summed
        assert total[("work_items", ())] == 15
        assert total[("requests", ())] == 3


def test_drained_spans_land_in_ambient_tracer():
    with capture() as (global_tracer, _):
        with request_scope() as (scoped, _):
            with get_tracer().span("request.body"):
                pass
        assert "request.body" in {s.name for s in global_tracer.spans()}
        # ... and were *moved*, not copied: the scope gave them up.
        assert not scoped.spans()


def test_drain_happens_on_exception_too():
    with capture() as (_, global_registry):
        try:
            with request_scope():
                get_metrics().counter("failed_requests").inc()
                raise RuntimeError("request blew up")
        except RuntimeError:
            pass
        counters = global_registry.snapshot()["counters"]
        assert counters[("failed_requests", ())] == 1


def test_drain_false_leaves_ambient_untouched():
    with capture() as (global_tracer, global_registry):
        with request_scope(drain=False):
            with get_tracer().span("private"):
                get_metrics().counter("private_count").inc()
        assert not global_tracer.spans()
        assert global_registry.snapshot()["counters"] == {}


def test_explicit_sinks_can_drain_anywhere():
    """The daemon pattern: drain into a service-owned registry while the
    process global stays disabled."""
    service_registry = MetricsRegistry(enabled=True)
    scoped_registry = MetricsRegistry()
    with request_scope(Tracer(), scoped_registry, drain=False):
        get_metrics().counter("cache_hits", kind="module").inc(2)
    service_registry.merge_snapshot(scoped_registry.snapshot())
    service_registry.merge_snapshot(scoped_registry.snapshot())  # 2nd request
    counters = service_registry.snapshot()["counters"]
    assert counters[("cache_hits", (("kind", "module"),))] == 4
    assert get_metrics().enabled is False  # ambient never turned on


def test_workload_pipeline_lands_in_request_scope():
    """Real pipeline stages (not synthetic spans) respect the scope: a run
    executed inside a request records its stage spans and pipeline counters
    there, and they drain upward intact."""
    from repro.pipeline import ArtifactCache, make_run
    from repro.workloads.matrix import resolve_target

    with capture() as (global_tracer, global_registry):
        with request_scope() as (tracer, registry):
            run = make_run(resolve_target("gen-small"), ArtifactCache())
            run.aggregate_classification(0.97, 0.95)
            scoped_names = {s.name for s in tracer.spans()}
            scoped_counters = dict(registry.snapshot()["counters"])
        assert {"workload.compile", "workload.train_run", "workload.qualify"} <= scoped_names
        assert any(name == "cache_misses" for (name, _) in scoped_counters)
        # Outside the scope nothing leaked while it was open; after drain the
        # global tracer holds the same span set.
        global_names = {s.name for s in global_tracer.spans()}
        assert scoped_names <= global_names
        merged = global_registry.snapshot()["counters"]
        for key, value in scoped_counters.items():
            assert merged[key] == value


def test_engine_scopes_are_thread_local():
    """The engine-default scope rides the same contextvar machinery: one
    thread's override never bleeds into a concurrently running request."""
    barrier = threading.Barrier(2, timeout=30)
    seen: dict[str, str] = {}

    def request(name: str, engine: str):
        with engine_scope(engine):
            barrier.wait()
            seen[name] = get_default_engine()
            barrier.wait()

    threads = [
        threading.Thread(target=request, args=("a", "generic")),
        threading.Thread(target=request, args=("b", "compiled")),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert seen == {"a": "generic", "b": "compiled"}
    assert get_default_engine() == "auto"  # main thread untouched
