"""Observability: structured tracing, metrics, and exporters.

The pipeline's instrumentation substrate (see ``docs/OBSERVABILITY.md``):

* :class:`Tracer` / :class:`Span` — hierarchical wall-clock spans with a
  context-manager and decorator API (:mod:`repro.obs.tracer`);
* :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms
  (:mod:`repro.obs.metrics`);
* exporters — JSONL, Prometheus text, and the human span-tree report
  (:mod:`repro.obs.export`).

Both the tracer and the registry have process-global defaults that start
*disabled*, so the instrumented library layers cost nothing until a CLI
flag, a test, or an embedder turns observability on — most conveniently
with :func:`capture`::

    with capture() as (tracer, registry):
        run = make_run(workload, ArtifactCache(cache_dir))
        run.aggregate_classification(0.97, 0.95)
    print(render_trace_report(tracer, registry))
"""

from contextlib import contextmanager

from .export import (
    PROMETHEUS_CONTENT_TYPE,
    JsonlStreamWriter,
    metrics_to_prometheus,
    render_metrics,
    render_span_tree,
    render_trace_report,
    stream_trace_jsonl,
    trace_to_jsonl,
    write_trace_jsonl,
)
from .memsample import (
    disable_memory_sampling,
    enable_memory_sampling,
    memory_sampling,
    memory_sampling_enabled,
)
from .metrics import (
    MetricsRegistry,
    diff_snapshots,
    get_metrics,
    scoped_metrics,
    set_metrics,
)
from .tracer import Span, Tracer, get_tracer, scoped_tracer, set_tracer, traced


def observability_enabled() -> bool:
    """True if either the global tracer or the global registry is on."""
    return get_tracer().enabled or get_metrics().enabled


@contextmanager
def capture(enabled: bool = True):
    """Install a fresh enabled tracer + registry as the process globals,
    yield them, and restore the previous globals on exit."""
    tracer = Tracer(enabled=enabled)
    registry = MetricsRegistry(enabled=enabled)
    prev_tracer = set_tracer(tracer)
    prev_registry = set_metrics(registry)
    try:
        yield tracer, registry
    finally:
        set_tracer(prev_tracer)
        set_metrics(prev_registry)


@contextmanager
def request_scope(
    tracer: "Tracer | None" = None,
    registry: "MetricsRegistry | None" = None,
    drain: bool = True,
):
    """Run the block under an isolated, enabled tracer + registry carried by
    contextvars — the per-request capture the analysis service uses.

    Unlike :func:`capture`, nothing process-global is touched while the
    block runs: concurrent threads each see only their own scope through
    :func:`get_tracer`/:func:`get_metrics`, so two interleaved requests
    produce disjoint span trees and independent counters.  On exit (when
    ``drain`` is true) the scope's spans are absorbed into whatever tracer
    is ambient *outside* the scope (usually the process global) if that
    tracer is enabled, and its metrics are merged the same way — which is
    how per-request counts accumulate into the daemon's ``/metrics``
    registry without double counting.
    """
    tracer = tracer if tracer is not None else Tracer()
    registry = registry if registry is not None else MetricsRegistry()
    try:
        with scoped_tracer(tracer), scoped_metrics(registry):
            yield tracer, registry
    finally:
        # Drain even when the request failed: errors are exactly the
        # requests whose metrics an operator wants to see.
        if drain:
            outer_tracer = get_tracer()
            if outer_tracer.enabled and outer_tracer is not tracer:
                outer_tracer.absorb_records(tracer.drain_records())
            outer_registry = get_metrics()
            if outer_registry.enabled and outer_registry is not registry:
                outer_registry.merge_snapshot(registry.snapshot())


__all__ = [
    "JsonlStreamWriter",
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "Span",
    "Tracer",
    "capture",
    "diff_snapshots",
    "disable_memory_sampling",
    "enable_memory_sampling",
    "get_metrics",
    "get_tracer",
    "memory_sampling",
    "memory_sampling_enabled",
    "metrics_to_prometheus",
    "request_scope",
    "scoped_metrics",
    "scoped_tracer",
    "stream_trace_jsonl",
    "observability_enabled",
    "render_metrics",
    "render_span_tree",
    "render_trace_report",
    "set_metrics",
    "set_tracer",
    "trace_to_jsonl",
    "traced",
    "write_trace_jsonl",
]
