"""Counters, gauges and fixed-bucket histograms for the analysis pipeline.

A :class:`MetricsRegistry` hands out named instruments, optionally labelled
(``registry.counter("cache_hits", kind="module")``); each distinct
(name, labels) pair is one instrument.  The registry is thread-safe, its
:meth:`~MetricsRegistry.snapshot` is a plain picklable value that crosses
process boundaries, and :meth:`~MetricsRegistry.merge_snapshot` folds a
worker's snapshot back into the parent — counters and histograms add,
gauges take the incoming value (last writer wins).

Like the tracer, the process-global registry starts *disabled*: a disabled
registry returns shared null instruments whose ``inc``/``set``/``observe``
are no-ops, so instrumented code never branches on enablement itself.
"""

from __future__ import annotations

import contextvars
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Mapping, Optional, Sequence

#: (name, ((label, value), ...)) — the registry's instrument key.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]

#: Generic latency-ish buckets used when a histogram caller gives none.
DEFAULT_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)


def _key(name: str, labels: Mapping[str, Any]) -> MetricKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """A value that goes up and down (last set wins)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` holds observations with
    ``value <= buckets[i]``; the final slot is the +Inf overflow bucket."""

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count", "_lock")

    def __init__(
        self, name: str, labels: tuple, buckets: Sequence[float]
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram buckets must be sorted: {buckets!r}")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1


class _NullInstrument:
    """Shared no-op instrument handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Thread-safe home of every instrument; mergeable across processes."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[MetricKey, Counter] = {}
        self._gauges: dict[MetricKey, Gauge] = {}
        self._histograms: dict[MetricKey, Histogram] = {}

    # -- instrument accessors ---------------------------------------------

    def counter(self, name: str, **labels: Any):
        if not self.enabled:
            return NULL_INSTRUMENT
        key = _key(name, labels)
        with self._lock:
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter(name, key[1])
        return inst

    def gauge(self, name: str, **labels: Any):
        if not self.enabled:
            return NULL_INSTRUMENT
        key = _key(name, labels)
        with self._lock:
            inst = self._gauges.get(key)
            if inst is None:
                inst = self._gauges[key] = Gauge(name, key[1])
        return inst

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ):
        if not self.enabled:
            return NULL_INSTRUMENT
        key = _key(name, labels)
        with self._lock:
            inst = self._histograms.get(key)
            if inst is None:
                inst = self._histograms[key] = Histogram(name, key[1], buckets)
        return inst

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable plain-data view of every instrument."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in self._counters.items()},
                "gauges": {k: g.value for k, g in self._gauges.items()},
                "histograms": {
                    k: {
                        "buckets": list(h.buckets),
                        "counts": list(h.counts),
                        "sum": h.sum,
                        "count": h.count,
                    }
                    for k, h in self._histograms.items()
                },
            }

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold another registry's snapshot into this one (worker merge)."""
        for (name, labels), value in snapshot.get("counters", {}).items():
            key = (name, labels)
            with self._lock:
                inst = self._counters.get(key)
                if inst is None:
                    inst = self._counters[key] = Counter(name, labels)
            inst.inc(value)
        for (name, labels), value in snapshot.get("gauges", {}).items():
            key = (name, labels)
            with self._lock:
                inst = self._gauges.get(key)
                if inst is None:
                    inst = self._gauges[key] = Gauge(name, labels)
            inst.set(value)
        for (name, labels), data in snapshot.get("histograms", {}).items():
            key = (name, labels)
            with self._lock:
                inst = self._histograms.get(key)
                if inst is None:
                    inst = self._histograms[key] = Histogram(
                        name, labels, data["buckets"]
                    )
            with inst._lock:
                for i, n in enumerate(data["counts"]):
                    inst.counts[i] += n
                inst.sum += data["sum"]
                inst.count += data["count"]

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def diff_snapshots(new: Mapping, old: Mapping) -> dict:
    """Instrument-wise ``new - old`` between two snapshots of one registry.
    Gauges pass through as their latest value (deltas are meaningless for
    them)."""
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    old_counters = old.get("counters", {})
    for key, value in new.get("counters", {}).items():
        d = value - old_counters.get(key, 0)
        if d:
            out["counters"][key] = d
    out["gauges"] = dict(new.get("gauges", {}))
    old_hists = old.get("histograms", {})
    for key, data in new.get("histograms", {}).items():
        prev = old_hists.get(key)
        if prev is None:
            out["histograms"][key] = {
                "buckets": list(data["buckets"]),
                "counts": list(data["counts"]),
                "sum": data["sum"],
                "count": data["count"],
            }
            continue
        counts = [n - p for n, p in zip(data["counts"], prev["counts"])]
        if any(counts):
            out["histograms"][key] = {
                "buckets": list(data["buckets"]),
                "counts": counts,
                "sum": data["sum"] - prev["sum"],
                "count": data["count"] - prev["count"],
            }
    return out


# -- the process-global default and the request-scoped override -------------

_GLOBAL_REGISTRY = MetricsRegistry(enabled=False)

#: Context-carried registry override (the metrics twin of
#: ``tracer._SCOPED_TRACER``): each request of a concurrent service counts
#: into its own registry, which is later merged into the global one.
_SCOPED_REGISTRY: contextvars.ContextVar[Optional[MetricsRegistry]] = (
    contextvars.ContextVar("repro_scoped_metrics", default=None)
)


def get_metrics() -> MetricsRegistry:
    """The ambient registry: the context-scoped one when inside a
    :func:`scoped_metrics` block, else the process-global default (disabled
    until something installs one)."""
    scoped = _SCOPED_REGISTRY.get()
    return scoped if scoped is not None else _GLOBAL_REGISTRY


@contextmanager
def scoped_metrics(registry: MetricsRegistry):
    """Make ``registry`` the ambient registry for the current context.

    The override is carried by a contextvar, so concurrent threads each
    count into their own scoped registry; scopes nest and restore the
    previous scope on exit."""
    token = _SCOPED_REGISTRY.set(registry)
    try:
        yield registry
    finally:
        _SCOPED_REGISTRY.reset(token)


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process-global default; returns the old."""
    global _GLOBAL_REGISTRY
    previous = _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry
    return previous
