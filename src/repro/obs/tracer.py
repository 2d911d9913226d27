"""Hierarchical span tracing for the analysis pipeline.

A :class:`Span` is one timed region of work — a pipeline stage, a profiling
run, a solver invocation — with a name, a parent, wall-clock timing, and
free-form attributes.  A :class:`Tracer` collects finished spans; the
instrumented library code obtains the process-global tracer through
:func:`get_tracer` and opens spans with the context-manager or decorator
API::

    with get_tracer().span("workload.compile", workload=name):
        ...                         # timed; nests under the enclosing span

    @traced("pipeline.classify")
    def classify(...): ...

Zero cost when off
------------------
The process-global tracer starts *disabled*.  A disabled tracer returns a
shared no-op span from :meth:`Tracer.span`, so instrumentation at stage
granularity costs one method call and one attribute check per stage — the
hot interpreter and solver loops are never instrumented per iteration, only
summarized per run (see ``docs/OBSERVABILITY.md``).

Thread and process safety
-------------------------
The active-span stack is thread-local (concurrent threads nest their spans
independently) and the finished-span list is guarded by a lock.  Spans
travel across process boundaries as plain dicts (:meth:`Span.to_record`);
:meth:`Tracer.absorb_records` folds a worker's spans back into the parent
trace (and its streaming listeners), re-parenting the worker's roots under
a chosen span so the merged tree stays connected.  Span ids are
``<pid hex>-<n hex>`` with ``n`` drawn from one counter per process, shared
by every tracer in it, so ids never collide when spans merge — neither the
per-request scope tracers a daemon folds into its own, nor the records of
worker processes.  ``start`` values are per-process monotonic clocks — only
durations, never absolute starts, are comparable across processes.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Optional

from . import memsample as _memsample

#: The span-id sequence of this process, shared by all its tracers.  A
#: forked child continues it under its own pid.
_SPAN_IDS = itertools.count(1)


class Span:
    """One timed, attributed region of work.  Also its own context manager:
    entering pushes it on the tracer's thread-local stack, exiting records
    the end time and files it as finished."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attrs",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        tracer: Optional["Tracer"] = None,
        attrs: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.attrs: dict[str, Any] = attrs if attrs is not None else {}
        self._tracer = tracer

    @property
    def duration(self) -> float:
        """Seconds from start to end (to "now" while still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (merged over any given at creation)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if self._tracer is not None:
            self._tracer._finish(self)
        else:
            self.end = time.perf_counter()
        return False

    def to_record(self) -> dict:
        """Picklable/JSON-able form (the JSONL exporter's span schema)."""
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_record(cls, record: dict) -> "Span":
        span = cls(
            record["name"],
            record["span_id"],
            record.get("parent_id"),
            tracer=None,
            attrs=dict(record.get("attrs", {})),
        )
        span.start = float(record.get("start", 0.0))
        span.end = span.start + float(record.get("duration", 0.0))
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration * 1000:.2f}ms" if self.finished else "open"
        return f"Span({self.name!r}, {state}, id={self.span_id})"


class _NullSpan:
    """The shared no-op span a disabled tracer hands out."""

    __slots__ = ()
    name = None
    span_id = None
    parent_id = None
    attrs: dict[str, Any] = {}
    duration = 0.0
    finished = True

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects hierarchical spans; safe to share across threads.

    ``enabled=False`` builds a tracer whose :meth:`span`/:meth:`event` are
    no-ops — the state the process-global default starts in.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._local = threading.local()
        self._listeners: list[Callable[[Span], None]] = []

    # -- streaming listeners ----------------------------------------------

    def add_listener(self, fn: Callable[[Span], None]) -> None:
        """Call ``fn(span)`` whenever a span finishes (spans and events
        alike) — the hook streaming exporters attach to."""
        self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[Span], None]) -> None:
        if fn in self._listeners:
            self._listeners.remove(fn)

    def _notify(self, span: Span) -> None:
        for fn in self._listeners:
            fn(span)

    # -- span creation -----------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """A new span, parented under the thread's innermost open span.

        Returned unstarted as a context manager; timing runs from creation,
        the stack push happens on ``__enter__``.
        """
        if not self.enabled:
            return NULL_SPAN
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        return Span(name, self._next_id(), parent, tracer=self, attrs=attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """A zero-duration span: a point-in-time occurrence (e.g. a cache
        corruption) that should show up in the trace."""
        if not self.enabled:
            return
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        span = Span(name, self._next_id(), parent, tracer=None, attrs=attrs)
        span.end = span.start
        with self._lock:
            self._finished.append(span)
        if self._listeners:
            self._notify(span)

    def wrap(self, name: Optional[str] = None, **attrs: Any) -> Callable:
        """Decorator form: time every call to the wrapped function."""

        def decorate(fn: Callable) -> Callable:
            label = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(label, **attrs):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    def current(self) -> Optional[Span]:
        """The thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- finished-span access ---------------------------------------------

    def spans(self) -> tuple[Span, ...]:
        """Snapshot of the finished spans, in finish order."""
        with self._lock:
            return tuple(self._finished)

    def drain_records(self) -> list[dict]:
        """Remove and return all finished spans as plain records — the
        unit a worker process ships back to the parent."""
        with self._lock:
            records = [span.to_record() for span in self._finished]
            self._finished.clear()
        return records

    def absorb_records(
        self, records: Iterable[dict], parent_id: Optional[str] = None
    ) -> None:
        """Merge spans recorded elsewhere (another process or tracer).

        Roots among ``records`` (spans without a parent) are re-parented
        under ``parent_id`` so the merged trace renders as one tree.  The
        listeners see each absorbed span, as if it had finished here.
        """
        spans = [Span.from_record(r) for r in records]
        if parent_id is not None:
            for span in spans:
                if span.parent_id is None:
                    span.parent_id = parent_id
        with self._lock:
            self._finished.extend(spans)
        if self._listeners:
            for span in spans:
                self._notify(span)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()

    # -- internals ---------------------------------------------------------

    def _next_id(self) -> str:
        return f"{os.getpid():x}-{next(_SPAN_IDS):x}"

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, span: Span) -> None:
        self._stack().append(span)
        if _memsample._enabled:
            _memsample.on_span_enter(span)

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # unbalanced exit; recover rather than corrupt
            stack.remove(span)
        if _memsample._enabled:
            _memsample.on_span_exit(span)
        with self._lock:
            self._finished.append(span)
        if self._listeners:
            self._notify(span)


# -- the process-global default and the request-scoped override -------------

_GLOBAL_TRACER = Tracer(enabled=False)

#: Context-carried tracer override.  A service handling many concurrent
#: requests gives each request its own tracer via :func:`scoped_tracer`
#: without touching the process global; ``contextvars`` keeps the override
#: local to the thread (or task) serving that request.
_SCOPED_TRACER: contextvars.ContextVar[Optional[Tracer]] = contextvars.ContextVar(
    "repro_scoped_tracer", default=None
)


def get_tracer() -> Tracer:
    """The ambient tracer: the context-scoped one when inside a
    :func:`scoped_tracer` block, else the process-global default (disabled
    until something installs one)."""
    scoped = _SCOPED_TRACER.get()
    return scoped if scoped is not None else _GLOBAL_TRACER


@contextmanager
def scoped_tracer(tracer: Tracer):
    """Make ``tracer`` the ambient tracer for the current context.

    Unlike :func:`set_tracer`, the override is carried by a contextvar —
    concurrent threads each see their own scoped tracer, so instrumented
    library code calling :func:`get_tracer` records into the scope that is
    actually running it.  Scopes nest; the previous scope is restored on
    exit."""
    token = _SCOPED_TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _SCOPED_TRACER.reset(token)


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-global default; returns the old."""
    global _GLOBAL_TRACER
    previous = _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer
    return previous


def traced(name: Optional[str] = None, **attrs: Any) -> Callable:
    """Decorator that spans each call on whatever the *current* global
    tracer is at call time (so decorating at import time still honors a
    tracer installed later)."""

    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with get_tracer().span(label, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
