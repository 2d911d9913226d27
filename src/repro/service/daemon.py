"""The analysis daemon: job queue, worker pool, and HTTP front end.

:class:`AnalysisService` owns the process-wide shared state — one
:class:`~repro.pipeline.cache.ArtifactCache` every request worker reads and
writes, one always-enabled :class:`~repro.obs.MetricsRegistry` that
``/metrics`` scrapes — and a pool of worker threads draining a FIFO job
queue.  Identical concurrent submissions coalesce onto one job by request
:meth:`~repro.service.api.AnalysisRequest.fingerprint`, so a thundering
herd of the same analysis computes once and every client polls the same
job id.

Each job body runs under :func:`~repro.obs.request_scope`: the pipeline's
spans and counters land in a per-request tracer/registry (contextvar-
carried, so concurrent requests never interleave), which the worker then
merges into the service registry — that is how per-request cache hits and
solver visit counts accumulate into the Prometheus scrape without any
process-global mutation.

The HTTP layer is stdlib-only (:class:`http.server.ThreadingHTTPServer`):

========  =================  ==============================================
method    path               meaning
========  =================  ==============================================
GET       ``/healthz``       liveness + queue/worker/cache summary
GET       ``/metrics``       Prometheus text exposition (format 0.0.4)
POST      ``/v1/analyze``    submit an :class:`AnalysisRequest` → 202 + job
POST      ``/v1/lint``       submit a :class:`LintRequest` → 202 + job
POST      ``/v1/sweep``      submit a :class:`SweepRequest` → 202 + job
POST      ``/v1/diff``       submit a :class:`DiffRequest` → 202 + job
GET       ``/v1/jobs``       summaries of the retained jobs, oldest first
GET       ``/v1/jobs/<id>``  one job, including its result when done
========  =================  ==============================================

Request/response bodies are JSON; errors are ``{"error": ...}`` with 400
(bad request), 404 (unknown job/path, or a job evicted after
:data:`RETAINED_JOBS` newer ones finished), 413 (body over
:data:`MAX_BODY_BYTES`), or 503 (shutting down).
"""

from __future__ import annotations

import json
import queue
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..obs import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    Tracer,
    get_tracer,
    metrics_to_prometheus,
    request_scope,
)
from ..pipeline.cache import ArtifactCache
from .api import (
    AnalysisRequest,
    DiffRequest,
    LintRequest,
    Request,
    SweepRequest,
    execute_diff,
    execute_lint,
    execute_request,
    execute_sweep,
)

#: Request class by kind: ``POST /v1/<kind>`` parses its body with it.
REQUEST_CLASSES = {
    cls.kind: cls
    for cls in (AnalysisRequest, LintRequest, DiffRequest, SweepRequest)
}

#: Job lifecycle states, in order.
QUEUED, RUNNING, DONE, ERROR = "queued", "running", "done", "error"

#: Largest request body the daemon reads.  Inline MiniC programs and their
#: input arrays run to kilobytes; the cap keeps one request from making a
#: handler thread buffer an arbitrary amount of memory.
MAX_BODY_BYTES = 4 << 20

#: Finished jobs the daemon keeps, results included; the oldest finished
#: job is evicted first, and queued or running jobs never are.
RETAINED_JOBS = 1024


class ServiceClosed(RuntimeError):
    """Raised by :meth:`AnalysisService.submit` once shutdown has begun."""


class _UnreadBody(ValueError):
    """A request body refused before it was read, with its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class Job:
    """One submitted request and its (eventual) outcome."""

    def __init__(self, job_id: str, request: Request, fingerprint: str) -> None:
        self.id = job_id
        self.request = request
        #: ``request.fingerprint()``, the coalescing key.
        self.fingerprint = fingerprint
        self.state = QUEUED
        #: How many *additional* identical submissions coalesced onto this
        #: job while it was queued or running.
        self.coalesced = 0
        self.result: Optional[dict] = None
        self.error: Optional[str] = None
        self.duration: Optional[float] = None
        self.finished = threading.Event()

    def payload(self, include_result: bool = True) -> dict:
        out = {
            "id": self.id,
            "kind": self.request.kind,
            "label": self.request.label(),
            "fingerprint": self.fingerprint,
            "state": self.state,
            "coalesced": self.coalesced,
            "error": self.error,
            "duration_s": None if self.duration is None else round(self.duration, 6),
        }
        if include_result:
            out["result"] = self.result
        return out


class AnalysisService:
    """Worker pool + shared cache + scrape registry behind the HTTP layer.

    Usable without HTTP (tests drive :meth:`submit`/:meth:`wait` directly);
    :func:`make_server` wires it to a :class:`ThreadingHTTPServer`.
    """

    def __init__(
        self,
        jobs: int = 2,
        cache_dir: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.cache_dir = cache_dir
        #: One cache shared by every request worker; ``memo`` single-flights
        #: concurrent identical artifacts, the disk layer (when configured)
        #: persists them across restarts and to sweep worker processes.
        self.cache = ArtifactCache(cache_dir)
        #: The scrape source: always enabled, service-owned — never the
        #: process global, so embedding the service in a test leaves ambient
        #: observability untouched.
        self.registry = MetricsRegistry(enabled=True)
        #: Optional span sink (``repro serve --trace``); disabled by default
        #: because span retention is unbounded while counters are not.
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        #: Retained jobs in submission order.
        self._jobs: dict[str, Job] = {}
        #: Ids of the finished jobs in ``_jobs``, oldest first.
        self._finished: deque[str] = deque()
        #: fingerprint → queued-or-running job, the coalescing index.
        self._active: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._next_id = 0
        self._closed = False
        self._started = time.time()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-worker-{i}", daemon=True
            )
            for i in range(jobs)
        ]
        for w in self._workers:
            w.start()

    # -- submission --------------------------------------------------------

    def submit(self, request: Request) -> tuple[Job, bool]:
        """Queue a request; returns ``(job, coalesced)``.

        ``coalesced`` is True when an identical request was already queued
        or running — the caller shares that job instead of a new one.
        """
        # Hashed once and outside the lock, which workers also take to
        # retire their jobs: an inline request's body can be large.
        fingerprint = request.fingerprint()
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is shutting down")
            existing = self._active.get(fingerprint)
            if existing is not None:
                existing.coalesced += 1
                self.registry.counter(
                    "service_coalesced", kind=request.kind
                ).inc()
                return existing, True
            self._next_id += 1
            job = Job(f"job-{self._next_id}", request, fingerprint)
            self._jobs[job.id] = job
            self._active[job.fingerprint] = job
            self.registry.counter("service_requests", kind=request.kind).inc()
        self._queue.put(job)
        return job, False

    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job: Job, timeout: Optional[float] = None) -> Job:
        if not job.finished.wait(timeout):
            raise TimeoutError(f"{job.id} still {job.state} after {timeout}s")
        return job

    # -- introspection -----------------------------------------------------

    def status(self) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            closed = self._closed
        return {
            "status": "shutting-down" if closed else "ok",
            "uptime_s": round(time.time() - self._started, 3),
            "workers": len(self._workers),
            "queue_depth": self._queue.qsize(),
            "jobs": states,
            "cache": self.cache.stats_snapshot().summary(),
            "cache_dir": self.cache_dir,
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition ``/metrics`` serves, with queue/uptime
        gauges refreshed at scrape time."""
        self.registry.gauge("service_queue_depth").set(self._queue.qsize())
        self.registry.gauge("service_uptime_seconds").set(
            round(time.time() - self._started, 3)
        )
        return metrics_to_prometheus(self.registry.snapshot())

    # -- worker pool -------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        job.state = RUNNING
        start = time.perf_counter()
        cpu_start = time.thread_time()
        scope_tracer = Tracer()
        scope_registry = MetricsRegistry()
        try:
            with request_scope(scope_tracer, scope_registry, drain=False):
                with get_tracer().span(
                    "service.request",
                    job=job.id,
                    kind=job.request.kind,
                    label=job.request.label(),
                ):
                    # Each executor is called by its module-level name, so
                    # a wrapper rebound on this module sees every call.
                    if isinstance(job.request, AnalysisRequest):
                        job.result = execute_request(job.request, self.cache)
                    elif isinstance(job.request, LintRequest):
                        job.result = execute_lint(job.request, self.cache)
                    elif isinstance(job.request, DiffRequest):
                        job.result = execute_diff(job.request, self.cache)
                    else:
                        job.result = execute_sweep(job.request, self.cache_dir)
            job.state = DONE
        except Exception as exc:  # a failed job is a response, not a crash
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = ERROR
        finally:
            job.duration = time.perf_counter() - start
            # Drain the request scope into the shared scrape registry (and
            # span sink, when one is attached) — the explicit equivalent of
            # ``request_scope(drain=True)`` with a service-owned target
            # instead of the process globals.
            self.registry.merge_snapshot(scope_registry.snapshot())
            if self.tracer.enabled:
                self.tracer.absorb_records(scope_tracer.drain_records())
            self.registry.counter(
                "service_completed", kind=job.request.kind, state=job.state
            ).inc()
            self.registry.histogram("service_request_latency_ms").observe(
                job.duration * 1000.0
            )
            # The workers share one interpreter lock, so latency includes
            # waiting for it; this thread's CPU time does not.
            self.registry.histogram("service_request_cpu_ms").observe(
                (time.thread_time() - cpu_start) * 1000.0
            )
            self._retire(job)

    def _retire(self, job: Job) -> None:
        """Drop a finished job from the coalescing index, evict the oldest
        finished jobs beyond :data:`RETAINED_JOBS`, and wake its waiters."""
        with self._lock:
            if self._active.get(job.fingerprint) is job:
                del self._active[job.fingerprint]
            self._finished.append(job.id)
            while len(self._finished) > RETAINED_JOBS:
                del self._jobs[self._finished.popleft()]
        job.finished.set()

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, drain: bool = True) -> int:
        """Stop the pool; returns how many queued jobs were abandoned.

        With ``drain`` (the default) every queued job still runs before the
        workers exit — clients already holding a job id get their result.
        Without it, queued jobs are failed immediately with a shutdown
        error; the job *currently running* on each worker always completes
        either way (analysis stages are not interruptible mid-flight).
        """
        with self._lock:
            if self._closed:
                return 0
            self._closed = True
        abandoned = 0
        if not drain:
            while True:
                try:
                    job = self._queue.get_nowait()
                except queue.Empty:
                    break
                if job is None:
                    continue
                job.error = "service shut down before the job ran"
                job.state = ERROR
                self._retire(job)
                abandoned += 1
        for _ in self._workers:
            self._queue.put(None)
        for w in self._workers:
            w.join()
        return abandoned


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------


class ServiceHTTPRequestHandler(BaseHTTPRequestHandler):
    """Routes the endpoint table above onto an :class:`AnalysisService`.

    Bound to its service by :func:`make_server` (class attribute, so the
    stdlib server can instantiate the handler per connection).
    """

    service: AnalysisService
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: Flip on (``repro serve --verbose``) to restore stdlib request logging.
    verbose = False

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.verbose:
            super().log_message(format, *args)

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self._send(code, body, "application/json")

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_json_body(self) -> dict:
        header = self.headers.get("Content-Length") or "0"
        if not (header.isascii() and header.isdigit()):
            raise _UnreadBody(400, f"bad Content-Length {header!r}")
        length = int(header)
        if length > MAX_BODY_BYTES:
            raise _UnreadBody(
                413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body (expected a JSON object)")
        try:
            return json.loads(raw)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nesting deeper than the decoder's stack.
            raise ValueError(f"request body is not valid JSON: {exc}") from None

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, self.service.status())
        elif path == "/metrics":
            self._send(
                200, self.service.metrics_text().encode(), PROMETHEUS_CONTENT_TYPE
            )
        elif path == "/v1/jobs":
            self._send_json(
                200,
                {"jobs": [j.payload(include_result=False) for j in self.service.jobs()]},
            )
        elif path.startswith("/v1/jobs/"):
            job = self.service.job(path[len("/v1/jobs/"):])
            if job is None:
                self._error(404, f"no such job {path[len('/v1/jobs/'):]!r}")
            else:
                self._send_json(200, job.payload())
        else:
            self._error(404, f"no such endpoint {path!r}")

    def do_POST(self) -> None:  # noqa: N802
        path = self.path.split("?", 1)[0].rstrip("/")
        prefix, _, kind = path.rpartition("/")
        cls = REQUEST_CLASSES.get(kind) if prefix == "/v1" else None
        if cls is None:
            self._error(404, f"no such endpoint {path!r}")
            return
        try:
            request = cls.from_dict(self._read_json_body())
        except _UnreadBody as exc:
            # The unread body would be parsed as the next request on this
            # connection, so it cannot be kept alive.
            self.close_connection = True
            self._error(exc.status, str(exc))
            return
        except ValueError as exc:
            self._error(400, str(exc))
            return
        try:
            job, coalesced = self.service.submit(request)
        except ServiceClosed as exc:
            self._error(503, str(exc))
            return
        self._send_json(
            202,
            {
                "job": job.id,
                "state": job.state,
                "coalesced": coalesced,
                "poll": f"/v1/jobs/{job.id}",
            },
        )


def make_server(
    host: str, port: int, service: AnalysisService, verbose: bool = False
) -> ThreadingHTTPServer:
    """A :class:`ThreadingHTTPServer` serving ``service`` on ``host:port``
    (``port=0`` binds an ephemeral port — ``server.server_address`` has the
    real one, which is how tests run daemons concurrently)."""
    handler = type(
        "BoundServiceHandler",
        (ServiceHTTPRequestHandler,),
        {"service": service, "verbose": verbose},
    )
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server
