"""Stdlib-``urllib`` client for the analysis daemon.

The same code path serves three callers: the ``repro submit`` CLI verb,
the service test suite, and anyone embedding the daemon.  It speaks the
JSON protocol of :mod:`repro.service.daemon` and hides the polling job
model behind :meth:`ServiceClient.analyze`, which submits a request of any
kind and blocks until its job finishes.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Mapping, Optional, Union

from .api import Request


class ServiceError(RuntimeError):
    """A failed service interaction: HTTP error, failed job, or timeout.

    ``status`` carries the HTTP status code when one applies (0 for
    connection-level failures, job failures, and timeouts).
    """

    def __init__(self, message: str, status: int = 0) -> None:
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Talks to one ``repro serve`` daemon at ``base_url``."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport ---------------------------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[Mapping] = None
    ) -> tuple[int, str, Any]:
        """One HTTP exchange; returns ``(status, content_type, parsed_body)``
        (body left as text when the response is not JSON)."""
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                status = resp.status
                content_type = resp.headers.get("Content-Type", "")
                raw = resp.read()
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                detail = json.loads(raw).get("error", raw.decode(errors="replace"))
            except (json.JSONDecodeError, AttributeError):
                detail = raw.decode(errors="replace") or exc.reason
            raise ServiceError(
                f"{method} {path} failed: {exc.code} {detail}", status=exc.code
            ) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach {self.base_url}: {exc.reason}"
            ) from None
        text = raw.decode()
        if content_type.startswith("application/json"):
            return status, content_type, json.loads(text)
        return status, content_type, text

    # -- endpoints ---------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")[2]

    def metrics(self) -> str:
        """The raw Prometheus exposition text."""
        return self._request("GET", "/metrics")[2]

    def metrics_content_type(self) -> str:
        return self._request("GET", "/metrics")[1]

    def jobs(self) -> list[dict]:
        return self._request("GET", "/v1/jobs")[2]["jobs"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")[2]

    def submit(self, request: Union[Request, Mapping[str, Any]]) -> dict:
        """POST a request to ``/v1/<request.kind>`` (a raw mapping goes to
        ``/v1/analyze``); returns the 202 body (``job``, ``state``,
        ``coalesced``, ``poll``)."""
        if isinstance(request, Mapping):
            path, body = "/v1/analyze", dict(request)
        else:
            path, body = f"/v1/{request.kind}", request.to_dict()
        return self._request("POST", path, body)[2]

    # -- convenience -------------------------------------------------------

    def wait(
        self, job_id: str, timeout: float = 300.0, poll: float = 0.05
    ) -> dict:
        """Poll a job until it leaves the queue; returns the final job
        payload, raising :class:`ServiceError` if the job failed."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] == "done":
                return job
            if job["state"] == "error":
                raise ServiceError(f"{job_id} failed: {job['error']}")
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"{job_id} still {job['state']} after {timeout}s"
                )
            time.sleep(poll)

    def analyze(
        self,
        request: Union[Request, Mapping[str, Any]],
        timeout: float = 300.0,
    ) -> dict:
        """Submit-and-wait; returns the job's result payload."""
        return self.wait(self.submit(request)["job"], timeout)["result"]

    def wait_ready(self, timeout: float = 10.0, poll: float = 0.05) -> dict:
        """Retry ``/healthz`` until the daemon accepts connections — the
        race-free way to follow a backgrounded ``repro serve``."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except ServiceError as exc:
                if exc.status:  # daemon answered with an HTTP error: it's up
                    raise
                if time.monotonic() >= deadline:
                    raise ServiceError(
                        f"daemon at {self.base_url} not ready after {timeout}s"
                    ) from None
                time.sleep(poll)
