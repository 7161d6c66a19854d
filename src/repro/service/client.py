"""Blocking HTTP client for the BIST service (urllib, no dependencies).

:class:`ServiceClient` has one method for each route but the server's
``GET /health`` liveness probe, plus :meth:`ServiceClient.wait`, and is what
the ``repro.service submit/status/result`` CLI verbs use.  Every transport
failure, including a connection reset or a truncated or non-JSON response,
surfaces as :class:`~repro.errors.ServiceError`; HTTP error payloads
(the server always answers JSON) are unwrapped into the same exception with
the server's message, so callers never parse status codes.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request

from ..errors import JobNotFoundError, ServiceError
from .spec import CampaignSpec

__all__ = ["ServiceClient"]


class ServiceClient:
    """Talks to one BIST service endpoint.

    Parameters
    ----------
    base_url:
        Endpoint root, e.g. ``http://127.0.0.1:8321`` (trailing slash ok).
    timeout_seconds:
        Per-request socket timeout.
    """

    def __init__(self, base_url: str, timeout_seconds: float = 10.0) -> None:
        self._base_url = base_url.rstrip("/")
        self._timeout = float(timeout_seconds)

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self._base_url + path,
            data=body,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self._timeout) as response:
                raw = response.read()
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8")).get("error", str(exc))
            except Exception:  # noqa: BLE001 - error body may not be JSON
                message = str(exc)
            if exc.code == 404:
                raise JobNotFoundError(message) from exc
            raise ServiceError(f"HTTP {exc.code}: {message}") from exc
        except urllib.error.URLError as exc:
            raise ServiceError(f"cannot reach {self._base_url}: {exc.reason}") from exc
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceError(f"{method} {path}: {type(exc).__name__}: {exc}") from exc
        try:
            return json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ServiceError(f"{method} {path}: response is not JSON: {exc}") from exc

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    def submit(self, spec: CampaignSpec) -> str:
        """``POST /jobs``; returns the assigned job id."""
        return self._request("POST", "/jobs", spec.to_dict())["job_id"]

    def status(self, job_id: str) -> dict:
        """``GET /jobs/<id>``."""
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """``GET /jobs/<id>/result`` (raises while the job is unfinished)."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def jobs(self) -> list:
        """``GET /jobs``."""
        return self._request("GET", "/jobs")["jobs"]

    def stats(self) -> dict:
        """``GET /stats``."""
        return self._request("GET", "/stats")

    def drain(self) -> dict:
        """``POST /drain``."""
        return self._request("POST", "/drain")

    def wait(self, job_id: str, timeout_seconds: float = 300.0, poll_seconds: float = 0.25) -> dict:
        """Poll until the job reaches a terminal state; returns final status."""
        deadline = time.monotonic() + float(timeout_seconds)
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "partial", "failed"):
                return status
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status['state']} after {timeout_seconds} s"
                )
            time.sleep(poll_seconds)
