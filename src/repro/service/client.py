"""Blessed client surface: :func:`submit_plan` / :class:`JobHandle`.

Stdlib-only (``urllib.request``), mirroring the HTTP adapter.  Typed
service failures round-trip: an error response body's ``code`` rebuilds
the same :class:`~repro.resilience.errors.ServiceError` subclass the
server raised (:func:`~repro.service.errors.error_for_code`), so client
code handles ``JobNotFoundError`` / ``DeadlineExceededError`` / … the
same way in-process callers do.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterable, List, Optional, Union

from ..harness._runner import RunResult
from ..harness.executor import ExperimentPlan, ExperimentRequest
from ..resilience.errors import ServiceError
from .errors import error_for_code
from .jobs import JobState

__all__ = ["JobHandle", "ServiceClient", "submit_plan"]


class ServiceClient:
    """Minimal JSON-over-HTTP client for one service instance."""

    def __init__(
        self,
        base_url: str = "http://127.0.0.1:8642",
        *,
        tenant: str = "default",
        timeout: float = 30.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout

    # -- transport ------------------------------------------------------

    def call(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        data = None
        headers = {"X-Repro-Tenant": self.tenant}
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                payload = json.loads(resp.read().decode())
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read().decode())
            except ValueError:
                payload = {"error": {"code": "service_error",
                                     "message": str(exc)}}
            error = payload.get("error", {})
            raise error_for_code(
                error.get("code", "service_error"),
                error.get("message", str(exc)),
            ) from exc
        return payload

    # -- API ------------------------------------------------------------

    def submit(
        self,
        request: ExperimentRequest,
        *,
        deadline_s: Optional[float] = None,
    ) -> "JobHandle":
        payload = self.call("POST", "/v1/jobs", {
            "tenant": self.tenant,
            "request": request.to_dict(),
            "deadline_s": deadline_s,
        })
        return JobHandle(self, payload["job_id"])

    def submit_plan(
        self,
        requests: Iterable[ExperimentRequest],
        *,
        deadline_s: Optional[float] = None,
    ) -> List["JobHandle"]:
        payload = self.call("POST", "/v1/plans", {
            "tenant": self.tenant,
            "requests": [r.to_dict() for r in requests],
            "deadline_s": deadline_s,
        })
        return [JobHandle(self, job_id) for job_id in payload["job_ids"]]

    def health(self) -> Dict[str, Any]:
        return self.call("GET", "/v1/health")

    def ready(self) -> Dict[str, Any]:
        try:
            return self.call("GET", "/v1/ready")
        except ServiceError as exc:
            return {"ready": False, "error": str(exc)}

    def stats(self) -> Dict[str, Any]:
        return self.call("GET", "/v1/stats")

    def drain(self) -> Dict[str, Any]:
        return self.call("POST", "/v1/drain")


class JobHandle:
    """One submitted job: poll, wait, fetch, cancel."""

    def __init__(self, client: ServiceClient, job_id: str) -> None:
        self.client = client
        self.job_id = job_id

    def __repr__(self) -> str:
        return f"JobHandle({self.job_id!r})"

    def poll(self) -> Dict[str, Any]:
        """The job's current journaled record (plus its event stream)."""
        return self.client.call("GET", f"/v1/jobs/{self.job_id}")

    def state(self) -> JobState:
        return JobState(self.poll()["state"])

    def cancel(self) -> Dict[str, Any]:
        return self.client.call("DELETE", f"/v1/jobs/{self.job_id}")

    def wait(
        self,
        timeout: float = 300.0,
        *,
        poll_interval: float = 0.25,
    ) -> JobState:
        """Poll until the job is terminal (or *timeout* elapses)."""
        deadline = time.monotonic() + timeout
        while True:
            state = self.state()
            if state in (JobState.DONE, JobState.FAILED,
                         JobState.CANCELLED):
                return state
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {self.job_id} still {state.value} after "
                    f"{timeout}s"
                )
            time.sleep(poll_interval)

    def result(
        self, *, wait: bool = True, timeout: float = 300.0
    ) -> RunResult:
        """The finished job's :class:`RunResult`.

        With ``wait=True`` (default) blocks until terminal first.  A job
        that ended ``failed``/``cancelled`` raises the typed error its
        journaled ``error_code`` names.
        """
        if wait:
            state = self.wait(timeout)
            if state is not JobState.DONE:
                record = self.poll()
                raise error_for_code(
                    record.get("error_code") or "service_error",
                    record.get("error")
                    or f"job {self.job_id} ended {state.value}",
                )
        payload = self.client.call(
            "GET", f"/v1/jobs/{self.job_id}/result"
        )
        return RunResult.from_dict(payload["result"])


def submit_plan(
    plan: Union[ExperimentPlan, Iterable[ExperimentRequest]],
    *,
    url: str = "http://127.0.0.1:8642",
    tenant: str = "default",
    deadline_s: Optional[float] = None,
    client: Optional[ServiceClient] = None,
) -> List[JobHandle]:
    """Submit every request of *plan* to a running service.

    *plan* is an :class:`~repro.harness.executor.ExperimentPlan` or any
    iterable of requests.  Returns one :class:`JobHandle` per request,
    in plan order; ``[h.result() for h in handles]`` then mirrors
    ``plan.execute()`` against the remote service.
    """
    if client is None:
        client = ServiceClient(url, tenant=tenant)
    requests = (
        plan.requests if isinstance(plan, ExperimentPlan) else list(plan)
    )
    return client.submit_plan(requests, deadline_s=deadline_s)
