"""Resilient simulation-as-a-service layer.

Wraps the executor / result-store / resilience stack in a long-running,
crash-safe job service (``docs/architecture.md`` §15):

* :mod:`~repro.service.journal` — append-only WAL of job state
  transitions; ``kill -9`` + restart recovers every job.
* :mod:`~repro.service.jobs` — :class:`JobState` / :class:`JobRecord`,
  the unit the journal persists (its ``tenant`` is a label only).
* :mod:`~repro.service.runner` — drain-aware, checkpoint-resuming
  request runner plugged into ``Executor(runner=...)``.
* :mod:`~repro.service.scheduler` — asyncio job scheduler with one
  worker: deadlines with cancellation, the only retry policy
  (exponential backoff for transient failures, a per-request breaker),
  in-flight dedupe against the store.
* :mod:`~repro.service.app` — :class:`SimulationService`, the
  transport-agnostic core composing all of the above.
* :mod:`~repro.service.http` — thin stdlib asyncio HTTP adapter
  (``repro serve``).
* :mod:`~repro.service.client` — :func:`submit_plan` /
  :class:`JobHandle`, the blessed client surface.

The seeded chaos battery that exercises all of it lives with the tests
(``tests/service_chaos.py``).

The whole package is digest-exempt (see ``_DIGEST_EXEMPT_PACKAGES``):
it orchestrates *which* simulations run, never what one computes.
"""

from .app import ServiceConfig, SimulationService
from .client import JobHandle, ServiceClient, submit_plan
from .errors import (
    InvalidRequestError,
    JobNotFoundError,
    ResultNotReadyError,
    ServiceUnavailableError,
    http_status_for,
)
from .jobs import JobRecord, JobState
from .journal import JobJournal
from .scheduler import JobScheduler

__all__ = [
    "ServiceConfig",
    "SimulationService",
    "JobHandle",
    "ServiceClient",
    "submit_plan",
    "InvalidRequestError",
    "JobNotFoundError",
    "ResultNotReadyError",
    "ServiceUnavailableError",
    "http_status_for",
    "JobRecord",
    "JobState",
    "JobJournal",
    "JobScheduler",
]
