"""The transport-agnostic service core: composition + lifecycle.

:class:`SimulationService` wires together the store, the executor (with
the drain-aware resumable runner), the WAL journal and the scheduler.
Adapters (HTTP today, anything later) talk only to this class; it owns
startup recovery, health/readiness probes, and the SIGTERM drain
sequence:

1. stop accepting (``readiness`` flips false, submissions get 503);
2. flip the :class:`~repro.resilience.checkpoint.DrainController` — the
   in-flight launch checkpoints at its next idle boundary and stops;
3. journal + close; a restarted service replays the WAL, re-queues
   every non-terminal job, and the resumable runner continues from
   sidecars/checkpoints — only genuinely lost work recomputes.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..harness.executor import Executor, ExperimentRequest, ResultStore
from ..resilience.checkpoint import DrainController
from .journal import JobJournal
from .runner import make_resumable_runner
from .scheduler import JobScheduler

__all__ = ["ServiceConfig", "SimulationService"]


@dataclass
class ServiceConfig:
    """Everything a service instance needs, in one picklable bundle.

    ``root`` holds the journal (``journal/``) and per-request resume
    state (``work/``); the result store lives wherever ``store_root``
    points (default: the shared on-disk store, so the service and the
    CLI deduplicate against each other).
    """

    root: Union[str, Path] = "service-state"
    store_root: Optional[str] = None
    #: scheduler: attempts per job, and the first retry delay in seconds
    #: (doubling per retry, ``service.scheduler.backoff_delay``).  A
    #: request whose attempts fail more than ``max_attempts`` times in a
    #: row, across jobs, is quarantined: later jobs for it fail at once.
    max_attempts: int = 3
    backoff_base: float = 0.5
    #: rolling checkpoint period for long launches (None = only on drain)
    checkpoint_every_cycles: Optional[int] = None


class SimulationService:
    """Crash-safe simulation job service (compose → recover → serve)."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        root = Path(self.config.root)
        self.store = ResultStore(self.config.store_root)
        self.drain_controller = DrainController()
        runner = make_resumable_runner(
            root / "work", self.drain_controller,
            every_cycles=self.config.checkpoint_every_cycles,
        )
        # The scheduler hands run_many one request at a time, so the
        # executor always simulates in-process, never on a pool.
        self.executor = Executor(store=self.store, runner=runner)
        self.journal = JobJournal(root / "journal")
        self.scheduler = JobScheduler(
            self.executor,
            self.journal,
            max_attempts=self.config.max_attempts,
            backoff_base=self.config.backoff_base,
        )
        self.recovery_report: Dict[str, int] = {}
        self._started = False

    # -- lifecycle ------------------------------------------------------

    def start(self) -> Dict[str, int]:
        """Recover the journal and start the worker loop (idempotent)."""
        if self._started:
            return self.recovery_report
        self.recovery_report = self.scheduler.recover()
        self.scheduler.start()
        self._started = True
        return self.recovery_report

    async def drain(self, timeout: float = 60.0) -> Dict[str, Any]:
        """Graceful shutdown: stop accepting, checkpoint, settle, close.

        Returns a report of what was still in flight.  Safe to call more
        than once (SIGTERM handler + finally block).
        """
        from .jobs import JobState

        self.scheduler.draining = True
        self.drain_controller.drain()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        # Wait for the running job to checkpoint out (DrainInterrupt) or
        # finish naturally, bounded by *timeout*.  A checkpointed job
        # stays journaled ``running``, so wait on the worker's own count.
        while loop.time() < deadline and self.scheduler.running:
            await asyncio.sleep(0.05)
        await self.scheduler.stop()
        self.journal.close()
        return {
            "running_at_drain": [
                r.job_id
                for r in self.scheduler.jobs_in_state(JobState.RUNNING)
            ],
            "queue_depth": self.scheduler.stats()["queue_depth"],
        }

    # -- adapter surface ------------------------------------------------

    def submit(
        self,
        tenant: str,
        request: ExperimentRequest,
        *,
        deadline_s: Optional[float] = None,
    ):
        return self.scheduler.submit(tenant, request, deadline_s=deadline_s)

    def job(self, job_id: str):
        return self.scheduler.job(job_id)

    def result(self, job_id: str):
        return self.scheduler.result(job_id)

    def cancel(self, job_id: str):
        return self.scheduler.cancel(job_id)

    def events(self, job_id: str):
        return self.scheduler.events(job_id)

    def stats(self) -> Dict[str, Any]:
        return self.scheduler.stats()

    # -- probes ---------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Liveness: the store root is writable.

        ``executor.quarantined`` counts the requests the scheduler's
        breaker refuses; they fail their own jobs and leave ``ok`` true.
        Readiness is the probe that gates new traffic.
        """
        store_ok = True
        store_error = ""
        try:
            self.store.root.mkdir(parents=True, exist_ok=True)
            probe = self.store.root / f".probe.{os.getpid()}"
            probe.write_text("ok")
            probe.unlink()
        except OSError as exc:
            store_ok = False
            store_error = str(exc)
        return {
            "ok": store_ok,
            "store": {
                "ok": store_ok, "root": str(self.store.root),
                "error": store_error,
            },
            "executor": {"quarantined": self.scheduler.quarantined},
            "draining": self.scheduler.draining,
        }

    def ready(self) -> Dict[str, Any]:
        """Readiness: started and not draining."""
        return {
            "ready": self._started and not self.scheduler.draining,
            "started": self._started,
            "draining": self.scheduler.draining,
            "queue_depth": self.scheduler.stats()["queue_depth"],
        }
