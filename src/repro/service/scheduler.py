"""Asyncio job scheduler over the executor.

One scheduler owns the job table, the queue, and the whole failure
policy (retries, backoff, the breaker); the executor stays a dumb,
synchronous engine that makes one attempt per request, behind a lock,
driven by one worker task.  Design points (``docs/architecture.md`` §15):

* **Hits never queue behind a simulation** — :meth:`JobScheduler.submit`
  asks ``Executor.lookup(request, build=False)``, which answers from
  memory or the result store without simulating or building a
  workload.  A hit journals ``submitted``, ``running`` and ``done``
  with one fsync, and ``submit`` returns the ``done`` record.  The
  store read runs on the event loop, beside the journal fsync it
  already does (on a 2-vCPU Xeon host, ~0.18 ms to read a FIB entry
  and ~0.1 ms to key it).
* **Dedupe against the store** — misses queue for the worker and run
  through ``Executor.run_many``, whose memo → store → simulate pipeline
  means a request whose result already exists (from a previous life of
  the service, a workload not built at submit, or a concurrent
  duplicate job that finished first) costs a JSON read, not a
  simulation.  The journal records the job either way; only genuinely
  missing work computes.
* **Deadlines with cancellation** — a job's ``deadline`` is absolute
  wall-clock time.  Queued jobs past it are cancelled at dequeue;
  running jobs are abandoned via ``asyncio.wait_for`` and journaled
  ``cancelled``/``deadline_exceeded``.  The worker thread itself cannot
  be killed mid-simulation — it finishes in the background and its
  result still lands in the store, so a resubmission is nearly free.
* **Retry with backoff, and a breaker** — only *transient* failures
  (``ExecutorError.transient``) retry, after :func:`backoff_delay`
  (``min(base * 2**(attempt-1), 30 s)``, no jitter).  Deterministic
  :class:`~repro.resilience.errors.SimulationError`\\ s fail immediately
  — replaying them cannot go differently.  A request whose attempts
  failed more than ``max_attempts`` times in a row, across jobs, is
  quarantined: the worker fails each later job for it at once, without
  calling the executor.
* **Drain** — a :class:`~repro.resilience.checkpoint.DrainInterrupt`
  from the runner leaves the job journaled ``running``; restart
  recovery re-queues it and the resumable runner continues from the
  checkpoint.
"""

from __future__ import annotations

import asyncio
import threading
import time
import uuid
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..harness._runner import RunResult
from ..harness.executor import Executor, ExecutorError, ExperimentRequest
from ..resilience.checkpoint import DrainInterrupt
from ..resilience.errors import DeadlineExceededError, SimulationError
from .errors import (
    JobNotFoundError,
    ResultNotReadyError,
    ServiceUnavailableError,
)
from .jobs import JobRecord, JobState
from .journal import JobJournal

__all__ = ["JobScheduler"]


def backoff_delay(base: float, attempt: int) -> float:
    """Seconds to wait before retry number *attempt* (1 = the first):
    ``base * 2**(attempt-1)``, capped at 30 s, without jitter."""
    return min(base * 2 ** (attempt - 1), 30.0)


class JobScheduler:
    """Owns job lifecycle: journal → queue → executor."""

    def __init__(
        self,
        executor: Executor,
        journal: JobJournal,
        *,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.executor = executor
        self.journal = journal
        self.max_attempts = max(1, int(max_attempts))
        self.backoff_base = backoff_base
        self._clock = clock
        # Created lazily inside the running loop: on 3.9 an asyncio.Queue
        # binds its loop at construction, and the scheduler is typically
        # built before asyncio.run() starts the real one.
        self.__queue: Optional["asyncio.Queue[str]"] = None
        self._jobs: Dict[str, JobRecord] = {}
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        self._done_events: Dict[str, asyncio.Event] = {}
        self._cancel_requested: set = set()
        self._exec_lock = threading.Lock()
        #: Consecutive failed attempts per request, across jobs (a success
        #: resets it); past ``max_attempts`` the request is quarantined.
        self._fail_streak: Dict[ExperimentRequest, int] = {}
        #: Requests the breaker has quarantined (``/v1/health`` reports it).
        self.quarantined = 0
        self._tasks: List[asyncio.Task] = []
        self._retry_tasks: set = set()
        self.draining = False
        #: Jobs the worker has handed to the executor and not yet seen
        #: return (0 or 1): what a drain waits on.
        self.running = 0
        self.counters = {
            "submitted": 0, "done": 0, "failed": 0,
            "cancelled": 0, "retried": 0, "recovered": 0,
        }

    @property
    def _queue(self) -> "asyncio.Queue[str]":
        if self.__queue is None:
            self.__queue = asyncio.Queue()
        return self.__queue

    # -- submission / queries -------------------------------------------

    def submit(
        self,
        tenant: str,
        request: ExperimentRequest,
        *,
        deadline_s: Optional[float] = None,
    ) -> JobRecord:
        """Journal one job; returns its record.

        A job whose result is in memory or in the store completes here
        and comes back ``done``; every other job queues for the worker
        and comes back ``submitted``.  *tenant* is a label journaled on
        the record; it never refuses or orders a job.
        """
        if self.draining:
            raise ServiceUnavailableError(
                "service is draining; not accepting new jobs"
            )
        now = self._clock()
        record = JobRecord(
            job_id=uuid.uuid4().hex[:16],
            tenant=tenant,
            request=request,
            submitted_at=now,
            deadline=(now + deadline_s) if deadline_s else None,
        )
        self.counters["submitted"] += 1
        hit = None
        if record.deadline is None or now < record.deadline:
            hit = self.executor.lookup(request, build=False)
        if hit is None:
            self._journal(record, note="submitted")
            self._queue.put_nowait(record.job_id)
            return record
        key, result, source = hit
        running = record.advance(JobState.RUNNING, attempts=1)
        return self._complete(
            running, key, result,
            note="result in memory" if source == "memo" else "result stored",
            before=[(record, "submitted"), (running, "attempt 1")],
        )

    def job(self, job_id: str) -> JobRecord:
        record = self._jobs.get(job_id)
        if record is None:
            raise JobNotFoundError(f"no job {job_id!r}")
        return record

    def events(self, job_id: str) -> List[Dict[str, Any]]:
        self.job(job_id)  # 404 before returning an empty stream
        return list(self._events.get(job_id, ()))

    def result(self, job_id: str) -> RunResult:
        """The stored result of a ``done`` job (typed refusal otherwise)."""
        record = self.job(job_id)
        if record.state is not JobState.DONE:
            raise ResultNotReadyError(
                f"job {job_id} is {record.state.value}, not done"
            )
        stored = self.executor.store.load(record.store_key)
        if stored is None:  # schema bumped / cache cleared between polls
            raise ResultNotReadyError(
                f"job {job_id}: stored result is gone; resubmit"
            )
        return stored

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job now; flag a running one.

        A running attempt is not interrupted: the flag takes the place of
        the job's next retry, if the attempt fails and would retry.
        """
        record = self.job(job_id)
        if record.terminal:
            return record
        if record.state in (JobState.SUBMITTED, JobState.RETRYING):
            record = record.advance(
                JobState.CANCELLED, error="cancelled by client",
                error_code="cancelled",
            )
            self._journal(record, note="cancelled by client")
            self.counters["cancelled"] += 1
            self._finish(record.job_id)
        else:
            self._cancel_requested.add(job_id)
        return record

    async def wait(self, job_id: str, timeout: Optional[float] = None) -> JobRecord:
        """Block until *job_id* reaches a terminal state."""
        record = self.job(job_id)
        if record.terminal:
            return record
        event = self._done_events.setdefault(job_id, asyncio.Event())
        await asyncio.wait_for(event.wait(), timeout)
        return self.job(job_id)

    # -- recovery -------------------------------------------------------

    def recover(self) -> Dict[str, int]:
        """Replay the journal; re-queue every non-terminal job."""
        jobs, report = self.journal.recover()
        requeued = 0
        for job_id in sorted(jobs):
            record = jobs[job_id]
            self._jobs[job_id] = record
            if record.terminal:
                continue
            record = record.recovered()
            self._journal(record, note="recovered after restart")
            self._queue.put_nowait(job_id)
            requeued += 1
        self.counters["recovered"] += requeued
        report["requeued"] = requeued
        return report

    # -- the worker loop ------------------------------------------------

    def start(self) -> None:
        """Start the one worker."""
        self._tasks.append(asyncio.ensure_future(self._worker()))

    async def stop(self) -> None:
        """Stop the tasks (does not drain; see the service's drain path)."""
        self.draining = True
        for task in self._tasks:
            task.cancel()
        for task in list(self._retry_tasks):
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    async def _worker(self) -> None:
        while True:
            job_id = await self._queue.get()
            try:
                await self._process(job_id)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # defensive: a bug must not kill the loop
                record = self._jobs.get(job_id)
                if record is not None and not record.terminal:
                    self._fail(record, exc)

    async def _process(self, job_id: str) -> None:
        record = self._jobs.get(job_id)
        if record is None or record.terminal:
            return
        if job_id in self._cancel_requested:
            record = record.advance(
                JobState.CANCELLED, error="cancelled by client",
                error_code="cancelled",
            )
            self._journal(record, note="cancelled by client before its retry")
            self.counters["cancelled"] += 1
            self._finish(job_id)
            return
        now = self._clock()
        if record.deadline is not None and now >= record.deadline:
            self._cancel_deadline(record, where="queued")
            return

        record = record.advance(
            JobState.RUNNING, attempts=record.attempts + 1
        )
        self._journal(record, note=f"attempt {record.attempts}")
        budget = (
            None if record.deadline is None
            else max(0.01, record.deadline - self._clock())
        )
        self.running += 1
        try:
            key, result = await asyncio.wait_for(
                asyncio.to_thread(self._execute, record), timeout=budget
            )
        except asyncio.TimeoutError:
            self._cancel_deadline(record, where="running")
        except DrainInterrupt:
            # Checkpointed and stopped on purpose.  Leave the job
            # journaled ``running``: restart recovery re-queues it and
            # the resumable runner continues from the checkpoint.
            pass
        except ExecutorError as exc:
            if exc.transient and record.attempts < self.max_attempts:
                self._schedule_retry(record, exc)
            else:
                self._fail(record, exc)
        except Exception as exc:
            # A typed SimulationError, or an untyped escape (factory
            # bug, store I/O): final either way.
            self._fail(record, exc)
        else:
            self._complete(record, key, result, note="result stored")
        finally:
            self.running -= 1

    def _execute(self, record: JobRecord):
        """Synchronous executor round (runs in a thread, serialized)."""
        request = record.request
        with self._exec_lock:
            streak = self._fail_streak.get(request, 0)
            if streak > self.max_attempts:
                raise ExecutorError(
                    f"{request.workload}/{request.technique} is quarantined "
                    f"after {streak} failed attempts (circuit breaker; see "
                    f"the executor's crash_log)",
                    transient=False,
                )
            try:
                # run_many first: it types a workload-factory failure as
                # an ExecutorError, where a bare key_for call would
                # raise it raw.  Afterwards the key is cached.
                result = self.executor.run_many([request])[request]
            except ExecutorError:
                self._fail_streak[request] = streak + 1
                if streak == self.max_attempts:
                    self.quarantined += 1
                raise
            self._fail_streak.pop(request, None)
            return self.executor.key_for(request), result

    # -- outcome plumbing -----------------------------------------------

    def _complete(
        self,
        record: JobRecord,
        key: str,
        result: RunResult,
        *,
        note: str,
        before: Sequence[Tuple[JobRecord, str]] = (),
    ) -> JobRecord:
        """Journal ``done`` after the transitions *before*, with one
        fsync, and publish the result."""
        record = record.advance(JobState.DONE, store_key=key)
        self._journal_all([*before, (record, note)])
        self.counters["done"] += 1
        self._emit_progress(record.job_id, result)
        self._finish(record.job_id)
        return record

    def _schedule_retry(self, record: JobRecord, exc: BaseException) -> None:
        delay = backoff_delay(self.backoff_base, record.attempts)
        record = record.advance(
            JobState.RETRYING, error=repr(exc), error_code="transient",
        )
        self._journal(
            record, note=f"transient failure; retry in {delay:.2f}s"
        )
        self.counters["retried"] += 1

        async def requeue() -> None:
            await asyncio.sleep(delay)
            if not self.draining:
                self._queue.put_nowait(record.job_id)

        task = asyncio.ensure_future(requeue())
        self._retry_tasks.add(task)
        task.add_done_callback(self._retry_tasks.discard)

    def _cancel_deadline(self, record: JobRecord, *, where: str) -> None:
        err = DeadlineExceededError(
            f"job {record.job_id} exceeded its deadline while {where}"
        )
        record = record.advance(
            JobState.CANCELLED, error=str(err), error_code=err.code,
        )
        self._journal(record, note=f"deadline exceeded ({where})")
        self.counters["cancelled"] += 1
        self._finish(record.job_id)

    def _fail(self, record: JobRecord, exc: BaseException) -> None:
        # Prefer the typed cause over the ExecutorError wrapper so the
        # journaled code names the real failure class.
        cause = exc.__cause__ if isinstance(exc, ExecutorError) else None
        source = cause if isinstance(cause, SimulationError) else exc
        code = getattr(source, "code", "") or type(source).__name__
        record = record.advance(
            JobState.FAILED, error=repr(exc), error_code=code,
        )
        self._journal(record, note="failed")
        self.counters["failed"] += 1
        self._finish(record.job_id)

    def _finish(self, job_id: str) -> None:
        self._cancel_requested.discard(job_id)
        event = self._done_events.get(job_id)
        if event is not None:
            event.set()

    def _journal(self, record: JobRecord, *, note: str = "") -> None:
        self._journal_all([(record, note)])

    def _journal_all(self, entries: Sequence[Tuple[JobRecord, str]]) -> None:
        """Journal each (record, note) in order, with one fsync."""
        for record, _ in entries:
            self._jobs[record.job_id] = record
        self.journal.append(*(record for record, _ in entries))
        for record, note in entries:
            self._events.setdefault(record.job_id, []).append({
                "ts": self._clock(),
                "state": record.state.value,
                "attempts": record.attempts,
                "note": note,
            })

    def _emit_progress(self, job_id: str, result: RunResult) -> None:
        # Per-job CPI/objective streaming (repro.obs): the final event of
        # a successful job carries the run's observable summary.
        try:
            from ..obs.objective import progress_event
            payload = progress_event(result.stats)
        except Exception:
            payload = {"cycles": result.stats.cycles}
        self._events[job_id].append({
            "ts": self._clock(), "state": "done", "progress": payload,
        })

    # -- introspection --------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            # Jobs still waiting; a cancelled job's id may linger in a
            # queue until a task skips it, so count states, not ids.
            "queue_depth": len(
                self.jobs_in_state(JobState.SUBMITTED, JobState.RETRYING)
            ),
            "running": self.running,
            "jobs": len(self._jobs),
            "executor": self.executor.stats.as_dict(),
        }

    def jobs_in_state(self, *states: JobState) -> List[JobRecord]:
        wanted = set(states)
        return [r for r in self._jobs.values() if r.state in wanted]
