"""Typed failure taxonomy for the simulator and harness.

Every way a simulation or sweep can fail maps to one subclass of
:class:`SimulationError`, so callers (and the CLI's exit-code mapping)
can tell a wedged timing model from an exhausted cycle budget from a
corrupted invariant from a crashed worker:

* :class:`DeadlockError` — the timing model stopped making forward
  progress (no future events, or the watchdog saw a zero-retirement
  window).  Carries a :class:`~repro.resilience.diagnostics.DiagnosticDump`.
* :class:`MaxCyclesError` — the run exceeded its ``max_cycles`` budget
  while work remained.  Also carries a dump (the state *at* the budget).
* :class:`InvariantViolation` — internal bookkeeping broke: CPI-stack
  accounting leaks, register-stack corruption, impossible register
  balances.  ``RegisterStackError`` in :mod:`repro.cars.register_stack`
  subclasses this.
* :class:`WorkerCrashError` — a sweep request failed outside the model
  itself (worker process died, pickling or an OS error); carries the
  worker's formatted traceback.  ``ExecutorError`` subclasses this: the
  executor raises it when a request's one attempt fails, and only the
  service scheduler retries.
* :class:`UnknownTechniqueError` — a technique name matched neither the
  registry nor any registered parametric family.  Also a ``KeyError``,
  so pre-existing ``except KeyError`` callers keep working; carries
  difflib "did you mean" suggestions.

This module is a leaf — it imports nothing from ``repro`` — so every
layer (core, cars, mem, harness, cli) can use it without import cycles.
Exceptions keep ``args == (message,)`` and store the extras in instance
attributes, so they pickle cleanly across process-pool boundaries.
"""

from __future__ import annotations

import difflib
from typing import Optional, Sequence


class SimulationError(RuntimeError):
    """Base class for every typed simulator/harness failure.

    ``diagnostics`` (when present) is a
    :class:`~repro.resilience.diagnostics.DiagnosticDump`; the message
    stays short so logs are readable, and the dump carries the detail.
    """

    def __init__(self, message: str = "", *, diagnostics=None) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


class DeadlockError(SimulationError):
    """The timing model stopped making forward progress.

    Raised either structurally (no warp can issue and no memory event is
    pending while blocks remain) or by the no-forward-progress watchdog
    (a cycle window passed with zero retired µops — a livelock).
    """


class MaxCyclesError(SimulationError):
    """The run exceeded its ``max_cycles`` budget with work remaining.

    The boundary contract (pinned by ``tests/test_max_cycles_boundary``):
    a run whose total length is ``T`` cycles completes iff
    ``max_cycles >= T - 1``; both the per-cycle guard and the
    fast-forward clamp fire at cycle ``max_cycles + 1``.
    """


class InvariantViolation(SimulationError):
    """Internal model bookkeeping failed a self-check.

    Covers CPI-stack conservation leaks, register-stack corruption
    (``RegisterStackError``), and impossible register balances during
    CARS context switches.
    """


class WorkerCrashError(SimulationError):
    """A sweep request failed outside the timing model's own guards.

    ``worker_traceback`` preserves the failing worker's formatted
    traceback (remote tracebacks included) instead of swallowing it.
    """

    def __init__(
        self,
        message: str = "",
        *,
        worker_traceback: Optional[str] = None,
        diagnostics=None,
    ) -> None:
        super().__init__(message, diagnostics=diagnostics)
        self.worker_traceback = worker_traceback


class StoreCorruptionError(SimulationError):
    """The result store holds torn, truncated, or undecodable entries.

    Raised by ``ResultStore.verify(strict=True)`` (``repro cache
    verify``) after the offending files have been moved to the store's
    ``quarantine/`` directory, so a corrupted cache is contained rather
    than silently served or repeatedly re-crashing sweeps.
    ``quarantined`` lists the quarantined file names.
    """

    def __init__(
        self,
        message: str = "",
        *,
        quarantined: Sequence[str] = (),
        diagnostics=None,
    ) -> None:
        super().__init__(message, diagnostics=diagnostics)
        self.quarantined = tuple(quarantined)


class ServiceError(SimulationError):
    """Base class for service-layer (job queue / HTTP) failures.

    Every subclass carries an ``http_status`` and a stable machine
    ``code`` so the HTTP adapter can map failures to distinct response
    statuses and the client can re-raise the same typed error from a
    response body (:mod:`repro.service.errors` defines the concrete
    draining, request and job subclasses).
    """

    #: HTTP response status the adapter maps this failure to.
    http_status: int = 500
    #: Stable machine-readable code carried in response bodies.
    code: str = "service_error"


class DeadlineExceededError(ServiceError):
    """A job (or one of its requests) outlived its submission deadline.

    Deadline-exceeded jobs are *cancelled*, not failed: the work is
    abandoned (results already committed to the store stay), the job is
    journalled ``cancelled`` with reason ``deadline``, and both the HTTP
    adapter (504) and the CLI exit code (:data:`EXIT_DEADLINE`) report
    it distinctly from every other failure class.
    """

    http_status = 504
    code = "deadline_exceeded"


class UnknownTechniqueError(SimulationError, KeyError):
    """A technique name resolved to nothing.

    Subclasses both :class:`SimulationError` (typed taxonomy, own exit
    code) and :class:`KeyError` (the historical contract of
    ``resolve_technique``).  ``suggestions`` holds close-match names.
    """

    def __init__(
        self, message: str = "", *, suggestions: Sequence[str] = (), diagnostics=None
    ) -> None:
        super().__init__(message, diagnostics=diagnostics)
        self.suggestions = tuple(suggestions)

    # KeyError.__str__ would repr() the message; keep it readable.
    __str__ = RuntimeError.__str__

    @classmethod
    def for_name(
        cls, name: str, known: Sequence[str]
    ) -> "UnknownTechniqueError":
        """Build the error with difflib did-you-mean suggestions."""
        suggestions = difflib.get_close_matches(name, list(known), n=3, cutoff=0.5)
        message = f"unknown technique {name!r}"
        if suggestions:
            message += " (did you mean: " + ", ".join(suggestions) + "?)"
        return cls(message, suggestions=suggestions)


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------

#: Distinct process exit codes per failure class (0 = success, 1 = normal
#: gate/usage failures, 2+ = typed simulation failures).  README's "When a
#: run fails" section documents this mapping; keep them in lockstep.
#: Code 8 is retired and must not be reused: scripts match on 9-11.
EXIT_SIMULATION = 2
EXIT_DEADLOCK = 3
EXIT_MAX_CYCLES = 4
EXIT_INVARIANT = 5
EXIT_WORKER_CRASH = 6
EXIT_UNKNOWN_TECHNIQUE = 7
EXIT_SERVICE = 9
EXIT_DEADLINE = 10
EXIT_STORE_CORRUPTION = 11

_EXIT_BY_CLASS = (
    (DeadlockError, EXIT_DEADLOCK),
    (MaxCyclesError, EXIT_MAX_CYCLES),
    (StoreCorruptionError, EXIT_STORE_CORRUPTION),
    (InvariantViolation, EXIT_INVARIANT),
    (WorkerCrashError, EXIT_WORKER_CRASH),
    (UnknownTechniqueError, EXIT_UNKNOWN_TECHNIQUE),
    (DeadlineExceededError, EXIT_DEADLINE),
    (ServiceError, EXIT_SERVICE),
)


def exit_code_for(exc: BaseException) -> int:
    """Process exit code for *exc* (most specific class wins)."""
    for cls, code in _EXIT_BY_CLASS:
        if isinstance(exc, cls):
            return code
    if isinstance(exc, SimulationError):
        return EXIT_SIMULATION
    return 1
