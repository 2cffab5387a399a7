"""Seeded chaos battery for the service layer.

Drives an in-process :class:`~repro.service.app.SimulationService`
through the failure modes the acceptance criteria name, using
deterministic seeds throughout (the PR-5 fault-injection philosophy: a
failing chaos run must reproduce from its seed):

* **transient crashes** — a workload factory armed to crash the first
  N attempts per workload (the same pattern the PR-5 recovery tests
  use) must be *retried to success* by the scheduler's backoff loop;
* **deterministic failures** — seeded
  :class:`~repro.resilience.faults.FaultPlan` corruption makes the
  simulation fail with a typed
  :class:`~repro.resilience.errors.SimulationError`; the job must end
  ``failed`` with that typed code after exactly one attempt;
* **deadlines** — a job submitted with an already-elapsed deadline must
  be ``cancelled`` with the distinct ``deadline_exceeded`` code.

The kill -9 + restart recovery leg needs a real process boundary, so it
lives in ``tests/test_service_chaos.py`` / the CI ``service-smoke``
job, not here.  :func:`run_chaos_battery` returns a report dict and
raises :class:`ChaosReportError` listing every violated expectation.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional

from repro.harness.executor import ExperimentRequest, ResultStore, execute_request
from repro.resilience.errors import SimulationError
from repro.resilience.faults import inject_faults, seeded_plan
from repro.resilience.selfcheck import guardrail_workload
from repro.service import ServiceConfig, SimulationService
from repro.service.jobs import JobState
from repro.workloads import make_workload
from repro.workloads.spec import Workload

__all__ = ["ChaosReportError", "run_chaos_battery"]


class ChaosReportError(SimulationError):
    """The battery found behavior violating the service's contracts."""


#: (workload name -> remaining crashes) shared with the armed factory.
_CRASHES_REMAINING: Dict[str, int] = {}


def _flaky_factory(name: str) -> Workload:
    remaining = _CRASHES_REMAINING.get(name, 0)
    if remaining > 0:
        _CRASHES_REMAINING[name] = remaining - 1
        raise OSError(
            f"chaos: injected transient environment failure for {name!r} "
            f"({remaining - 1} left)"
        )
    if name == "selfcheck":
        return guardrail_workload()
    return make_workload(name)


def run_chaos_battery(
    tmp_root: str,
    *,
    seed: int = 20240924,
    workload: str = "FIB",
    transient_crashes: int = 2,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the battery under ``tmp_root``; returns the report."""

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    async def battery() -> Dict[str, Any]:
        violations: List[str] = []
        config = ServiceConfig(
            root=f"{tmp_root}/service",
            store_root=f"{tmp_root}/store",
            max_attempts=transient_crashes + 1,
            backoff_base=0.01,
        )
        service = SimulationService(config)
        service.executor.workload_factory = _flaky_factory
        service.start()
        report: Dict[str, Any] = {"seed": seed}
        try:
            # -- leg 1: transient crashes are retried to success -------
            note("leg 1: transient worker crashes retry to success")
            _CRASHES_REMAINING[workload] = transient_crashes
            record = service.submit(
                "chaos-transient", ExperimentRequest(workload, "baseline")
            )
            final = await service.scheduler.wait(record.job_id, timeout=60)
            report["transient"] = {
                "state": final.state.value, "attempts": final.attempts,
            }
            if final.state is not JobState.DONE:
                violations.append(
                    f"transient leg: expected done after retries, got "
                    f"{final.state.value} ({final.error})"
                )
            elif not 2 <= final.attempts <= transient_crashes + 1:
                # The executor's store probe may absorb one injected
                # crash outside the attempt accounting, so the exact
                # count can be one lower than crashes + 1 — but success
                # on the very first attempt would mean no retry happened.
                violations.append(
                    f"transient leg: expected 2..{transient_crashes + 1} "
                    f"attempts, got {final.attempts}"
                )

            # -- leg 2: deterministic failures are typed, not retried --
            note("leg 2: deterministic failures surface typed, no retry")
            _CRASHES_REMAINING.pop(workload, None)
            # An unresolvable technique fails deterministically with a
            # typed SimulationError before any simulation state exists
            # — exactly the class of failure that must never replay.
            bad = ExperimentRequest(workload, "no_such_technique")
            record = service.submit("chaos-deterministic", bad)
            final = await service.scheduler.wait(record.job_id, timeout=60)
            report["deterministic"] = {
                "state": final.state.value, "attempts": final.attempts,
                "error_code": final.error_code,
            }
            if final.state is not JobState.FAILED:
                violations.append(
                    f"deterministic leg: expected failed, got "
                    f"{final.state.value}"
                )
            if final.attempts > 1:
                violations.append(
                    f"deterministic leg: {final.attempts} attempts — a "
                    f"deterministic failure must not be replayed"
                )

            # -- leg 2b: seeded fault corruption trips a typed guardrail
            note("leg 2b: seeded stack corruption fails typed via faults")
            guard = ExperimentRequest("selfcheck", "cars_low")
            # Count fault-event ordinals with a clean run (not through
            # the store — it must stay unpolluted), then seed one
            # corrupt_stack fault inside the observed range.
            with inject_faults() as counting:
                execute_request(guard, guardrail_workload())
            plans = seeded_plan(seed, counting.counters, ("corrupt_stack",))
            plan = plans.get("corrupt_stack")
            if plan is None:
                violations.append(
                    "fault leg: counting run observed no stack events"
                )
            else:
                with inject_faults(plan):
                    record = service.submit("chaos-faults", guard)
                    final = await service.scheduler.wait(
                        record.job_id, timeout=60
                    )
                report["faults"] = {
                    "state": final.state.value,
                    "attempts": final.attempts,
                    "error_code": final.error_code,
                }
                if final.state is not JobState.FAILED:
                    violations.append(
                        f"fault leg: expected typed failure, got "
                        f"{final.state.value}"
                    )
                if final.attempts > 1:
                    violations.append(
                        f"fault leg: {final.attempts} attempts — a "
                        f"deterministic guardrail trip must not replay"
                    )
                if final.error_code not in (
                    "InvariantViolation", "RegisterStackError"
                ):
                    # RegisterStackError is the InvariantViolation
                    # subclass the corrupt-stack guardrail raises.
                    violations.append(
                        f"fault leg: expected an InvariantViolation "
                        f"class, got {final.error_code!r}"
                    )

            # -- leg 3: deadline-exceeded jobs are cancelled, typed ----
            note("leg 3: expired deadlines cancel with a distinct code")
            record = service.submit(
                "chaos-deadline",
                ExperimentRequest(workload, "cars"),
                deadline_s=0.000001,
            )
            final = await service.scheduler.wait(record.job_id, timeout=60)
            report["deadline"] = {
                "state": final.state.value,
                "error_code": final.error_code,
            }
            if final.state is not JobState.CANCELLED:
                violations.append(
                    f"deadline leg: expected cancelled, got "
                    f"{final.state.value}"
                )
            if final.error_code != "deadline_exceeded":
                violations.append(
                    f"deadline leg: expected code deadline_exceeded, got "
                    f"{final.error_code!r}"
                )

            # -- leg 4: the survivors' results really landed -----------
            note("leg 4: store integrity after the storm")
            store = ResultStore(config.store_root)
            fsck = store.verify(strict=False)
            report["store"] = fsck
            if fsck["quarantined"]:
                violations.append(
                    f"store leg: fsck quarantined {fsck['quarantined']}"
                )
        finally:
            await service.drain(timeout=5.0)
        report["violations"] = violations
        if violations:
            raise ChaosReportError(
                "chaos battery found "
                f"{len(violations)} violation(s): " + "; ".join(violations)
            )
        return report

    return asyncio.run(battery())
