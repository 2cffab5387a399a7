"""The asyncio job scheduler + service core (``repro.service``).

In-process (no HTTP): each test builds a :class:`SimulationService`
under ``tmp_path`` and drives it inside ``asyncio.run`` — the repo has
no pytest-asyncio, so the coroutine is the test body.
"""

import asyncio
import threading

import pytest

from repro.harness.executor import ExperimentRequest
from repro.resilience.errors import SimulationError, UnknownTechniqueError
from repro.service import (
    ResultNotReadyError,
    ServiceConfig,
    ServiceUnavailableError,
    SimulationService,
)
from repro.service.jobs import JobState

WORKLOAD = "FIB"  # smallest smoke workload: fast, deterministic


def _config(tmp_path, **overrides):
    defaults = dict(
        root=str(tmp_path / "service"),
        store_root=str(tmp_path / "store"),
        max_attempts=3,
        backoff_base=0.01,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _run(coro):
    return asyncio.run(coro)


class TestLifecycle:
    def test_submit_runs_to_done_and_serves_result(self, tmp_path):
        async def body():
            service = SimulationService(_config(tmp_path))
            service.start()
            try:
                record = service.submit(
                    "t", ExperimentRequest(WORKLOAD, "baseline")
                )
                final = await service.scheduler.wait(record.job_id, timeout=60)
                assert final.state is JobState.DONE
                assert final.attempts == 1
                result = service.result(record.job_id)
                assert result.cycles > 0
                events = service.events(record.job_id)
                assert [e["state"] for e in events] == [
                    "submitted", "running", "done", "done",
                ]
                # The final event streams the run's objective summary.
                assert events[-1]["progress"]["cycles"] == result.cycles
                assert "cpi_shares" in events[-1]["progress"]
            finally:
                await service.drain(timeout=5)

        _run(body())

    def test_result_before_done_is_typed_conflict(self, tmp_path):
        async def body():
            service = SimulationService(_config(tmp_path))
            # Never started: the job stays queued.
            record = service.submit(
                "t", ExperimentRequest(WORKLOAD, "baseline")
            )
            with pytest.raises(ResultNotReadyError):
                service.result(record.job_id)
            service.journal.close()

        _run(body())

    def test_draining_service_refuses_submissions(self, tmp_path):
        async def body():
            service = SimulationService(_config(tmp_path))
            service.start()
            await service.drain(timeout=5)
            with pytest.raises(ServiceUnavailableError):
                service.submit("t", ExperimentRequest(WORKLOAD, "baseline"))

        _run(body())

    def test_tenant_is_only_a_label(self, tmp_path):
        async def body():
            service = SimulationService(_config(tmp_path))
            # Never started: every job stays queued.
            records = [
                service.submit("a", ExperimentRequest(WORKLOAD, "baseline"))
                for _ in range(70)
            ]
            assert {r.state for r in records} == {JobState.SUBMITTED}
            assert {service.job(r.job_id).tenant for r in records} == {"a"}
            assert service.stats()["queue_depth"] == 70
            service.journal.close()

        _run(body())

    def test_cancel_queued_job(self, tmp_path):
        async def body():
            service = SimulationService(_config(tmp_path))
            # Workers not started: the job cannot begin running.
            record = service.submit(
                "t", ExperimentRequest(WORKLOAD, "baseline")
            )
            cancelled = service.cancel(record.job_id)
            assert cancelled.state is JobState.CANCELLED
            assert cancelled.error_code == "cancelled"
            assert service.stats()["queue_depth"] == 0
            service.journal.close()

        _run(body())


class TestInMemoryHits:
    def test_hit_completes_while_the_worker_is_mid_simulation(self, tmp_path):
        hit_request = ExperimentRequest(WORKLOAD, "baseline")
        started = threading.Event()
        release = threading.Event()

        async def body():
            service = SimulationService(_config(tmp_path))
            service.start()
            try:
                first = service.submit("t", hit_request)
                await service.scheduler.wait(first.job_id, timeout=60)

                simulate = service.executor.runner

                def blocking_runner(request, workload):
                    started.set()
                    assert release.wait(timeout=60)
                    return simulate(request, workload)

                service.executor.runner = blocking_runner
                blocker = service.submit(
                    "t", ExperimentRequest(WORKLOAD, "cars")
                )
                assert await asyncio.to_thread(started.wait, 60)

                record = service.submit("t", hit_request)
                assert record.state is JobState.DONE
                assert not release.is_set()
                assert service.job(record.job_id).state is JobState.DONE
                assert record.attempts == 1
                assert record.store_key == service.job(first.job_id).store_key
                events = service.events(record.job_id)
                assert [e["state"] for e in events] == [
                    "submitted", "running", "done", "done",
                ]
                assert "progress" in events[-1]
                assert service.executor.stats.memo_hits == 1
                # Only the blocked job runs, and nothing waits.
                assert service.stats()["running"] == 1
                assert service.stats()["queue_depth"] == 0
                # A deadline already past is not served: the job queues
                # and is cancelled at dequeue, as any expired job is.
                expired = service.submit("t", hit_request, deadline_s=-1.0)
                assert expired.state is JobState.SUBMITTED

                release.set()
                final = await service.scheduler.wait(
                    blocker.job_id, timeout=60
                )
                assert final.state is JobState.DONE
                final = await service.scheduler.wait(
                    expired.job_id, timeout=60
                )
                assert final.state is JobState.CANCELLED
                assert final.error_code == "deadline_exceeded"
            finally:
                release.set()
                await service.drain(timeout=5)

        _run(body())


class TestStoreHits:
    def test_store_hit_completes_while_the_worker_is_mid_simulation(
        self, tmp_path
    ):
        hit_request = ExperimentRequest(WORKLOAD, "baseline")
        started = threading.Event()
        release = threading.Event()

        async def body():
            service = SimulationService(_config(tmp_path))
            service.start()
            assert len(service.scheduler._tasks) == 1  # the one worker
            try:
                first = service.submit("t", hit_request)
                await service.scheduler.wait(first.job_id, timeout=60)
                service.executor.clear_memo()  # stored, no longer in memory

                simulate = service.executor.runner

                def blocking_runner(request, workload):
                    started.set()
                    assert release.wait(timeout=60)
                    return simulate(request, workload)

                service.executor.runner = blocking_runner
                blocker = service.submit(
                    "t", ExperimentRequest(WORKLOAD, "cars")
                )
                assert await asyncio.to_thread(started.wait, 60)

                appends = []
                append = service.journal.append

                def recording_append(*records):
                    appends.append([r.state for r in records])
                    return append(*records)

                service.journal.append = recording_append
                record = service.submit("t", hit_request)
                assert record.state is JobState.DONE
                assert appends == [
                    [JobState.SUBMITTED, JobState.RUNNING, JobState.DONE]
                ]
                assert service.executor.stats.executed == 1  # still blocked
                assert record.attempts == 1
                assert record.store_key == service.job(first.job_id).store_key
                miss = service.submit(
                    "t", ExperimentRequest(WORKLOAD, "swl_2")
                )
                events = service.events(record.job_id)
                assert [e["state"] for e in events] == [
                    "submitted", "running", "done", "done",
                ]
                assert service.executor.stats.store_hits == 1
                # A miss waits for the worker, behind the blocked job.
                assert service.job(miss.job_id).state is JobState.SUBMITTED

                release.set()
                for job in (blocker, miss):
                    final = await service.scheduler.wait(job.job_id, timeout=60)
                    assert final.state is JobState.DONE
                assert service.executor.stats.executed == 3
            finally:
                release.set()
                await service.drain(timeout=5)

        _run(body())


class TestRetryPolicy:
    def test_transient_failures_retry_to_success(self, tmp_path):
        crashes = {"left": 2}

        def flaky(name):
            from repro.workloads import make_workload

            if crashes["left"] > 0:
                crashes["left"] -= 1
                raise OSError("injected transient failure")
            return make_workload(name)

        async def body():
            service = SimulationService(_config(tmp_path))
            service.executor.workload_factory = flaky
            service.start()
            try:
                record = service.submit(
                    "t", ExperimentRequest(WORKLOAD, "baseline")
                )
                final = await service.scheduler.wait(record.job_id, timeout=60)
                assert final.state is JobState.DONE
                assert final.attempts >= 2
                assert service.scheduler.counters["retried"] >= 1
                states = [
                    e["state"] for e in service.events(record.job_id)
                ]
                assert "retrying" in states
            finally:
                await service.drain(timeout=5)

        _run(body())

    def test_transient_budget_exhaustion_fails_typed(self, tmp_path):
        def always_down(name):
            raise OSError("environment permanently broken")

        async def body():
            service = SimulationService(_config(tmp_path, max_attempts=2))
            service.executor.workload_factory = always_down
            service.start()
            try:
                record = service.submit(
                    "t", ExperimentRequest(WORKLOAD, "baseline")
                )
                final = await service.scheduler.wait(record.job_id, timeout=60)
                assert final.state is JobState.FAILED
                assert final.attempts == 2
            finally:
                await service.drain(timeout=5)

        _run(body())

    def test_deterministic_failure_never_retries(self, tmp_path):
        async def body():
            service = SimulationService(_config(tmp_path))
            service.start()
            try:
                record = service.submit(
                    "t", ExperimentRequest(WORKLOAD, "no_such_technique")
                )
                final = await service.scheduler.wait(record.job_id, timeout=60)
                assert final.state is JobState.FAILED
                assert final.attempts == 1
                assert final.error_code == UnknownTechniqueError.__name__
                assert service.scheduler.counters["retried"] == 0
                with pytest.raises(SimulationError):
                    service.result(record.job_id)
            finally:
                await service.drain(timeout=5)

        _run(body())

    def test_quarantine_after_threshold(self, tmp_path):
        calls = []

        def always_down(request, workload):
            calls.append(request)
            raise OSError("environment permanently broken")

        async def body():
            service = SimulationService(_config(tmp_path, max_attempts=2))
            service.executor.runner = always_down
            service.start()
            request = ExperimentRequest(WORKLOAD, "baseline")
            try:
                first = service.submit("t", request)
                first = await service.scheduler.wait(first.job_id, timeout=60)
                assert first.state is JobState.FAILED
                assert first.attempts == 2
                assert len(calls) == 2
                assert service.health()["executor"]["quarantined"] == 0
                second = service.submit("t", request)
                second = await service.scheduler.wait(
                    second.job_id, timeout=60
                )
                # One more real attempt trips the breaker; the retry is
                # refused without reaching the runner.
                assert second.state is JobState.FAILED
                assert second.attempts == 2
                assert "quarantined" in second.error
                assert second.error_code == "ExecutorError"
                assert len(calls) == 3
                assert len(service.executor.stats.crash_log) == 3
                assert service.health()["executor"]["quarantined"] == 1
            finally:
                await service.drain(timeout=5)

        _run(body())

    def test_success_resets_the_streak(self, tmp_path):
        flaky = {"fail": True}

        async def body():
            service = SimulationService(_config(tmp_path, max_attempts=2))
            simulate = service.executor.runner

            def flaky_runner(request, workload):
                if flaky["fail"]:
                    raise OSError("injected transient failure")
                return simulate(request, workload)

            service.executor.runner = flaky_runner
            service.start()
            request = ExperimentRequest(WORKLOAD, "baseline")

            async def run_job():
                record = service.submit("t", request)
                return await service.scheduler.wait(record.job_id, timeout=60)

            try:
                assert (await run_job()).state is JobState.FAILED
                flaky["fail"] = False
                assert (await run_job()).state is JobState.DONE
                flaky["fail"] = True
                service.executor.clear_memo()
                for entry in service.store.entries():
                    entry.unlink()  # force a real re-run, not a store hit
                final = await run_job()
                # Two failures after a success: the streak restarted, so
                # both were real attempts and nothing is quarantined.
                assert final.state is JobState.FAILED
                assert final.attempts == 2
                assert "quarantined" not in final.error
                assert service.health()["executor"]["quarantined"] == 0
            finally:
                await service.drain(timeout=5)

        _run(body())

    @pytest.mark.parametrize("attempt_fails, ends", [
        (True, JobState.CANCELLED),
        (False, JobState.DONE),
    ])
    def test_cancel_while_running_replaces_the_next_retry(
        self, tmp_path, attempt_fails, ends
    ):
        started = threading.Event()
        release = threading.Event()

        async def body():
            service = SimulationService(_config(tmp_path))
            simulate = service.executor.runner

            def blocking_runner(request, workload):
                started.set()
                assert release.wait(timeout=60)
                if attempt_fails:
                    raise OSError("injected transient failure")
                return simulate(request, workload)

            service.executor.runner = blocking_runner
            service.start()
            try:
                record = service.submit(
                    "t", ExperimentRequest(WORKLOAD, "baseline")
                )
                assert await asyncio.to_thread(started.wait, 60)
                # The running attempt is not interrupted.
                assert service.cancel(record.job_id).state is JobState.RUNNING
                release.set()
                final = await service.scheduler.wait(record.job_id, timeout=60)
                assert final.state is ends
                assert final.attempts == 1
                assert service.scheduler._cancel_requested == set()
            finally:
                release.set()
                await service.drain(timeout=5)

        _run(body())


class TestDeadlines:
    def test_expired_deadline_cancels_with_distinct_code(self, tmp_path):
        async def body():
            service = SimulationService(_config(tmp_path))
            service.start()
            try:
                record = service.submit(
                    "t",
                    ExperimentRequest(WORKLOAD, "baseline"),
                    deadline_s=1e-6,
                )
                final = await service.scheduler.wait(record.job_id, timeout=60)
                assert final.state is JobState.CANCELLED
                assert final.error_code == "deadline_exceeded"
            finally:
                await service.drain(timeout=5)

        _run(body())


class TestStoreDedupe:
    def test_restart_serves_finished_work_from_store(self, tmp_path):
        request = ExperimentRequest(WORKLOAD, "baseline")

        async def first_life():
            service = SimulationService(_config(tmp_path))
            service.start()
            try:
                record = service.submit("t", request)
                final = await service.scheduler.wait(record.job_id, timeout=60)
                assert final.state is JobState.DONE
                return service.executor.stats.executed
            finally:
                await service.drain(timeout=5)

        async def second_life():
            service = SimulationService(_config(tmp_path))
            report = service.start()
            try:
                # The done job recovered terminal: nothing requeued.
                assert report["requeued"] == 0
                record = service.submit("t", request)
                final = await service.scheduler.wait(record.job_id, timeout=60)
                assert final.state is JobState.DONE
                # Same request, fresh process: served by the store.
                assert service.executor.stats.executed == 0
                assert service.executor.stats.store_hits >= 1
            finally:
                await service.drain(timeout=5)

        assert _run(first_life()) == 1
        _run(second_life())

    def test_recovery_requeues_non_terminal_jobs(self, tmp_path):
        async def submit_only():
            service = SimulationService(_config(tmp_path))
            # No start(): the job is journaled submitted and left there,
            # exactly what a crash between submit and run leaves behind.
            service.submit("t", ExperimentRequest(WORKLOAD, "baseline"))
            service.journal.close()

        async def recovered_life():
            service = SimulationService(_config(tmp_path))
            report = service.start()
            try:
                assert report["requeued"] == 1
                jobs = service.scheduler.jobs_in_state(
                    JobState.SUBMITTED, JobState.RUNNING
                )
                assert len(jobs) == 1
                final = await service.scheduler.wait(
                    jobs[0].job_id, timeout=60
                )
                assert final.state is JobState.DONE
            finally:
                await service.drain(timeout=5)

        _run(submit_only())
        _run(recovered_life())
