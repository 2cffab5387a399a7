"""Graceful drain: checkpoint mid-run, restart, byte-identical resume.

The SIGTERM sequence (docs/architecture.md §15) in-process: flipping the
service's :class:`~repro.resilience.checkpoint.DrainController` makes
the resumable runner checkpoint the in-flight launch at its next idle
boundary and stop (``DrainInterrupt``); the job stays journaled
``running``.  A second service on the same state directory re-queues it
and resumes from the checkpoint — and the result store's divergence
cross-check plus an explicit stats comparison pin the resumed run
byte-identical to an uninterrupted one.
"""

import asyncio

from repro.core.techniques import CARS
from repro.harness._runner import run_workload
from repro.harness.executor import ExperimentRequest
from repro.service import ServiceConfig, SimulationService
from repro.service.jobs import JobState
from repro.workloads import make_workload

WORKLOAD = "SSSP"  # multi-launch: exercises the per-launch sidecars too


def _config(tmp_path):
    return ServiceConfig(
        root=str(tmp_path / "service"),
        store_root=str(tmp_path / "store"),
        backoff_base=0.01,
    )


def test_drain_checkpoints_and_restart_resumes_byte_identical(tmp_path):
    request = ExperimentRequest(WORKLOAD, "cars")

    async def first_life():
        service = SimulationService(_config(tmp_path))
        service.start()
        # Pre-flip the drain controller: the run interrupts at its very
        # first checkpoint boundary — deterministic, no timing races.
        service.drain_controller.drain()
        record = service.submit("t", request)
        while service.job(record.job_id).state is JobState.SUBMITTED:
            await asyncio.sleep(0.01)
        report = await service.drain(timeout=30)
        interrupted = service.job(record.job_id)
        assert interrupted.state is JobState.RUNNING  # journaled in-flight
        assert record.job_id in report["running_at_drain"]
        # The drain actually checkpointed: resume state is on disk.
        work = tmp_path / "service" / "work"
        checkpoints = list(work.glob("*/ckpt-*"))
        assert checkpoints, "drain left no checkpoint directory behind"
        return record.job_id

    async def second_life(job_id):
        service = SimulationService(_config(tmp_path))
        report = service.start()
        try:
            assert report["requeued"] == 1
            final = await service.scheduler.wait(job_id, timeout=120)
            assert final.state is JobState.DONE
            assert service.scheduler.counters["recovered"] == 1
            # The resumed simulation really computed (not a store hit) ...
            assert service.executor.stats.executed == 1
            resumed = service.result(job_id)
            # ... and the work directory was cleaned up after success.
            assert not list((tmp_path / "service" / "work").glob("*"))
            return resumed
        finally:
            await service.drain(timeout=5)

    job_id = asyncio.run(first_life())
    resumed = asyncio.run(second_life(job_id))

    # Byte-identity: checkpoint/resume across a service restart produces
    # exactly the stats an uninterrupted run produces.
    fresh = run_workload(make_workload(WORKLOAD), CARS)
    assert resumed.stats.to_dict() == fresh.stats.to_dict()
    assert resumed.cycles == fresh.cycles


def test_drain_with_idle_service_settles_immediately(tmp_path):
    async def body():
        service = SimulationService(_config(tmp_path))
        service.start()
        report = await service.drain(timeout=5)
        assert report["running_at_drain"] == []
        assert report["queue_depth"] == 0

    asyncio.run(body())
