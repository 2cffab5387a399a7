"""Service chaos battery + the real kill -9 recovery leg.

``run_chaos_battery`` covers seeded in-process failure modes (transient
crashes, deterministic typed failures, fault-injected guardrail trips,
deadlines).  The kill -9 leg here is the acceptance scenario that needs
a true process boundary: serve, submit a 2-workload plan, SIGKILL the
server mid-sweep, restart on the same state, and prove every journaled
job recovers with **zero recomputation of stored results**.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.harness.executor import ExperimentRequest, ResultStore
from repro.service import ServiceConfig, SimulationService
from repro.service.jobs import JobState
from tests.service_chaos import run_chaos_battery


class TestBattery:
    def test_chaos_battery_passes_clean(self, tmp_path):
        report = run_chaos_battery(str(tmp_path))
        assert report["violations"] == []
        assert report["transient"]["state"] == "done"
        assert report["transient"]["attempts"] >= 2
        assert report["deterministic"]["state"] == "failed"
        assert report["deterministic"]["attempts"] == 1
        assert report["faults"]["state"] == "failed"
        assert report["deadline"]["state"] == "cancelled"
        assert report["deadline"]["error_code"] == "deadline_exceeded"
        assert report["store"]["quarantined"] == []


class TestKillNineRecovery:
    def test_sigkill_mid_sweep_recovers_without_recompute(self, tmp_path):
        root = tmp_path / "service"
        store_root = tmp_path / "store"
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(
            os.environ,
            PYTHONPATH=str(repo_root / "src"),
            REPRO_CACHE_DIR=str(store_root),
        )
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--root", str(root),
            ],
            env=env, cwd=str(repo_root),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            banner = server.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no listen banner: {banner!r}"
            url = f"http://{match.group(1)}:{match.group(2)}"

            # A fast job and a slow one: the fast one finishes and hits
            # the store before the kill; the slow one is mid-sweep.
            plan = [
                ExperimentRequest("FIB", "baseline"),
                ExperimentRequest("SSSP", "cars"),
            ]
            body = json.dumps({
                "tenant": "chaos",
                "requests": [r.to_dict() for r in plan],
            }).encode()
            request = urllib.request.Request(
                url + "/v1/plans", data=body,
                headers={"Content-Type": "application/json"}, method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as resp:
                job_ids = json.loads(resp.read())["job_ids"]
            assert len(job_ids) == 2

            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                with urllib.request.urlopen(
                    url + f"/v1/jobs/{job_ids[0]}", timeout=30
                ) as resp:
                    if json.loads(resp.read())["state"] == "done":
                        break
                time.sleep(0.1)
            else:
                pytest.fail("first job never finished before the kill")
        finally:
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=30)
            server.stdout.close()

        stored_at_kill = len(ResultStore(str(store_root)).entries())
        assert stored_at_kill >= 1  # the fast job's result survived

        async def recovered_life():
            service = SimulationService(ServiceConfig(
                root=str(root),
                store_root=str(store_root),
                backoff_base=0.01,
            ))
            report = service.start()
            try:
                # Every journaled non-terminal job came back.
                assert report["requeued"] >= 1
                assert report["corrupt"] == 0
                for job_id in job_ids:
                    final = await service.scheduler.wait(job_id, timeout=300)
                    assert final.state is JobState.DONE, final
                # Zero recomputation of stored results: only the jobs
                # whose results were lost simulate after restart.
                executed = service.executor.stats.executed
                assert executed == len(job_ids) - stored_at_kill
                return service.executor.store.verify(strict=True)
            finally:
                await service.drain(timeout=5)

        fsck = asyncio.run(recovered_life())
        assert fsck["quarantined"] == []
        assert fsck["ok"] == len(job_ids)
