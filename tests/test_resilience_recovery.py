"""Sweep-level crash recovery: kill -9 resume, pool degradation, and
typed worker-failure handling.

The executor's recovery contract: every completed request persists in the
content-addressed store before the sweep moves on, so killing the process
mid-sweep loses at most the in-flight request; a re-run recomputes only
the remainder.  A broken process pool degrades to the serial path instead
of losing the sweep, and a failed attempt raises a typed
:class:`ExecutorError` after one attempt (retries and the breaker are the
service scheduler's, tested in ``test_service_scheduler.py``).
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.frontend import builder as b
from repro.harness.executor import (
    Executor,
    ExecutorError,
    ExperimentRequest,
    ResultStore,
    execute_request,
)
from repro.resilience import InvariantViolation, WorkerCrashError
from repro.workloads import KernelLaunch, Workload


def _tiny_workload(name, bias=1):
    prog = b.program()
    b.device(prog, "leaf", ["x"], [b.ret(b.v("x") * 2 + bias)],
             reg_pressure=4)
    b.kernel(prog, "main", ["out"], [
        b.let("i", b.gid()),
        b.store(b.v("out") + b.v("i"), b.call("leaf", b.v("i"))),
    ])
    return Workload(name=name, suite="t", program=prog,
                    launches=[KernelLaunch("main", 2, 32, (1 << 20,))])


#: Module-level so factories pickle by reference into pool workers.
_FACTORY: dict = {}

#: PID of the test (parent) process; pool workers fork and inherit this,
#: so a factory can tell whether it is running inside a worker.
_PARENT_PID = [0]


def registry_factory(name):
    return _FACTORY[name]


def crash_in_worker_factory(name):
    if os.getpid() != _PARENT_PID[0]:
        os._exit(3)  # die hard: simulates OOM-kill / segfault
    return _FACTORY[name]


def raise_in_worker_factory(name):
    if os.getpid() != _PARENT_PID[0]:
        # A typed simulator failure: deterministic, so the pool path
        # must surface it instead of replaying it serially.
        raise InvariantViolation("worker-side explosion")
    return _FACTORY[name]


def always_invariant_factory(name):
    raise InvariantViolation("model bookkeeping broke")


def always_value_error_factory(name):
    raise ValueError("no such workload today")


@pytest.fixture(autouse=True)
def _fresh_registry():
    _FACTORY.clear()
    for i, name in enumerate(("wl_a", "wl_b", "wl_c")):
        _FACTORY[name] = _tiny_workload(name, bias=i + 1)
    _PARENT_PID[0] = os.getpid()
    yield
    _FACTORY.clear()


def _requests():
    return [ExperimentRequest(name, "baseline") for name in _FACTORY]


def _executor(tmp_path, jobs=1, factory=registry_factory, **kwargs):
    return Executor(jobs=jobs, store=ResultStore(str(tmp_path / "store")),
                    workload_factory=factory, **kwargs)


# Inlined workloads must match _tiny_workload above byte-for-byte: the
# store key hashes the compiled module, and the resume assertion depends
# on the child's entries hitting in the parent's follow-up sweep.
_KILL_SCRIPT = textwrap.dedent("""\
    import os, signal, sys
    store_dir = sys.argv[1]

    from repro.frontend import builder as b
    from repro.harness.executor import (
        Executor, ExperimentRequest, ResultStore)
    from repro.workloads import KernelLaunch, Workload

    def make(name, bias):
        prog = b.program()
        b.device(prog, "leaf", ["x"], [b.ret(b.v("x") * 2 + bias)],
                 reg_pressure=4)
        b.kernel(prog, "main", ["out"], [
            b.let("i", b.gid()),
            b.store(b.v("out") + b.v("i"), b.call("leaf", b.v("i"))),
        ])
        return Workload(name=name, suite="t", program=prog,
                        launches=[KernelLaunch("main", 2, 32, (1 << 20,))])

    registry = {name: make(name, i + 1)
                for i, name in enumerate(("wl_a", "wl_b", "wl_c"))}

    def factory(name):
        return registry[name]

    def progress(done, total, request, source):
        if source == "run":
            # First simulated request just committed to the store:
            # die the hardest way possible, mid-sweep.
            os.kill(os.getpid(), signal.SIGKILL)

    executor = Executor(store=ResultStore(store_dir),
                        workload_factory=factory, progress=progress)
    executor.run_many(
        [ExperimentRequest(name, "baseline") for name in registry])
    raise SystemExit("unreachable: the sweep should have been killed")
""")


class TestKillAndResume:
    def test_sigkill_mid_sweep_resumes_from_store(self, tmp_path):
        """kill -9 after the first commit; the re-run recomputes the rest."""
        store_dir = tmp_path / "store"
        script = tmp_path / "killed_sweep.py"
        script.write_text(_KILL_SCRIPT)
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        proc = subprocess.run(
            [sys.executable, str(script), str(store_dir)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        store = ResultStore(str(store_dir))
        assert len(store.entries()) == 1  # exactly the committed run

        executor = _executor(tmp_path)
        results = executor.run_many(_requests())
        assert len(results) == 3
        # One request came from the dead process's store entry; only the
        # two lost ones were simulated again.
        assert executor.stats.store_hits == 1
        assert executor.stats.executed == 2

    def test_store_bytes_identical_after_resume(self, tmp_path):
        """A resumed sweep's store is indistinguishable from a clean one."""
        clean = _executor(tmp_path)
        clean.run_many(_requests())
        clean_bytes = {p.name: p.read_bytes()
                       for p in clean.store.entries()}
        other = Executor(store=ResultStore(str(tmp_path / "other")),
                         workload_factory=registry_factory)
        other.run_many(_requests())
        assert clean_bytes == {p.name: p.read_bytes()
                               for p in other.store.entries()}


class TestPoolDegradation:
    def test_broken_pool_falls_back_to_serial(self, tmp_path):
        executor = _executor(tmp_path, jobs=2,
                             factory=crash_in_worker_factory)
        results = executor.run_many(_requests())
        # Every result was still produced (serially, in-process).
        assert len(results) == 3
        assert executor.stats.pool_breaks >= 1
        assert executor.stats.executed == 3
        assert any(entry["stage"] == "pool"
                   for entry in executor.stats.crash_log)
        # The executor stays serial afterwards: a fresh batch completes
        # without touching the (gone) pool.
        _FACTORY["wl_d"] = _tiny_workload("wl_d", bias=9)
        more = executor.run_many(
            [ExperimentRequest("wl_d", "baseline")])
        assert len(more) == 1

    def test_worker_exception_preserves_remote_traceback(self, tmp_path):
        executor = _executor(tmp_path, jobs=2,
                             factory=raise_in_worker_factory)
        with pytest.raises(ExecutorError) as info:
            executor.run_many(_requests())
        assert isinstance(info.value, WorkerCrashError)
        assert info.value.worker_traceback
        pool_crashes = [entry for entry in executor.stats.crash_log
                        if entry["stage"] == "pool"]
        assert pool_crashes
        assert "worker-side explosion" in pool_crashes[0]["traceback"]


class TestTypedLocalFailures:
    def test_simulation_error_skips_pointless_retries(self, tmp_path):
        executor = _executor(tmp_path, factory=always_invariant_factory)
        with pytest.raises(ExecutorError) as info:
            executor.run_one(ExperimentRequest("wl_a", "baseline"))
        # Deterministic model failure: exactly one attempt, no retries.
        assert executor.stats.retries == 0
        assert len(executor.stats.crash_log) == 1
        assert "InvariantViolation" in info.value.worker_traceback

    def test_environmental_error_reports_after_one_attempt(self, tmp_path):
        calls = []

        def fails_once(request, workload):
            calls.append(request)
            if len(calls) == 1:
                raise OSError("transient host hiccup")
            return execute_request(request, workload)

        executor = _executor(tmp_path, runner=fails_once)
        request = ExperimentRequest("wl_a", "baseline")
        with pytest.raises(ExecutorError) as info:
            executor.run_one(request)
        assert info.value.transient
        assert isinstance(info.value.__cause__, OSError)
        assert "transient host hiccup" in info.value.worker_traceback
        # One attempt, no retry: retrying is the service scheduler's job.
        assert len(calls) == 1
        assert len(executor.stats.crash_log) == 1
        assert executor.stats.retries == 0
        executor.run_one(request)  # the caller's retry simulates and stores
        assert len(calls) == 2
        assert executor.stats.executed == 1
        assert len(executor.store.entries()) == 1


class TestCircuitBreaker:
    def test_stats_round_trip(self, tmp_path):
        executor = _executor(tmp_path, factory=always_value_error_factory)
        with pytest.raises(ExecutorError):
            executor.run_one(ExperimentRequest("wl_a", "baseline"))
        data = executor.stats.as_dict()
        assert data["failures"] == 1
        assert isinstance(data["crash_log"], list)
        executor.stats.reset()
        assert executor.stats.failures == 0
        assert executor.stats.crash_log == []
