"""Executor + result-store tests.

Covers the content-addressed cache behaviour the store guarantees: hit on
an identical rerun, miss after a ``GPUConfig`` field or workload module
change, schema-version invalidation, failure handling, and the
parallel-vs-serial byte-identical-results property.
"""

import dataclasses
import json
import sys
import threading

import pytest

from repro.config import volta
from repro.core.techniques import (
    BASELINE,
    CARS_HIGH,
    TECHNIQUE_REGISTRY,
    resolve_technique,
)
from repro.frontend import builder as b
from repro.harness.executor import (
    STORE_SCHEMA_VERSION,
    Executor,
    ExecutorError,
    ExperimentPlan,
    ExperimentRequest,
    ResultStore,
    simulator_digest,
    workload_digest,
)
from repro.harness._runner import RunResult, run_baseline
from repro.workloads import KernelLaunch, Workload


def _tiny_workload(name="tiny", leaf_bias=1, kernel="main"):
    prog = b.program()
    b.device(prog, "leaf", ["x"], [b.ret(b.v("x") * 2 + leaf_bias)],
             reg_pressure=4)
    b.kernel(prog, "main", ["out"], [
        b.let("i", b.gid()),
        b.store(b.v("out") + b.v("i"), b.call("leaf", b.v("i"))),
    ])
    return Workload(name=name, suite="t", program=prog,
                    launches=[KernelLaunch(kernel, 4, 64, (1 << 20,))])


#: Registry backing the module-level factory (module-level so the factory
#: pickles by reference into pool workers).
_FACTORY: dict = {}


def registry_factory(name):
    return _FACTORY[name]


def _executor(tmp_path, jobs=1, **kwargs):
    return Executor(
        jobs=jobs,
        store=ResultStore(str(tmp_path / "store")),
        workload_factory=registry_factory,
        **kwargs,
    )


@pytest.fixture(autouse=True)
def _fresh_registry():
    _FACTORY.clear()
    _FACTORY["tiny"] = _tiny_workload()
    yield
    _FACTORY.clear()


class TestRequests:
    def test_sweep_normalization(self):
        plain = ExperimentRequest("tiny", "baseline", volta(), (1, 2))
        assert plain.sweep == ()
        best = ExperimentRequest("tiny", "best_swl", volta())
        assert best.sweep == (1, 2, 3, 4, 8, 16)

    def test_dict_round_trip(self):
        req = ExperimentRequest("tiny", "best_swl", volta(), (1, 4))
        again = ExperimentRequest.from_dict(
            json.loads(json.dumps(req.to_dict())))
        assert again == req

    def test_equal_requests_hash_equal(self):
        assert (ExperimentRequest("tiny", "cars", volta())
                == ExperimentRequest("tiny", "cars", volta()))
        assert len({ExperimentRequest("tiny", "cars", volta()),
                    ExperimentRequest("tiny", "cars", volta())}) == 1

    def test_registry_resolution(self):
        for name in TECHNIQUE_REGISTRY:
            assert resolve_technique(name).name == name
        assert resolve_technique("swl_4").name == "swl_4"
        assert resolve_technique("cars_nxlow2").cars_mode == "nxlow2"
        with pytest.raises(KeyError):
            resolve_technique("nope")


class TestDigests:
    def test_workload_digest_stable(self):
        assert (workload_digest(_tiny_workload())
                == workload_digest(_tiny_workload()))

    def test_workload_digest_sees_program_change(self):
        assert (workload_digest(_tiny_workload())
                != workload_digest(_tiny_workload(leaf_bias=2)))

    def test_workload_digest_sees_launch_change(self):
        changed = _tiny_workload()
        changed.launches = [KernelLaunch("main", 8, 64, (1 << 20,))]
        assert workload_digest(_tiny_workload()) != workload_digest(changed)

    def test_simulator_digest_is_cached_and_stable(self):
        assert simulator_digest() == simulator_digest()
        assert len(simulator_digest()) == 64

    def test_config_fingerprint_covers_every_field(self):
        tweaked = dataclasses.replace(volta(), dram_latency=221)
        assert tweaked.name == volta().name  # same display name...
        assert tweaked.fingerprint() != volta().fingerprint()  # ...new key


class TestResultRoundTrip:
    def test_run_result_json_round_trip(self):
        result = run_baseline(_tiny_workload())
        again = RunResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert again.workload == result.workload
        assert again.technique == result.technique
        assert again.config == result.config
        assert again.stats.to_dict() == result.stats.to_dict()
        assert again.cycles == result.cycles

    def test_stats_round_trip_preserves_derived_metrics(self):
        stats = run_baseline(_tiny_workload()).stats
        again = type(stats).from_dict(stats.to_dict())
        assert again.mpki() == stats.mpki()
        assert again.access_breakdown() == stats.access_breakdown()
        assert (again.global_bandwidth_timeline()
                == stats.global_bandwidth_timeline())

    def test_stats_round_trip_preserves_cpi_stack(self):
        stats = run_baseline(_tiny_workload()).stats
        again = type(stats).from_dict(
            json.loads(json.dumps(stats.to_dict())))
        assert again.cpi_stack == stats.cpi_stack
        assert again.cpi_by_kernel == stats.cpi_by_kernel
        assert again.cpi_total() == again.cycles
        assert again.cpi_breakdown() == stats.cpi_breakdown()


class TestStore:
    def test_hit_on_identical_rerun(self, tmp_path):
        req = ExperimentRequest("tiny", "baseline", volta())
        first = _executor(tmp_path)
        cold = first.run_one(req)
        assert first.stats.executed == 1

        warm = _executor(tmp_path)  # fresh memo, same store
        hit = warm.run_one(req)
        assert warm.stats.executed == 0
        assert warm.stats.store_hits == 1
        assert hit.to_dict() == cold.to_dict()

    def test_memo_hit_within_executor(self, tmp_path):
        executor = _executor(tmp_path)
        req = ExperimentRequest("tiny", "baseline", volta())
        executor.run_many([req])
        executor.run_many([req])
        assert executor.stats.executed == 1
        assert executor.stats.memo_hits == 1

    def test_lookup_answers_from_memory_before_the_store(self, tmp_path):
        req = ExperimentRequest("tiny", "baseline", volta())
        cold = _executor(tmp_path).run_one(req)  # stored, not in this memo
        executor = _executor(tmp_path)
        key, stored, source = executor.lookup(req)
        assert (key, source) == (executor.key_for(req), "store")
        assert stored.to_dict() == cold.to_dict()
        assert executor.memo_size == 1  # a store hit is kept in memory
        executor.store.clear()  # memory answers without the store
        assert executor.lookup(req) == (key, stored, "memo")
        assert executor.stats.store_hits == 1
        assert executor.stats.memo_hits == 1
        # A miss answers None and simulates nothing.
        assert executor.lookup(ExperimentRequest("tiny", "cars")) is None
        assert executor.stats.executed == 0

    def test_lookup_without_build_never_calls_the_factory(self, tmp_path):
        req = ExperimentRequest("tiny", "baseline", volta())
        other = ExperimentRequest("tiny", "cars", volta())
        stored = _executor(tmp_path).run_many([req, other])
        built = []

        def factory(name):
            built.append(name)
            return registry_factory(name)

        executor = Executor(
            store=ResultStore(str(tmp_path / "store")), workload_factory=factory
        )
        # No workload built yet: no answer, and no factory call.
        assert executor.lookup(other, build=False) is None
        assert built == []
        executor.run_one(req)
        assert built == ["tiny"]
        key, result, source = executor.lookup(other, build=False)
        assert built == ["tiny"]  # keyed from the workload run_one built
        assert (key, source) == (executor.key_for(other), "store")
        assert result.to_dict() == stored[other].to_dict()
        assert executor.stats.store_hits == 2
        assert executor.lookup(other, build=False) == (key, result, "memo")
        missing = ExperimentRequest("tiny", "swl_2", volta())
        assert executor.lookup(missing, build=False) is None
        assert executor.stats.executed == 0

    def test_lookup_hits_count_exactly_across_threads(self, tmp_path):
        # A service looks results up on its event loop while its worker
        # thread is inside run_many; both count memo hits.
        executor = _executor(tmp_path)
        req = ExperimentRequest("tiny", "baseline", volta())
        executor.run_one(req)
        calls = 2000
        sources = set()

        def lookups():
            for _ in range(calls):
                sources.add(executor.lookup(req, build=False)[2])

        def runs():
            for _ in range(calls):
                executor.run_many([req])

        threads = [threading.Thread(target=f)
                   for f in (runs, lookups, lookups, lookups)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert executor.stats.memo_hits == len(threads) * calls
        assert sources == {"memo"}

    def test_miss_after_config_field_change(self, tmp_path):
        executor = _executor(tmp_path)
        executor.run_one(ExperimentRequest("tiny", "baseline", volta()))
        tweaked = dataclasses.replace(volta(), dram_latency=221)
        executor.run_one(ExperimentRequest("tiny", "baseline", tweaked))
        assert executor.stats.executed == 2
        assert executor.stats.store_hits == 0

    def test_miss_after_workload_module_change(self, tmp_path):
        req = ExperimentRequest("tiny", "baseline", volta())
        executor = _executor(tmp_path)
        executor.run_one(req)
        assert executor.stats.executed == 1

        _FACTORY["tiny"] = _tiny_workload(leaf_bias=2)  # "edited" workload
        edited = _executor(tmp_path)
        edited.run_one(req)
        assert edited.stats.executed == 1  # recomputed, not served stale
        assert edited.stats.store_hits == 0

    def test_schema_bump_invalidates(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        executor = Executor(store=store, workload_factory=registry_factory)
        req = ExperimentRequest("tiny", "baseline", volta())
        executor.run_one(req)
        path = store.entries()[0]
        payload = json.loads(path.read_text())
        payload["schema"] = STORE_SCHEMA_VERSION - 1
        path.write_text(json.dumps(payload))
        assert store.load(executor.key_for(req)) is None

    def test_v1_entry_without_cpi_fields_recomputes(self, tmp_path):
        """A pre-CPI-stack (schema v1) entry misses cleanly — the loader
        never reaches SimStats.from_dict (which would KeyError on the
        missing cpi_stack/cpi_by_kernel/warp_stalls fields) — and the
        request is re-simulated under the current schema."""
        store = ResultStore(str(tmp_path / "store"))
        executor = Executor(store=store, workload_factory=registry_factory)
        req = ExperimentRequest("tiny", "baseline", volta())
        executor.run_one(req)
        path = store.entries()[0]
        payload = json.loads(path.read_text())
        payload["schema"] = 1
        for name in ("cpi_stack", "cpi_by_kernel", "warp_stalls"):
            del payload["result"]["stats"][name]
        path.write_text(json.dumps(payload))

        fresh = Executor(store=store, workload_factory=registry_factory)
        result = fresh.run_one(req)
        assert fresh.stats.executed == 1
        assert fresh.stats.store_hits == 0
        assert result.stats.cpi_total() == result.stats.cycles

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.root.mkdir(parents=True)
        store.path_for("feed").write_text("{not json")
        assert store.load("feed") is None

    def test_info_and_clear(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        executor = Executor(store=store, workload_factory=registry_factory)
        executor.run_one(ExperimentRequest("tiny", "baseline", volta()))
        info = store.info()
        assert info["entries"] == 1 and info["bytes"] > 0
        assert info["schema"] == STORE_SCHEMA_VERSION
        assert store.clear() == 1
        assert store.info()["entries"] == 0


class TestExecution:
    def test_plan_dedups_requests(self, tmp_path):
        executor = _executor(tmp_path)
        plan = ExperimentPlan(executor)
        plan.add("tiny", BASELINE)
        plan.add("tiny", "baseline")
        plan.add("tiny", CARS_HIGH)
        assert len(plan) == 2
        results = plan.execute()
        assert executor.stats.executed == 2
        assert {r.technique for r in results.values()} == {
            "baseline", "cars_high"}

    def test_failure_raises_after_retries(self, tmp_path):
        _FACTORY["tiny"] = _tiny_workload(kernel="missing")  # traces explode
        executor = _executor(tmp_path)
        with pytest.raises(ExecutorError):
            executor.run_one(ExperimentRequest("tiny", "baseline", volta()))
        # One attempt: retrying is the service scheduler's policy.
        assert executor.stats.failures == 1
        assert executor.stats.retries == 0
        assert len(executor.stats.crash_log) == 1

    @pytest.mark.parametrize("removed", [
        "timeout", "retries", "backoff_base", "breaker_threshold",
    ])
    def test_executor_takes_no_retry_policy(self, tmp_path, removed):
        # Retries, backoff and the breaker are the service scheduler's.
        with pytest.raises(TypeError):
            _executor(tmp_path, **{removed: 1})

    def test_progress_callback_sees_every_request(self, tmp_path):
        events = []
        executor = _executor(
            tmp_path,
            progress=lambda done, total, req, source:
                events.append((done, total, req.technique, source)),
        )
        req = ExperimentRequest("tiny", "baseline", volta())
        executor.run_many([req])
        executor.run_many([req])
        assert events == [(1, 1, "baseline", "run"),
                          (1, 1, "baseline", "memo")]

    def test_parallel_and_serial_store_identical_bytes(self, tmp_path):
        reqs = [ExperimentRequest("tiny", "baseline", volta()),
                ExperimentRequest("tiny", "cars_high", volta())]

        serial = _executor(tmp_path / "serial")
        serial_results = serial.run_many(reqs)
        parallel = _executor(tmp_path / "parallel", jobs=2)
        parallel_results = parallel.run_many(reqs)

        assert serial.stats.executed == parallel.stats.executed == 2
        for req in reqs:
            assert (serial_results[req].to_dict()
                    == parallel_results[req].to_dict())
            key = serial.key_for(req)
            assert parallel.key_for(req) == key
            assert (serial.store.path_for(key).read_bytes()
                    == parallel.store.path_for(key).read_bytes())
