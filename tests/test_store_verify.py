"""Result-store fsck (``ResultStore.verify`` / ``repro cache verify``).

Every corruption class the fsck distinguishes, plus the crash-safety
regression the atomic save exists for: a process killed *during* save
must never publish a torn entry — only removable ``*.tmp`` debris.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.executor import (
    Executor,
    ExperimentRequest,
    ResultStore,
    STORE_SCHEMA_VERSION,
)
from repro.resilience.errors import (
    EXIT_STORE_CORRUPTION,
    InvariantViolation,
    StoreCorruptionError,
    exit_code_for,
)

WORKLOAD = "FIB"


@pytest.fixture(scope="module")
def fib_entry(tmp_path_factory):
    """One simulated FIB baseline entry: its key and its file's bytes."""
    store = ResultStore(str(tmp_path_factory.mktemp("fib") / "store"))
    executor = Executor(store=store)
    request = ExperimentRequest(WORKLOAD, "baseline")
    executor.run_many([request])
    key = executor.key_for(request)
    return key, store.path_for(key).read_bytes()


@pytest.fixture
def warm_store(tmp_path, fib_entry):
    """A store of its own holding a copy of the FIB entry, and its key."""
    key, blob = fib_entry
    store = ResultStore(str(tmp_path / "store"))
    store.root.mkdir(parents=True)
    store.path_for(key).write_bytes(blob)
    return store, key


class TestClassification:
    def test_clean_store_verifies_clean(self, warm_store):
        store, _ = warm_store
        report = store.verify(strict=True)  # strict: raising would fail
        assert report["ok"] == 1
        assert report["quarantined"] == []
        assert report["stale"] == 0

    def test_torn_json_is_quarantined(self, warm_store):
        store, key = warm_store
        path = store.path_for(key)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        report = store.verify()
        assert report["quarantined"] == [path.name]
        assert not path.exists()
        # Evidence preserved, not deleted.
        assert (store.quarantine_dir / path.name).exists()

    def test_missing_fields_are_quarantined(self, warm_store):
        store, key = warm_store
        path = store.path_for(key)
        payload = json.loads(path.read_text())
        del payload["result"]
        path.write_text(json.dumps(payload))
        assert store.verify()["quarantined"] == [path.name]

    def test_key_filename_mismatch_is_quarantined(self, warm_store):
        store, key = warm_store
        path = store.path_for(key)
        renamed = path.with_name("0" * len(key) + ".json")
        path.rename(renamed)
        assert store.verify()["quarantined"] == [renamed.name]

    def test_undecodable_result_block_is_quarantined(self, warm_store):
        store, key = warm_store
        path = store.path_for(key)
        payload = json.loads(path.read_text())
        payload["result"] = {"not": "a RunResult"}
        path.write_text(json.dumps(payload))
        assert store.verify()["quarantined"] == [path.name]

    def test_stale_schema_is_not_corruption(self, warm_store):
        store, key = warm_store
        path = store.path_for(key)
        payload = json.loads(path.read_text())
        payload["schema"] = STORE_SCHEMA_VERSION - 1
        path.write_text(json.dumps(payload))
        report = store.verify(strict=True)  # stale never raises
        assert report["stale"] == 1
        assert report["quarantined"] == []
        assert path.exists()

    def test_tmp_debris_is_removed(self, warm_store):
        store, key = warm_store
        debris = store.root / f"{key}.12345.tmp"
        debris.write_text("half an entry")
        report = store.verify()
        assert report["removed_tmp"] == 1
        assert not debris.exists()
        assert report["ok"] == 1

    def test_empty_root_verifies_clean(self, tmp_path):
        report = ResultStore(str(tmp_path / "nowhere")).verify(strict=True)
        assert report["checked"] == 0


class TestStrictMode:
    def test_strict_raises_typed_with_distinct_exit_code(self, warm_store):
        store, key = warm_store
        store.path_for(key).write_text("{garbage")
        with pytest.raises(StoreCorruptionError) as info:
            store.verify(strict=True)
        assert list(info.value.quarantined) == [f"{key}.json"]
        assert exit_code_for(info.value) == EXIT_STORE_CORRUPTION

    def test_second_pass_after_quarantine_is_clean(self, warm_store):
        store, key = warm_store
        store.path_for(key).write_text("{garbage")
        store.verify()
        assert store.verify(strict=True)["quarantined"] == []


class TestDivergenceGuard:
    def test_save_refuses_divergent_recomputation(self, warm_store):
        store, key = warm_store
        request = ExperimentRequest(WORKLOAD, "baseline")
        result = store.load(key)
        # Same key, same stats: a benign recomputation is accepted.
        store.save(key, request, result)
        result.stats.cycles += 1
        with pytest.raises(InvariantViolation, match="divergence"):
            store.save(key, request, result)
        assert store.load(key).stats.cycles == result.stats.cycles - 1


class TestCrashDuringSave:
    def test_kill_during_save_leaves_no_torn_entry(self, tmp_path):
        """Regression: die at the rename point of ``save`` — the store
        must contain either nothing or tmp debris, never a torn entry."""
        script = f"""
import os, sys
import repro.harness.executor as ex

real_replace = os.replace
def dying_replace(src, dst):
    if str(dst).endswith(".json"):
        os._exit(9)  # kill -9 equivalent: no cleanup, no atexit
    return real_replace(src, dst)

ex.os.replace = dying_replace
store = ex.ResultStore({str(tmp_path / "store")!r})
executor = ex.Executor(store=store)
executor.run_many([ex.ExperimentRequest({WORKLOAD!r}, "baseline")])
"""
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, cwd=str(repo_root), capture_output=True, text=True,
        )
        assert proc.returncode == 9, proc.stderr

        store = ResultStore(str(tmp_path / "store"))
        assert store.entries() == []  # nothing torn was published
        report = store.verify(strict=True)
        assert report["quarantined"] == []
        assert report["removed_tmp"] >= 1  # the interrupted save's debris

        # The same request now computes and stores cleanly.
        executor = Executor(store=store)
        request = ExperimentRequest(WORKLOAD, "baseline")
        result = executor.run_many([request])[request]
        assert result.cycles > 0
        assert store.verify(strict=True)["ok"] == 1
