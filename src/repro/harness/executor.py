"""Parallel experiment executor and content-addressed result store.

The paper's evaluation is an embarrassingly parallel grid — 22 workloads
x {baseline, CARS, Best-SWL sweep, idealized configs} replayed across 18
figures and 3 tables.  This module supplies the engine behind it:

* :class:`ExperimentRequest` — one declarative (workload, technique,
  config) cell, picklable and hashable, so the same request appearing in
  many figures deduplicates to one simulation.
* :class:`ExperimentPlan` — an ordered, deduplicated batch of requests;
  every ``fig*``/``table*`` function builds one and calls
  :meth:`ExperimentPlan.execute` instead of simulating inline.
* :class:`Executor` — runs a plan through an in-memory memo, then the
  on-disk store, then one attempt per request: on a process pool
  (``jobs`` workers), or in-process (``jobs=1``, the deterministic
  reference).  It has no retry policy; the service scheduler owns one.
* :class:`ResultStore` — a schema-versioned JSON store addressed by
  content: the key hashes the simulator source digest, the workload's
  compiled module, the technique name, and the full
  :meth:`~repro.config.gpu_config.GPUConfig.fingerprint`.  Editing the
  simulator, a workload, or any config knob changes the key, so stale
  results *miss* instead of being served silently — the store never
  needs manual clearing for correctness.

Results cross the store and the process boundary as plain JSON
(:meth:`RunResult.to_dict`), never as pickled class layouts, so the
serial and parallel paths produce byte-identical store entries.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from functools import lru_cache
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..config.gpu_config import GPUConfig
from ..config import volta
from ..core.techniques import resolve_technique
from ..resilience.checkpoint import DrainInterrupt
from ..resilience.errors import (
    InvariantViolation,
    SimulationError,
    StoreCorruptionError,
    WorkerCrashError,
)
from ..workloads import make_workload
from ..workloads.spec import Workload
from ._runner import RunResult, SWL_SWEEP, run_best_swl, run_workload

#: Bump whenever the stored JSON layout changes; old entries then miss.
#: v2: SimStats grew the CPI-stack fields (cpi_stack, cpi_by_kernel,
#: warp_stalls) — v1 entries lack them and would crash from_dict.
#: v3: SimStats grew peak_stack_depth and RunResult grew the interproc
#: static-feature block.
#: v4: SimStats grew the plugin-ABI spill/fill and register-file-cache
#: counters (smem_spill_regs .. rfcache_evictions).
STORE_SCHEMA_VERSION = 4

#: Files under ``repro/`` whose edits cannot change simulation results and
#: therefore stay out of the simulator digest (everything else is hashed).
_DIGEST_EXEMPT_TOP = ("cli.py", "__main__.py")
_DIGEST_EXEMPT_HARNESS = ("__init__.py", "executor.py", "experiments.py",
                          "_regenerate.py", "tables.py")
#: Whole packages that only orchestrate (which cells to run, in what
#: order) and can never change what a single simulation computes.
#: ``service`` qualifies because checkpoint/resume is byte-identical by
#: contract — a drained-and-resumed run stores the same statistics an
#: uninterrupted one would.
_DIGEST_EXEMPT_PACKAGES = ("dse", "service")


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class ExecutorError(WorkerCrashError):
    """A request's attempt failed, or the service's breaker refused it.

    ``worker_traceback`` carries the failing attempt's formatted
    traceback — remote (pool-worker) tracebacks included — and every
    failed attempt's traceback lands in ``ExecutorStats.crash_log``.

    ``transient`` tells a caller with a retry policy (the service
    scheduler) whether another attempt could plausibly succeed: ``True``
    for environmental failures (worker death, pickling, OS errors), and
    ``False`` when the underlying cause is a deterministic
    :class:`SimulationError` or the scheduler's breaker quarantined the
    request — replaying those can only fail again, identically.
    """

    def __init__(
        self,
        message: str = "",
        *,
        worker_traceback: Optional[str] = None,
        transient: bool = True,
        diagnostics=None,
    ) -> None:
        super().__init__(
            message, worker_traceback=worker_traceback, diagnostics=diagnostics
        )
        self.transient = transient


def _remote_traceback(exc: BaseException) -> str:
    """Formatted traceback for *exc*, preferring the pool's remote one.

    ``concurrent.futures`` re-raises worker exceptions with the worker's
    formatted traceback chained as a ``_RemoteTraceback`` cause; that is
    the one that names the failing simulator frame, so prefer it over the
    local re-raise site.
    """
    cause = exc.__cause__
    if cause is not None and type(cause).__name__ == "_RemoteTraceback":
        return str(cause)
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def simulator_digest() -> str:
    """Digest of every simulator-relevant source file in the package.

    Any edit to the ISA, emulator, timing model, CARS mechanism, configs,
    metrics, workload definitions, or the runner changes this digest and
    thereby every store key — the "cache must be cleared manually after
    changing simulator code" failure mode of the old pickle cache is gone.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if len(rel.parts) == 1 and rel.name in _DIGEST_EXEMPT_TOP:
            continue
        if rel.parts[0] == "harness" and rel.name in _DIGEST_EXEMPT_HARNESS:
            continue
        if rel.parts[0] in _DIGEST_EXEMPT_PACKAGES:
            continue
        digest.update(str(rel).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def workload_digest(workload: Workload, inlined: bool = False) -> str:
    """Digest of the compiled module a run replays, plus its launch schedule.

    Hashes the module's :meth:`~repro.isa.program.Module.content_digest`
    (every function's instruction listing and register metadata, for the
    baseline or LTO-inlined binary, whichever *inlined* selects) together
    with the kernel-launch schedule.  The module digest is the same key
    the lint and interprocedural-analysis registries use.
    """
    module = workload.module(inlined)
    outer = hashlib.sha256(module.content_digest().encode())
    for launch in workload.launches:
        outer.update(repr(launch).encode())
    outer.update(str(workload.max_warp_instructions).encode())
    return outer.hexdigest()


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentRequest:
    """One cell of the evaluation grid, addressed by content.

    ``technique`` is a *name* (``"cars"``, ``"swl_4"``, ``"best_swl"``, …)
    rather than a :class:`Technique` object so requests can cross process
    boundaries; workers resolve names via
    :func:`repro.core.techniques.resolve_technique`.  ``sweep`` applies
    only to ``best_swl`` and is normalized to ``()`` otherwise so equal
    cells hash equally across figures.
    """

    workload: str
    technique: str
    config: GPUConfig = field(default_factory=volta)
    sweep: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.technique == "best_swl":
            if not self.sweep:
                object.__setattr__(self, "sweep", tuple(SWL_SWEEP))
        elif self.sweep:
            object.__setattr__(self, "sweep", ())

    @property
    def uses_inlined(self) -> bool:
        if self.technique == "best_swl":
            return False
        return resolve_technique(self.technique).use_inlined

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "technique": self.technique,
            "config": self.config.to_dict(),
            "sweep": list(self.sweep),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentRequest":
        # Journals and request bodies written while the simulator had a
        # second timing backend carry a request-level "backend" key; both
        # backends gave byte-identical stats, so it is ignored here.
        return cls(
            workload=data["workload"],
            technique=data["technique"],
            config=GPUConfig.from_dict(data["config"]),
            sweep=tuple(data["sweep"]),
        )

    def store_key(self, workload: Workload) -> str:
        material = {
            "schema": STORE_SCHEMA_VERSION,
            "simulator": simulator_digest(),
            "workload": self.workload,
            "module": workload_digest(workload, self.uses_inlined),
            "technique": self.technique,
            "config": self.config.fingerprint(),
            "sweep": list(self.sweep),
        }
        return hashlib.sha256(_canonical_json(material).encode()).hexdigest()


def execute_request(request: ExperimentRequest, workload: Workload) -> RunResult:
    """Simulate one request (used by both the serial path and workers)."""
    if request.technique == "best_swl":
        return run_best_swl(workload, config=request.config, sweep=request.sweep)
    technique = resolve_technique(request.technique)
    return run_workload(workload, technique, config=request.config)


def _pool_worker(payload: Tuple[Callable[[str], Workload], Dict[str, Any]]):
    """Top-level pool entry point: returns the result as plain JSON data."""
    factory, request_data = payload
    request = ExperimentRequest.from_dict(request_data)
    return execute_request(request, factory(request.workload)).to_dict()


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------


def default_store_root() -> str:
    """``REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-cars``."""
    env = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = xdg if xdg else os.path.expanduser(os.path.join("~", ".cache"))
    return os.path.join(base, "repro-cars")


class ResultStore:
    """Content-addressed, schema-versioned JSON result store.

    One file per key; writes are atomic (temp file + rename) so parallel
    workers and concurrent invocations never observe torn entries.
    Entries with a different schema version are treated as misses.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = Path(root if root is not None else default_store_root())

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[RunResult]:
        try:
            text = self.path_for(key).read_text()
        except OSError:
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            return None
        if payload.get("schema") != STORE_SCHEMA_VERSION:
            return None
        return RunResult.from_dict(payload["result"])

    def save(self, key: str, request: ExperimentRequest, result: RunResult) -> Path:
        # The simulator is deterministic, so a recompute of an existing
        # key (a racing worker, a resumed run) must land on identical
        # statistics.  A mismatch means nondeterminism crept in — a
        # correctness bug, never something to silently overwrite.
        existing = self.load(key)
        if (
            existing is not None
            and existing.stats.to_dict() != result.stats.to_dict()
        ):
            raise InvariantViolation(
                f"result store divergence for {request.workload}/"
                f"{request.technique} (key {key[:12]}…): a recomputation "
                f"produced different statistics than the stored entry; "
                f"the simulator must be deterministic"
            )
        payload = {
            "schema": STORE_SCHEMA_VERSION,
            "key": key,
            "workload": request.workload,
            "technique": request.technique,
            "config_name": request.config.name,
            "result": result.to_dict(),
        }
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        tmp = path.with_name(f"{key}.{os.getpid()}.tmp")
        # flush + fsync before the rename: rename-only guarantees the
        # *name* is atomic, not that the bytes hit disk — a power cut
        # between write and sync could publish a truncated entry.
        with open(tmp, "w") as fh:
            fh.write(_canonical_json(payload) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return path

    def entries(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.json"))

    def info(self) -> Dict[str, Any]:
        paths = self.entries()
        return {
            "root": str(self.root),
            "schema": STORE_SCHEMA_VERSION,
            "entries": len(paths),
            "bytes": sum(p.stat().st_size for p in paths),
        }

    def clear(self) -> int:
        removed = 0
        for path in self.entries():
            path.unlink()
            removed += 1
        return removed

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def verify(self, *, strict: bool = False) -> Dict[str, Any]:
        """Fsck the store: quarantine torn/corrupt entries, report the rest.

        Each entry must parse as JSON, carry the ``schema``/``key``/
        ``result`` fields :meth:`save` writes, name itself consistently
        (filename stem == embedded key), and decode back into a
        :class:`RunResult`.  Entries failing any of those are moved to
        ``quarantine/`` (kept, not deleted — they are evidence).  Entries
        from an older schema version are *stale*, not corrupt: they were
        written correctly and simply miss, exactly as :meth:`load` treats
        them.  Leftover ``*.tmp`` files from interrupted saves are debris
        by construction (a completed save renames them away) and are
        removed.

        With ``strict=True`` a non-empty quarantine raises
        :class:`StoreCorruptionError` (after quarantining), which the CLI
        maps to a distinct non-zero exit code.
        """
        ok = stale = 0
        quarantined: List[str] = []
        removed_tmp = 0
        if self.root.is_dir():
            for debris in sorted(self.root.glob("*.tmp")):
                try:
                    debris.unlink()
                    removed_tmp += 1
                except OSError:
                    pass
        for path in self.entries():
            reason = self._entry_fault(path)
            if reason is None:
                ok += 1
            elif reason == "stale":
                stale += 1
            else:
                self.quarantine_dir.mkdir(parents=True, exist_ok=True)
                os.replace(path, self.quarantine_dir / path.name)
                quarantined.append(path.name)
        report = {
            "root": str(self.root),
            "checked": ok + stale + len(quarantined),
            "ok": ok,
            "stale": stale,
            "removed_tmp": removed_tmp,
            "quarantined": quarantined,
        }
        if strict and quarantined:
            raise StoreCorruptionError(
                f"{len(quarantined)} corrupt store entr"
                f"{'y' if len(quarantined) == 1 else 'ies'} moved to "
                f"{self.quarantine_dir}",
                quarantined=quarantined,
            )
        return report

    def _entry_fault(self, path: Path) -> Optional[str]:
        """Why *path* is not a healthy entry: None, ``"stale"``, or a
        corruption reason."""
        try:
            payload = json.loads(path.read_text())
        except OSError:
            return None  # vanished under us (concurrent clear); not corrupt
        except ValueError:
            return "undecodable JSON (torn or truncated write)"
        if not isinstance(payload, dict):
            return "payload is not an object"
        for field_name in ("schema", "key", "workload", "technique", "result"):
            if field_name not in payload:
                return f"missing field {field_name!r}"
        if payload["schema"] != STORE_SCHEMA_VERSION:
            return "stale"
        if payload["key"] != path.stem:
            return "embedded key does not match filename"
        try:
            RunResult.from_dict(payload["result"])
        except Exception:
            return "result block does not decode"
        return None


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


@dataclass
class ExecutorStats:
    """Counters for one executor's lifetime (the warm-cache proof reads
    ``executed``: a fully warm sweep simulates zero runs; ``retries``
    counts failed pool attempts replayed in-process)."""

    executed: int = 0
    memo_hits: int = 0
    store_hits: int = 0
    retries: int = 0
    failures: int = 0
    pool_breaks: int = 0
    #: One entry per failed attempt: workload/technique/stage plus the
    #: formatted traceback (remote tracebacks preserved from workers).
    crash_log: List[Dict[str, str]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            data[f.name] = list(value) if isinstance(value, list) else value
        return data

    def reset(self) -> None:
        for f in fields(self):
            current = getattr(self, f.name)
            setattr(self, f.name, [] if isinstance(current, list) else 0)

    def summary(self) -> str:
        text = (
            f"simulated {self.executed} runs, {self.store_hits} store hits, "
            f"{self.memo_hits} memo hits, {self.retries} retries"
        )
        if self.pool_breaks:
            text += f", {self.pool_breaks} pool breaks"
        return text


#: Progress callback: (done, total, request, source) with source one of
#: "memo" | "store" | "run".
ProgressFn = Callable[[int, int, ExperimentRequest, str], None]


class Executor:
    """Executes experiment requests with memoization, the result store,
    and an optional process pool.

    Each request that misses both caches gets one attempt; a failure
    raises :class:`ExecutorError`.  Retries, backoff and the breaker are
    the service scheduler's (:mod:`repro.service.scheduler`).

    Args:
        jobs: worker processes; ``1`` runs serially in-process (the
            deterministic reference path — both paths store identical
            bytes).
        store: the :class:`ResultStore` (default: the shared on-disk one).
        progress: optional callback invoked as each request resolves.
        workload_factory: name -> :class:`Workload` resolver; must be a
            picklable module-level callable when ``jobs > 1``.
        runner: the callable the *in-process* path uses to simulate one
            request, ``(request, workload) -> RunResult`` (default
            :func:`execute_request`).  The service layer swaps in a
            drain-aware, checkpoint-resuming runner here; pool workers
            always use the plain :func:`execute_request` since a runner
            closure cannot cross the process boundary.

    A :class:`~repro.resilience.checkpoint.DrainInterrupt` raised by the
    runner is *not* a failure: it propagates untouched — no crash-log
    entry, no failure count — because it means the run was deliberately
    checkpointed for a graceful shutdown.

    Degradation: a pool attempt that fails environmentally (pickling, an
    OS error) is replayed once in-process, and a broken process pool (a
    worker killed by the OS takes the whole ``ProcessPoolExecutor``
    down) fails its in-flight requests over to the in-process path and
    pins the executor serial from then on — a crashing environment
    degrades to slow, not to lost sweeps.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        store: Optional[ResultStore] = None,
        progress: Optional[ProgressFn] = None,
        workload_factory: Callable[[str], Workload] = make_workload,
        runner: Callable[[ExperimentRequest, Workload], RunResult] = (
            execute_request
        ),
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.store = store if store is not None else ResultStore()
        self.progress = progress
        self.workload_factory = workload_factory
        self.runner = runner
        self.stats = ExecutorStats()
        self._memo: Dict[ExperimentRequest, RunResult] = {}
        self._keys: Dict[ExperimentRequest, str] = {}
        #: The workload key_for last obtained per name: lookup(build=False)
        #: keys requests from these and never calls the factory itself.
        self._workloads: Dict[str, Workload] = {}
        # lookup counts hits from run_many's thread and from others.
        self._hits_lock = threading.Lock()
        self._pool_broken = False

    # -- cache plumbing -------------------------------------------------

    def clear_memo(self) -> None:
        """Drop in-memory results (the on-disk store is untouched)."""
        self._memo.clear()
        self._keys.clear()

    @property
    def memo_size(self) -> int:
        return len(self._memo)

    def key_for(self, request: ExperimentRequest) -> str:
        key = self._keys.get(request)
        if key is None:
            workload = self.workload_factory(request.workload)
            self._workloads[request.workload] = workload
            key = request.store_key(workload)
            self._keys[request] = key
        return key

    def lookup(
        self, request: ExperimentRequest, *, build: bool = True
    ) -> Optional[Tuple[str, RunResult, str]]:
        """*request*'s ``(key, result, source)`` from memory (source
        ``"memo"``) or the store (``"store"``), or ``None``.

        It never simulates, counts the hit, and keeps a store hit in
        memory; it is safe while another thread is inside
        :meth:`run_many`.  With ``build=True`` it keys through
        :meth:`key_for`, which may call the workload factory.  With
        ``build=False`` it keys only from a workload this executor has
        already built, so a request whose workload it has not built
        answers ``None``.  A failing factory or store answers ``None``
        too: :meth:`run_many`'s attempt meets the failure again and
        raises it typed.
        """
        key = self._keys.get(request)
        result = self._memo.get(request)
        source = "memo"
        if key is None or result is None:
            source = "store"
            try:
                if build:
                    key = self.key_for(request)
                elif key is None:
                    workload = self._workloads.get(request.workload)
                    if workload is None:
                        return None
                    key = request.store_key(workload)
                    self._keys[request] = key
                result = self.store.load(key)
            except Exception:
                return None
            if result is None:
                return None
            self._memo[request] = result
        with self._hits_lock:
            if source == "memo":
                self.stats.memo_hits += 1
            else:
                self.stats.store_hits += 1
        return key, result, source

    # -- execution ------------------------------------------------------

    def run_one(self, request: ExperimentRequest) -> RunResult:
        return self.run_many([request])[request]

    def run_many(
        self, requests: Iterable[ExperimentRequest]
    ) -> Dict[ExperimentRequest, RunResult]:
        ordered: List[ExperimentRequest] = []
        seen = set()
        for request in requests:
            if request not in seen:
                seen.add(request)
                ordered.append(request)

        results: Dict[ExperimentRequest, RunResult] = {}
        pending: List[ExperimentRequest] = []
        total = len(ordered)
        self._done = 0
        for request in ordered:
            found = self.lookup(request)
            if found is None:
                pending.append(request)
                continue
            _, results[request], source = found
            self._notify(total, request, source)

        if pending:
            if self.jobs > 1 and len(pending) > 1 and not self._pool_broken:
                self._run_pool(pending, results, total)
            else:
                for request in pending:
                    results[request] = self._run_local(request, total)
        return results

    # -- internals ------------------------------------------------------

    def _notify(self, total: int, request: ExperimentRequest, source: str) -> None:
        self._done += 1
        if self.progress is not None:
            self.progress(self._done, total, request, source)

    def _commit(
        self, request: ExperimentRequest, result: RunResult, total: int
    ) -> RunResult:
        # Round-trip through the JSON form so serial and pooled execution
        # hand figures bit-identical objects (workers already return JSON).
        result = RunResult.from_dict(result.to_dict())
        self.store.save(self.key_for(request), request, result)
        self._memo[request] = result
        self.stats.executed += 1
        self._notify(total, request, "run")
        return result

    def _record_crash(
        self,
        request: ExperimentRequest,
        stage: str,
        exc: BaseException,
        tb: Optional[str],
    ) -> None:
        self.stats.crash_log.append({
            "workload": request.workload,
            "technique": request.technique,
            "stage": stage,
            "error": repr(exc),
            "traceback": tb or "",
        })

    def _run_local(self, request: ExperimentRequest, total: int) -> RunResult:
        """One in-process attempt at *request*."""
        try:
            result = self.runner(
                request, self.workload_factory(request.workload)
            )
        except DrainInterrupt:
            # Deliberate checkpoint-and-stop, not a failure; the service
            # resumes this run after restart.
            raise
        except Exception as exc:
            tb = traceback.format_exc()
            self._record_crash(request, "local", exc, tb)
            self.stats.failures += 1
            raise ExecutorError(
                f"{request.workload}/{request.technique} failed: {exc!r}",
                worker_traceback=tb,
                # The model itself failed (deadlock, budget, invariant):
                # deterministic, so a replay cannot go differently.
                transient=not isinstance(exc, SimulationError),
            ) from exc
        return self._commit(request, result, total)

    def _run_pool(
        self,
        pending: Sequence[ExperimentRequest],
        results: Dict[ExperimentRequest, RunResult],
        total: int,
    ) -> None:
        workers = min(self.jobs, len(pending))
        pool = ProcessPoolExecutor(max_workers=workers)
        futures: List[Tuple[ExperimentRequest, Any]] = []
        # (request, replay): what runs once in-process afterwards.
        # replay is True for a failed pool attempt (counted as a retry),
        # False for a request the broken pool lost before it ran.
        fallback: List[Tuple[ExperimentRequest, bool]] = []
        try:
            try:
                for request in pending:
                    futures.append((request, pool.submit(
                        _pool_worker,
                        (self.workload_factory, request.to_dict()),
                    )))
            except BrokenProcessPool:
                # Broke mid-submission; the already-submitted futures
                # raise the same error below and record it once there.
                pass
            for index, (request, future) in enumerate(futures):
                try:
                    data = future.result()
                except BrokenProcessPool as exc:
                    # A worker died hard (signal/OOM): the pool is gone,
                    # and so is every in-flight future.  Degrade to the
                    # serial path for the rest of this executor's life.
                    self.stats.pool_breaks += 1
                    self._pool_broken = True
                    self._record_crash(
                        request, "pool", exc, _remote_traceback(exc)
                    )
                    fallback.extend((r, False) for r, _ in futures[index:])
                    break
                except SimulationError as exc:
                    # A typed simulator failure is deterministic; re-running
                    # it in-process would only fail again, slower.
                    tb = _remote_traceback(exc)
                    self._record_crash(request, "pool", exc, tb)
                    self.stats.failures += 1
                    raise ExecutorError(
                        f"{request.workload}/{request.technique} failed in "
                        f"a worker: {exc}",
                        worker_traceback=tb,
                        transient=False,
                    ) from exc
                except Exception as exc:
                    # Environmental failure (pickling, transient OS error):
                    # worth one in-process replay.
                    tb = _remote_traceback(exc)
                    self._record_crash(request, "pool", exc, tb)
                    fallback.append((request, True))
                else:
                    results[request] = self._commit(
                        request, RunResult.from_dict(data), total
                    )
        finally:
            pool.shutdown(cancel_futures=True)
        if len(futures) < len(pending):
            # The pool broke before everything was even submitted.
            if not self._pool_broken:
                self.stats.pool_breaks += 1
                self._pool_broken = True
            submitted = {request for request, _ in futures}
            fallback.extend(
                (r, False) for r in pending if r not in submitted
            )
        for request, replay in fallback:
            if replay:
                self.stats.retries += 1
            results[request] = self._run_local(request, total)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanProgress:
    """Where a plan stands against the caches, without simulating.

    ``memo`` cells resolve from this executor's in-memory memo, ``stored``
    from the on-disk result store; ``pending`` is what :meth:`execute`
    would actually have to simulate.  Probing is pure reads — the memo,
    the store, and the counters are all untouched.
    """

    total: int
    memo: int
    stored: int

    @property
    def pending(self) -> int:
        return self.total - self.memo - self.stored

    @property
    def complete(self) -> bool:
        return self.pending == 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "total": self.total,
            "memo": self.memo,
            "stored": self.stored,
            "pending": self.pending,
        }


class ExperimentPlan:
    """An ordered, deduplicated batch of requests bound to an executor.

    Figure functions declare *what* they need here; the executor decides
    how to satisfy it (memo, store, pool).  A plan is resumable mid-sweep:
    every completed request is persisted individually, so re-running an
    interrupted plan only simulates the remainder (:meth:`progress`
    reports the split without triggering any simulation).

    Beyond the imperative :meth:`add` / :meth:`add_best_swl` path, a plan
    can be compiled from a declarative :class:`repro.dse.Space` via
    :meth:`from_space` / :meth:`add_space` — anything exposing
    ``compile_requests() -> Iterable[ExperimentRequest]`` qualifies, so
    the executor layer stays import-free of the DSL.
    """

    def __init__(self, executor: Executor) -> None:
        self.executor = executor
        self._requests: List[ExperimentRequest] = []
        self._seen: set = set()

    @classmethod
    def from_space(cls, *, space: Any, executor: Executor) -> "ExperimentPlan":
        """Compile *space* into a fresh plan bound to *executor*.

        Keyword-only by contract: this is the stable constructor path the
        DSL (and :func:`repro.api.explore`) builds on.
        """
        plan = cls(executor)
        plan.add_space(space)
        return plan

    def add_space(self, space: Any) -> List[ExperimentRequest]:
        """Queue every cell *space* compiles to; returns them in order.

        Cells already queued (by a previous space, or imperatively)
        deduplicate exactly like repeated :meth:`add` calls, so
        overlapping spaces share simulations.
        """
        return [self.add_request(r) for r in space.compile_requests()]

    def add_request(self, request: ExperimentRequest) -> ExperimentRequest:
        if request not in self._seen:
            self._seen.add(request)
            self._requests.append(request)
        return request

    def add(
        self,
        workload: str,
        technique,
        *,
        config: Optional[GPUConfig] = None,
    ) -> ExperimentRequest:
        """Queue one (workload, technique[, config]) cell.

        ``technique`` may be a :class:`Technique` or its name.
        """
        name = technique if isinstance(technique, str) else technique.name
        return self.add_request(ExperimentRequest(
            workload, name, config if config is not None else volta()
        ))

    def add_best_swl(
        self,
        workload: str,
        *,
        config: Optional[GPUConfig] = None,
        sweep: Sequence[int] = SWL_SWEEP,
    ) -> ExperimentRequest:
        return self.add_request(ExperimentRequest(
            workload, "best_swl",
            config if config is not None else volta(), tuple(sweep),
        ))

    @property
    def requests(self) -> List[ExperimentRequest]:
        return list(self._requests)

    def __len__(self) -> int:
        return len(self._requests)

    def progress(self) -> PlanProgress:
        """Split the plan's cells into memo / stored / pending.

        Pure probe: nothing is simulated and no executor counter moves,
        so it is safe to call before :meth:`execute` (resume reporting)
        or after a kill to see how much of a grid survived.
        """
        memo = stored = 0
        executor = self.executor
        for request in self._requests:
            if request in executor._memo:
                memo += 1
                continue
            try:
                if executor.store.load(executor.key_for(request)) is not None:
                    stored += 1
            except Exception:
                pass  # unloadable entries count as pending, like run_many
        return PlanProgress(total=len(self._requests), memo=memo,
                            stored=stored)

    def execute(self) -> Dict[ExperimentRequest, RunResult]:
        return self.executor.run_many(self._requests)
