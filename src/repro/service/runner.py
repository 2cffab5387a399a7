"""Drain-aware, checkpoint-resuming request runner.

:func:`make_resumable_runner` builds the callable the service plugs into
``Executor(runner=...)``.  It simulates from the same
:func:`~repro.harness._runner.prepare_run` setup as
:func:`~repro.harness.executor.execute_request` — the store's
divergence cross-check enforces byte-identical statistics — but breaks
the work into resumable pieces under a per-request working directory
(keyed by the request's store key, so a simulator edit strands no stale
state):

* ``launch-<i>.done`` — sidecar written after each completed kernel
  launch: the pickled ``(SimStats, PolicyMemory)`` pair.  Pickle, not
  JSON: sidecars are crash insurance with the same non-portability
  contract as checkpoints, and the stats must be *exact* for the merged
  total to match an uninterrupted run.
* ``ckpt-<i>/`` — the in-flight launch's checkpoint directory, fed by
  the shared :class:`~repro.resilience.checkpoint.DrainController`.

On SIGTERM the controller makes the in-flight launch checkpoint itself
and raise :class:`~repro.resilience.checkpoint.DrainInterrupt`, which
the executor passes through untouched.  A restarted service re-runs the
request: completed launches reload from sidecars, the interrupted one
resumes from its checkpoint, the rest run fresh — recomputing only work
that was genuinely lost.  ``best_swl`` requests (a sweep of many short
runs) fall back to the plain one-shot path.
"""

from __future__ import annotations

import os
import pickle
import shutil
from pathlib import Path
from typing import Callable, Optional, Union

from ..cars.policy import PolicyMemory
from ..core.techniques import resolve_technique
from ..harness._runner import RunResult, prepare_run
from ..harness.executor import ExperimentRequest, execute_request
from ..metrics.counters import SimStats
from ..resilience.checkpoint import (
    DrainController,
    latest_checkpoint,
    resume_run,
)
from ..workloads.spec import Workload

__all__ = ["make_resumable_runner"]


def _write_sidecar(path: Path, stats: SimStats, memory) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = pickle.dumps((stats, memory), protocol=pickle.HIGHEST_PROTOCOL)
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def make_resumable_runner(
    base_dir: Union[str, Path],
    drain: DrainController,
    *,
    every_cycles: Optional[int] = None,
) -> Callable[[ExperimentRequest, Workload], RunResult]:
    """Runner with per-launch resume state under ``base_dir``.

    ``every_cycles`` additionally enables periodic (rolling) checkpoints
    while a launch is healthy; ``None`` checkpoints only on drain.
    """
    base = Path(base_dir)

    def run(request: ExperimentRequest, workload: Workload) -> RunResult:
        if request.technique == "best_swl":
            return execute_request(request, workload)
        prepared = prepare_run(
            workload, resolve_technique(request.technique), request.config
        )
        workdir = base / request.store_key(workload)
        memory = PolicyMemory()
        total = SimStats()
        for index, trace in enumerate(prepared.traces):
            sidecar = workdir / f"launch-{index:04d}.done"
            if sidecar.is_file():
                try:
                    with open(sidecar, "rb") as fh:
                        kernel_stats, saved_memory = pickle.load(fh)
                except Exception:
                    # Unreadable sidecar (stale build, torn write that
                    # somehow survived the rename): recompute the launch.
                    sidecar.unlink()
                else:
                    if saved_memory is not None:
                        memory = saved_memory
                    total.merge_kernel(kernel_stats)
                    continue
            ckpt_dir = workdir / f"ckpt-{index:04d}"
            policy = drain.policy_for(ckpt_dir, every_cycles=every_cycles)
            resumable = latest_checkpoint(ckpt_dir)
            if resumable is not None:
                gpu, _ = resume_run(resumable, checkpoint=policy)
                kernel_stats = gpu.stats
                ctx = gpu.ctx
            else:
                kernel_stats = SimStats()
                ctx = prepared.launch(trace, kernel_stats, memory, checkpoint=policy)
            # A resumed GPU carries an *unpickled copy* of the policy
            # memory; later launches must continue from that copy, not
            # the fresh one built above.
            resumed_memory = getattr(
                getattr(ctx, "policy", None), "memory", None
            )
            if resumed_memory is not None:
                memory = resumed_memory
            _write_sidecar(sidecar, kernel_stats, memory)
            shutil.rmtree(ckpt_dir, ignore_errors=True)
            total.merge_kernel(kernel_stats)

        shutil.rmtree(workdir, ignore_errors=True)
        return prepared.result(total)

    return run
