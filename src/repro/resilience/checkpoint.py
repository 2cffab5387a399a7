"""Checkpoint/resume for long simulations.

A checkpoint freezes one kernel launch mid-run — the whole object graph
(GPU, SMs, warps, CARS register stacks, memory hierarchy, accumulated
``SimStats``) plus the loop state the accounting needs (current cycle,
issue-cycle count, idle-bucket attribution) — at an idle-stretch boundary
of the event loop, where no half-applied cycle exists.

File format (schema-versioned, see ``docs/architecture.md`` §11):

* line 1 — magic: ``repro-checkpoint``
* line 2 — JSON metadata: ``schema``, ``cycle``, ``kernel``,
  ``blocks_remaining`` (readable without unpickling via
  :func:`read_meta`)
* rest — the pickled payload dict (``gpu``, ``trace``, ``cycle``,
  ``issued_cycles``, ``idle_buckets``)

Determinism: resuming replays the identical event sequence, so a resumed
run's final :class:`~repro.metrics.counters.SimStats` is byte-identical
to the uninterrupted run's (pinned by ``tests/test_resilience_checkpoint``).
Checkpoints are *not* portable across simulator source changes — like the
result store, treat them as crash insurance, not archival data.

Observability sessions (tracers hold open ring buffers and per-warp
caches keyed into live objects) are not checkpointable; ``GPU.run``
rejects ``checkpoint=`` together with an ``ObsSession``.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .errors import SimulationError

#: Bump on any layout change to the payload or metadata line; mismatched
#: checkpoints refuse to load instead of resuming corrupt state.
CHECKPOINT_SCHEMA_VERSION = 1

_MAGIC = b"repro-checkpoint\n"


class CheckpointError(SimulationError):
    """A checkpoint could not be written, read, or validated."""


class CheckpointPolicy:
    """When and where ``GPU._run_loop`` writes checkpoints.

    Args:
        directory: target directory (created on first save).
        every_cycles: minimum simulated cycles between saves.  Saves land
            on idle-stretch boundaries, so the actual spacing is "the
            first idle boundary at or after the due cycle".
        keep: newest checkpoints retained; older ones are pruned.
        prefix: filename prefix (``<prefix>-<cycle>.ckpt``).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        every_cycles: int = 1_000_000,
        *,
        keep: int = 3,
        prefix: str = "ckpt",
    ) -> None:
        if every_cycles <= 0:
            raise ValueError("every_cycles must be positive")
        if keep < 1:
            raise ValueError("keep must be at least 1")
        self.directory = Path(directory)
        self.every_cycles = every_cycles
        self.keep = keep
        self.prefix = prefix
        self.next_due = every_cycles
        self.saved: List[Path] = []

    def save(
        self,
        gpu,
        trace,
        cycle: int,
        issued_cycles: int,
        idle_buckets: Dict[str, int],
    ) -> Path:
        """Write one checkpoint; prunes beyond ``keep``; returns the path."""
        if gpu.obs is not None:
            raise CheckpointError(
                "cannot checkpoint a run with an active ObsSession "
                "(tracer state is not serializable); run without obs= "
                "or without checkpoint="
            )
        self.next_due = cycle + self.every_cycles
        meta = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "cycle": cycle,
            "kernel": trace.kernel,
            "blocks_remaining": gpu._blocks_remaining,
        }
        payload = {
            "gpu": gpu,
            "trace": trace,
            "cycle": cycle,
            "issued_cycles": issued_cycles,
            "idle_buckets": dict(idle_buckets),
        }
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(
                f"simulation state is not serializable: {exc}"
            ) from exc
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"{self.prefix}-{cycle:012d}.ckpt"
        tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(json.dumps(meta, sort_keys=True).encode() + b"\n")
            fh.write(blob)
        os.replace(tmp, path)
        self.saved.append(path)
        while len(self.saved) > self.keep:
            stale = self.saved.pop(0)
            try:
                stale.unlink()
            except OSError:
                pass
        return path


class DrainInterrupt(SimulationError):
    """A run was checkpointed and stopped on purpose (graceful drain).

    Raised by a :class:`DrainController` policy right *after* the
    checkpoint hit disk, at an idle-stretch boundary where no
    half-applied cycle exists — so the caller (the service's SIGTERM
    handler, typically) can exit immediately and a restart resumes from
    the saved state with byte-identical final statistics.  This is a
    cooperative shutdown signal, not a failure: the executor's retry
    machinery lets it propagate untouched instead of recording a crash.
    """

    def __init__(
        self, message: str = "", *, path: Optional[Path] = None,
        cycle: int = 0, diagnostics=None,
    ) -> None:
        super().__init__(message, diagnostics=diagnostics)
        self.path = path
        self.cycle = cycle


class _DrainCheckpoint(CheckpointPolicy):
    """A checkpoint policy that turns a drain request into save-and-stop.

    Until the controller's event is set no save is ever due; once drain
    is requested, ``next_due`` collapses to zero so the run loop saves at
    the very next idle-stretch boundary, and that save raises
    :class:`DrainInterrupt` carrying the checkpoint path.
    """

    def __init__(
        self, directory: Union[str, Path], event: threading.Event
    ) -> None:
        self._event = event
        super().__init__(directory, 1 << 62)

    @property
    def next_due(self) -> int:
        return 0 if self._event.is_set() else self._base_due

    @next_due.setter
    def next_due(self, value: int) -> None:
        self._base_due = value

    def save(self, gpu, trace, cycle, issued_cycles, idle_buckets) -> Path:
        path = super().save(gpu, trace, cycle, issued_cycles, idle_buckets)
        if self._event.is_set():
            raise DrainInterrupt(
                f"run drained at cycle {cycle}: checkpoint {path}",
                path=path, cycle=cycle,
            )
        return path


class DrainController:
    """Shared drain switch for every in-flight checkpointable run.

    The service hands each run a policy from :meth:`policy_for`; calling
    :meth:`drain` (from a signal handler or another thread — the switch
    is a :class:`threading.Event`) makes every armed run save a
    checkpoint at its next idle-stretch boundary and stop with
    :class:`DrainInterrupt`.  Runs armed after the drain fire at their
    first boundary, so a drain request can never be lost to a race.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    @property
    def draining(self) -> bool:
        return self._event.is_set()

    def drain(self) -> None:
        """Request save-and-stop on every armed run (idempotent)."""
        self._event.set()

    def reset(self) -> None:
        """Re-arm after a completed drain (a restarted service does this)."""
        self._event.clear()

    def policy_for(self, directory: Union[str, Path]) -> CheckpointPolicy:
        """A policy that saves to *directory* only on drain."""
        return _DrainCheckpoint(directory, self._event)


def read_meta(path: Union[str, Path]) -> Dict[str, Any]:
    """The metadata line alone — cheap, no unpickling."""
    with open(path, "rb") as fh:
        if fh.readline() != _MAGIC:
            raise CheckpointError(f"{path}: not a repro checkpoint")
        try:
            meta = json.loads(fh.readline().decode())
        except ValueError as exc:
            raise CheckpointError(f"{path}: corrupt metadata line") from exc
    if meta.get("schema") != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint schema v{meta.get('schema')} does not "
            f"match this build's v{CHECKPOINT_SCHEMA_VERSION}"
        )
    return meta


def load_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Validate and unpickle a checkpoint's full payload."""
    read_meta(path)  # magic + schema validation
    with open(path, "rb") as fh:
        fh.readline()
        fh.readline()
        try:
            payload = pickle.loads(fh.read())
        except Exception as exc:
            raise CheckpointError(f"{path}: corrupt payload: {exc}") from exc
    for key in ("gpu", "trace", "cycle", "issued_cycles", "idle_buckets"):
        if key not in payload:
            raise CheckpointError(f"{path}: payload missing {key!r}")
    return payload


def latest_checkpoint(
    directory: Union[str, Path], prefix: str = "ckpt"
) -> Optional[Path]:
    """Newest checkpoint in *directory* (by cycle in the name), or None."""
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates = sorted(directory.glob(f"{prefix}-*.ckpt"))
    return candidates[-1] if candidates else None


def resume_run(
    source: Union[str, Path, Dict[str, Any]],
    *,
    max_cycles: int = 50_000_000,
    watchdog=None,
    checkpoint: Optional[CheckpointPolicy] = None,
) -> Tuple[Any, int]:
    """Resume a checkpointed launch and run it to completion.

    *source* is a checkpoint path or an already-loaded payload dict.
    ``max_cycles`` keeps its absolute meaning (total cycles since launch,
    not since the checkpoint).  Returns ``(gpu, final_cycle)``; the
    resumed run's merged stats live on ``gpu.stats``.
    """
    payload = (
        source if isinstance(source, dict) else load_checkpoint(source)
    )
    gpu = payload["gpu"]
    cycle = gpu._finish_run(
        payload["trace"],
        max_cycles,
        payload["cycle"],
        payload["issued_cycles"],
        dict(payload["idle_buckets"]),
        watchdog,
        checkpoint,
    )
    return gpu, cycle
