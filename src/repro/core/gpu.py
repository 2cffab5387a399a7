"""Top-level GPU timing simulator.

Drives the per-SM pipelines and the shared memory hierarchy with an
event-driven main loop: a cycle only runs the SMs whose
:meth:`~repro.core.sm.SM.next_event_cycle` bound has arrived, and when no
scheduler issues anywhere the loop jumps straight to the next interesting
cycle — the earliest of the memory subsystem's event-heap head and every
SM's bound.  Each skipped idle stretch is credited, whole, to the CPI-stack
bucket the per-cycle loop would have chosen: the SM bounds are exact at
every cycle where the classification could flip (a warp's ``next_issue`` or
scoreboard ready cycle arriving), so nothing can change mid-stretch.

One :class:`GPU` instance simulates one kernel launch; the harness strings
launches together and merges their statistics.

Failure semantics (see :mod:`repro.resilience`): a run that exhausts its
cycle budget raises :class:`~repro.resilience.errors.MaxCyclesError`; a run
with no future events (or one the watchdog catches retiring nothing for a
whole window) raises :class:`~repro.resilience.errors.DeadlockError`; a
CPI-accounting leak raises
:class:`~repro.resilience.errors.InvariantViolation`.  All three carry a
:class:`~repro.resilience.diagnostics.DiagnosticDump`.

``max_cycles`` boundary contract (both budget paths agree; pinned by
``tests/test_max_cycles_boundary``): the guard fires at the top of the
iteration for cycle ``max_cycles + 1`` when blocks remain, and the
fast-forward clamp stops a skip *at* ``max_cycles + 1`` so that guard is
reached; a run whose uninterrupted total is ``T`` cycles therefore
completes iff ``max_cycles >= T - 1``.
"""

from __future__ import annotations

import gc
from collections import Counter, deque
from typing import Deque, Dict, Optional

from ..config.gpu_config import GPUConfig
from ..emu.trace import KernelTrace
from ..mem.subsystem import MemorySubsystem, MemRequest
from ..metrics.counters import SimStats
from ..obs.cpi import BUCKET_ISSUED, classify_idle, warp_stall_reasons
from ..resilience.diagnostics import collect_dump
from ..resilience.errors import (
    DeadlockError,
    InvariantViolation,
    MaxCyclesError,
    SimulationError,
)
from ..resilience.faults import active_session
from ..resilience.watchdog import Watchdog
from .sm import SM
from .techniques import LaunchContext
from .warp import NEVER

__all__ = ["GPU", "SimulationError"]


class GPU:
    """Simulates one kernel launch under one technique."""

    __slots__ = (
        "config",
        "ctx",
        "stats",
        "obs",
        "mem",
        "sms",
        "_warp_counter",
        "_pending",
        "_blocks_remaining",
        "_faults",
    )

    def __init__(
        self,
        config: GPUConfig,
        ctx: LaunchContext,
        stats: SimStats,
        obs=None,
    ) -> None:
        self.config = config
        self.ctx = ctx
        self.stats = stats
        self.obs = obs  # ObsSession or None; SMs read this at construction
        self.mem = MemorySubsystem(config, stats, self._on_load_complete)
        self.sms = [
            SM(sm_id, config, ctx, self.mem, stats, self)
            for sm_id in range(config.num_sms)
        ]
        # Plain int (not itertools.count) so checkpoints can serialize the
        # counter without consuming a value — warp indices feed local-memory
        # sector addresses, so a skewed counter would change cache timing.
        self._warp_counter = 0
        self._pending: Deque = deque()
        self._blocks_remaining = 0
        self._faults = active_session()

    # -- services used by the SMs ---------------------------------------

    def next_warp_index(self) -> int:
        index = self._warp_counter
        self._warp_counter = index + 1
        return index

    def block_finished(self, sm: SM, cycle: int) -> None:
        self._blocks_remaining -= 1
        self._assign_blocks(cycle)

    # -- launch ----------------------------------------------------------

    def _assign_blocks(self, cycle: int) -> None:
        progress = True
        while self._pending and progress:
            progress = False
            for sm in self.sms:
                if not self._pending:
                    break
                if sm.can_accept_block():
                    sm.add_block(self._pending.popleft(), cycle)
                    progress = True

    def run(
        self,
        trace: KernelTrace,
        max_cycles: int = 50_000_000,
        *,
        watchdog=None,
        checkpoint=None,
    ) -> int:
        """Simulate the launch to completion; returns total cycles.

        Every cycle is attributed to exactly one CPI-stack bucket as it
        passes: issuing cycles to ``issued``, each fast-forwarded idle
        stretch — whole — to the stall cause that opened it (nothing can
        change mid-stretch, so the cause holds for every cycle in it).
        The accounting is checked against the cycle count before it is
        folded into :class:`~repro.metrics.counters.SimStats`.

        Args:
            watchdog: a :class:`~repro.resilience.watchdog.Watchdog`
                (``None`` = a fresh default one; ``False`` disables).
                Pure observer — enabling it never changes any stat.
            checkpoint: an optional
                :class:`~repro.resilience.checkpoint.CheckpointPolicy`;
                state is saved at idle-stretch boundaries once its due
                cycle passes.  Incompatible with an active ObsSession.
        """
        self._pending = deque(trace.blocks)
        self._blocks_remaining = len(trace.blocks)
        self._assign_blocks(0)
        return self._finish_run(trace, max_cycles, 0, 0, {}, watchdog, checkpoint)

    def _finish_run(
        self,
        trace: KernelTrace,
        max_cycles: int,
        cycle0: int,
        issued0: int,
        idle_buckets: Dict[str, int],
        watchdog,
        checkpoint,
    ) -> int:
        """Run the event loop from a given start state to completion.

        ``run`` enters here with zeroed state; checkpoint resume
        (:func:`repro.resilience.checkpoint.resume_run`) enters with the
        restored mid-run state.  Everything after the loop — accounting
        conservation, CPI-stack fold-in, context finalization — happens
        exactly once per completed launch either way.
        """
        obs = self.obs
        tracer = obs.tracer if obs is not None else None
        if tracer is not None:
            tracer.bind_kernel(trace.kernel)
        per_warp = obs is not None and obs.per_warp
        if watchdog is None:
            watchdog = Watchdog()
        elif watchdog is False:
            watchdog = None
        if checkpoint is not None and obs is not None:
            raise ValueError(
                "checkpointing is incompatible with an active ObsSession"
            )
        stats = self.stats
        # The loop allocates only acyclic, promptly-refcounted objects
        # (µops, requests, tuples); generational GC passes over the live
        # simulation graph are pure overhead, so pause collection for the
        # run (restoring the caller's setting either way).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            cycle, issued_cycles = self._run_loop(
                trace, max_cycles, tracer, per_warp, idle_buckets,
                watchdog, checkpoint, cycle0, issued0,
            )
        finally:
            if gc_was_enabled:
                gc.enable()
        stats.cycles = cycle
        accounted = issued_cycles + sum(idle_buckets.values())
        if accounted != cycle:
            raise InvariantViolation(
                f"CPI-stack accounting leak in {trace.kernel!r}: "
                f"{accounted} cycles attributed, {cycle} simulated",
                diagnostics=collect_dump(
                    self, cycle, reason="CPI-stack conservation failure",
                    idle_buckets=idle_buckets, issued_cycles=issued_cycles,
                    trail=watchdog.trail if watchdog is not None else None,
                ),
            )
        stack = stats.cpi_stack
        kernel_stack = stats.cpi_by_kernel.setdefault(trace.kernel, Counter())
        if issued_cycles:
            stack[BUCKET_ISSUED] += issued_cycles
            kernel_stack[BUCKET_ISSUED] += issued_cycles
        for bucket, span in idle_buckets.items():
            stack[bucket] += span
            kernel_stack[bucket] += span
        self.ctx.finalize()
        # Release the machine.  ``SM.gpu`` and the memory subsystem's bound
        # completion callback tie this GPU, its SMs and its caches into
        # reference cycles, so a finished launch would otherwise wait for a
        # cyclic GC pass (the loop above runs with collection paused).
        # ``ctx`` and ``stats`` stay readable for the caller.
        self.sms = []
        self.mem = None
        return cycle

    def _run_loop(
        self,
        trace: KernelTrace,
        max_cycles: int,
        tracer,
        per_warp: bool,
        idle_buckets: Dict[str, int],
        watchdog,
        checkpoint,
        cycle: int = 0,
        issued_cycles: int = 0,
    ):
        """Inner event loop; returns ``(final_cycle, issued_cycles)``."""
        mem = self.mem
        sms = self.sms
        stats = self.stats
        faults = self._faults
        while self._blocks_remaining > 0:
            if cycle > max_cycles:
                raise MaxCyclesError(
                    f"kernel {trace.kernel!r} exceeded {max_cycles} cycles",
                    diagnostics=collect_dump(
                        self, cycle, reason="max_cycles budget exhausted",
                        idle_buckets=idle_buckets,
                        issued_cycles=issued_cycles,
                        trail=watchdog.trail if watchdog is not None else None,
                    ),
                )
            mem.tick(cycle)
            issued = 0
            for sm in sms:
                if sm._next_try <= cycle:
                    issued += sm.tick(cycle)
            if issued:
                stats.issue_cycles += 1
                issued_cycles += 1
                cycle += 1
                continue
            # Nothing issued: fast-forward to the next possible event.
            next_cycle = self._next_event_after(cycle)
            if next_cycle is None:
                if self._blocks_remaining > 0:
                    raise DeadlockError(
                        f"deadlock at cycle {cycle}: no future events but "
                        f"{self._blocks_remaining} blocks unfinished",
                        diagnostics=collect_dump(
                            self, cycle, reason="deadlock: no future events",
                            idle_buckets=idle_buckets,
                            issued_cycles=issued_cycles,
                            trail=(watchdog.trail if watchdog is not None
                                   else None),
                        ),
                    )
                break
            if next_cycle > max_cycles + 1:
                # A skip landing past the budget still stops *at* the
                # budget: the guard at the top of the loop fires next.
                next_cycle = max_cycles + 1
            span = next_cycle - cycle
            bucket = classify_idle(self, cycle)
            if faults is None or not faults.drop_idle_charge():
                idle_buckets[bucket] = idle_buckets.get(bucket, 0) + span
            if watchdog is not None:
                watchdog.note_idle(
                    self, cycle, span, bucket, idle_buckets, issued_cycles
                )
            if tracer is not None:
                tracer.on_stall(cycle, span, bucket)
            if per_warp:
                for warp, reason in warp_stall_reasons(self, cycle):
                    key = f"{trace.kernel}/w{warp.global_index}"
                    stalls = stats.warp_stalls.get(key)
                    if stalls is None:
                        stalls = stats.warp_stalls[key] = Counter()
                    stalls[reason] += span
            stats.idle_cycles += span
            cycle = next_cycle
            if checkpoint is not None and cycle >= checkpoint.next_due:
                checkpoint.save(self, trace, cycle, issued_cycles, idle_buckets)
        return cycle, issued_cycles

    def _next_event_after(self, cycle: int) -> Optional[int]:
        """Earliest future cycle anything can happen, or None (deadlock).

        Called only after a zero-issue sweep, so every SM's bound is fresh
        (> ``cycle``) and any memory event at or before ``cycle`` has been
        drained by ``mem.tick``.
        """
        mem = self.mem
        if mem.has_queued_work():
            return cycle + 1
        best = NEVER
        for sm in self.sms:
            bound = sm._next_try
            if bound < best:
                best = bound
        mem_next = mem.next_event_cycle()
        if mem_next is not None and mem_next < best:
            best = mem_next
        if best >= NEVER:
            return None
        if best <= cycle:
            return cycle + 1
        return best

    # -- checkpoint serialization ----------------------------------------

    def __getstate__(self):
        state = {name: getattr(self, name) for name in GPU.__slots__}
        # Observability sessions (open ring buffers) and fault sessions
        # (module-global, injection-scoped) do not survive a checkpoint.
        state["obs"] = None
        state["_faults"] = None
        return state

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        # The completion callback is a bound method, nulled by the memory
        # subsystem's __getstate__; rewire it to this (unpickled) GPU.
        self.mem.on_complete = self._on_load_complete

    # -- memory completion -------------------------------------------------

    def _on_load_complete(self, request: MemRequest, cycle: int) -> None:
        self.sms[request.sm_id].complete_load(request, cycle)
