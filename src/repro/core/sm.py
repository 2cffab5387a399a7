"""Streaming-multiprocessor timing model.

Implements the pipeline stages Fig 7 modifies: greedy-then-oldest issue
schedulers with a scoreboard, the LSU path into the shared memory subsystem,
barrier tracking, and — under CARS — the issue-stage *stalled-warp list*,
the *warp status check* release path, and barrier-deadlock context switching
(Section IV-B).

The SM participates in the GPU's event-driven main loop through two pieces
of state:

* ``WarpCtx.ready_at`` — a sound lower bound on the next cycle the warp
  could issue.  It is refreshed by the scheduler scan (``_ready``) and reset
  by every event that can make a warp runnable earlier (load completion,
  barrier release, register-allocation activation, block arrival).  The
  bound is *exact at classification flip points*: it is ``next_issue`` when
  that is in the future, else the head µop's scoreboard ready cycle — the
  only two quantities the CPI-stack classifier compares against the current
  cycle — so skipping ahead to the bound can never skip a cycle where the
  stall *bucket* would have changed.
* ``SM.next_event_cycle()`` — the SM-level aggregate the GPU's main loop
  reads to fast-forward: the minimum ``ready_at`` over resident warps,
  clamped to the future (``NEVER`` when every warp is parked on an external
  event).  ``tick`` refreshes it; cross-SM events lower it via ``_wake``.
"""

from __future__ import annotations

from typing import List, Optional

from ..config.gpu_config import GPUConfig
from ..emu.trace import BlockTrace
from ..mem.subsystem import MemorySubsystem, MemRequest
from ..metrics.counters import BlockRecord, SimStats, STREAM_SPILL
from ..obs.cpi import HINT_CTRL, HINT_FETCH
from ..resilience.errors import (
    DeadlockError,
    InvariantViolation,
    SimulationError,
)
from .techniques import LaunchContext
from .uop import UopKind, mem_uop
from .warp import NEVER, WarpCtx

_MEM = UopKind.MEM
_EXEC = UopKind.EXEC
_CTRL = UopKind.CTRL
_BAR = UopKind.BAR

#: Records predecoded per refill when fetch is free.  Expansion order (and
#: therefore every ABI-model side effect: CARS stack state, spill depths,
#: trap counters) is the trace order either way; only the number of
#: scheduler-to-frontend round trips changes.
_PREDECODE_BATCH = 16


__all__ = ["SM", "BlockRun", "SimulationError"]


class BlockRun:
    """A thread block resident on an SM."""

    __slots__ = (
        "trace",
        "warps",
        "alive",
        "arrived",
        "level",
        "regs_per_warp",
        "start_cycle",
        "inactive",
    )

    def __init__(self, trace: BlockTrace, warps: List[WarpCtx], level: int,
                 regs_per_warp: int, start_cycle: int) -> None:
        self.trace = trace
        self.warps = warps
        self.alive = len(warps)
        self.arrived = 0  # warps waiting at the current barrier
        self.level = level
        self.regs_per_warp = regs_per_warp
        self.start_cycle = start_cycle
        # Warps stalled for registers or switched out, maintained
        # incrementally at the stall/wake transitions (add_block,
        # _context_switch, _activate) instead of rescanned per query.
        self.inactive = 0

    def inactive_count(self) -> int:
        return self.inactive


class SM:
    """One streaming multiprocessor replaying warp traces."""

    __slots__ = (
        "sm_id",
        "config",
        "ctx",
        "mem",
        "stats",
        "gpu",
        "blocks",
        "warps",
        "reg_free",
        "stalled",
        "_last_issued",
        "_rr_pointer",
        "_next_slot",
        "blocked_fill_warps",
        "_tracer",
        "_next_try",
        "_sched_warps",
        "_n_sched",
        "_is_lrr",
        "_warp_limit",
        "_max_out",
        "_predecode",
    )

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        ctx: LaunchContext,
        mem: MemorySubsystem,
        stats: SimStats,
        gpu,
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.ctx = ctx
        self.mem = mem
        self.stats = stats
        self.gpu = gpu
        self.blocks: List[BlockRun] = []
        self.warps: List[WarpCtx] = []
        self.reg_free = config.registers_per_sm
        self.stalled: List[WarpCtx] = []
        self._last_issued: List[Optional[WarpCtx]] = [None] * config.schedulers_per_sm
        self._rr_pointer = [0] * config.schedulers_per_sm  # LRR state
        self._next_slot = 0
        # Warps parked at NEVER behind a CARS trap / context-switch fill
        # (the CPI stack's cars_trap bucket reads this census).
        self.blocked_fill_warps = 0
        obs = getattr(gpu, "obs", None)
        self._tracer = obs.tracer if obs is not None else None
        # Event-driven scheduling state (see module docstring).
        self._next_try = NEVER
        self._n_sched = config.schedulers_per_sm
        self._is_lrr = config.scheduler == "lrr"
        self._warp_limit = config.warp_limit
        self._max_out = config.max_outstanding_loads
        self._sched_warps: List[List[WarpCtx]] = [
            [] for _ in range(self._n_sched)
        ]
        # The bounded tracer records the fetch cursor per issue, so it needs
        # the cursor to track the issuing record one-to-one.
        self._predecode = _PREDECODE_BATCH if self._tracer is None else 1

    # ------------------------------------------------------------------
    # Event-driven contract
    # ------------------------------------------------------------------

    def next_event_cycle(self) -> int:
        """Next cycle this SM's ``tick`` could do anything (NEVER if only
        an external event — memory completion, another SM's progress — can
        make it runnable again)."""
        return self._next_try

    def _wake(self, cycle: int) -> None:
        if cycle < self._next_try:
            self._next_try = cycle

    def _rebuild_sched_lists(self) -> None:
        """Re-partition ``self.warps`` by scheduler.

        Replaces the whole list-of-lists so a tick that captured the old
        partition keeps scanning exactly the warps that were resident when
        it started (matching the pre-partitioned ``eligible`` capture of
        the per-cycle loop this replaces).
        """
        n = self._n_sched
        lists: List[List[WarpCtx]] = [[] for _ in range(n)]
        for warp in self.warps:
            lists[warp.slot % n].append(warp)
        self._sched_warps = lists

    # ------------------------------------------------------------------
    # Block management
    # ------------------------------------------------------------------

    def can_accept_block(self) -> bool:
        return len(self.blocks) < self.ctx.occupancy.blocks_per_sm

    def add_block(self, trace: BlockTrace, cycle: int) -> None:
        level, regs_per_warp = self.ctx.stack_level_for_block(self.sm_id)
        warps: List[WarpCtx] = []
        block = BlockRun(trace, warps, level, regs_per_warp, cycle)
        for warp_trace in trace.warps:
            warp = WarpCtx(
                slot=self._next_slot,
                global_index=self.gpu.next_warp_index(),
                records=warp_trace.records,
                block=block,
            )
            self._next_slot += 1
            warps.append(warp)
            if self.ctx.manages_registers:
                if self.reg_free >= regs_per_warp:
                    self.reg_free -= regs_per_warp
                    warp.alloc_regs = regs_per_warp
                    self.ctx.attach_warp(warp, regs_per_warp)
                else:
                    warp.stalled = True
                    warp.ready_at = NEVER
                    block.inactive += 1
                    self.stalled.append(warp)
        block.alive = len(warps)
        self.blocks.append(block)
        self.warps = [w for w in self.warps if not w.done] + warps
        self._rebuild_sched_lists()
        # An SM later in the current tick sweep must scan the new warps
        # this very cycle (the sweep checks _next_try at its position);
        # an SM that already ticked picks them up next cycle.
        self._wake(cycle)

    def _finish_warp(self, warp: WarpCtx, cycle: int) -> None:
        warp.done = True
        warp.ready_at = NEVER
        if warp.cars is not None and warp.cars.peak_depth > self.stats.peak_stack_depth:
            self.stats.peak_stack_depth = warp.cars.peak_depth
        block = warp.block
        block.alive -= 1
        if self.ctx.manages_registers and warp.alloc_regs:
            self.reg_free += warp.alloc_regs
            warp.alloc_regs = 0
            self._release_stalled(cycle)  # the warp-status-check unit
        if block.alive == 0:
            self._finish_block(block, cycle)
        else:
            self._check_barrier(block, cycle)

    def _finish_block(self, block: BlockRun, cycle: int) -> None:
        self.blocks.remove(block)
        runtime = cycle - block.start_cycle
        self.stats.blocks.append(
            BlockRecord(
                sm_id=self.sm_id,
                block_id=block.trace.block_id,
                kernel=self.ctx.trace.kernel,
                start_cycle=block.start_cycle,
                end_cycle=cycle,
                alloc_regs_per_warp=block.regs_per_warp,
                alloc_level=block.level,
            )
        )
        self.ctx.block_done(self.sm_id, block.level, runtime)
        self.warps = [w for w in self.warps if not w.done]
        self._rebuild_sched_lists()
        self.gpu.block_finished(self, cycle)

    def _release_stalled(self, cycle: int) -> None:
        """Activate stalled warps (first-fit in arrival order) as register
        space frees up — the warp-status-check release path."""
        if not self.stalled:
            return
        for warp in list(self.stalled):
            demand = warp.block.regs_per_warp
            if self.reg_free < demand:
                continue
            self._activate(warp, cycle)

    # ------------------------------------------------------------------
    # Barriers and context switching
    # ------------------------------------------------------------------

    def _arrive_barrier(self, warp: WarpCtx, cycle: int) -> None:
        warp.waiting_barrier = True
        block = warp.block
        block.arrived += 1
        self._check_barrier(block, cycle)

    def _check_barrier(self, block: BlockRun, cycle: int) -> None:
        if block.arrived == 0:
            return
        inactive = block.inactive
        waiting_needed = block.alive - inactive
        if block.arrived >= block.alive:
            self._release_barrier(block, cycle)
        elif block.arrived >= waiting_needed and inactive > 0:
            # Every runnable warp is parked at the barrier while siblings
            # still wait for registers: trap to a context switch
            # (Section IV-B's deadlock-avoidance path).
            self._context_switch(block, cycle)

    def _release_barrier(self, block: BlockRun, cycle: int) -> None:
        block.arrived = 0
        for warp in block.warps:
            if warp.waiting_barrier:
                warp.waiting_barrier = False
                warp.next_issue = max(warp.next_issue, cycle + 1)
                if not warp.switched_out:
                    warp.ready_at = warp.next_issue
            if warp.switched_out and warp not in self.stalled:
                # A context-switch victim resumes competing for registers
                # once the barrier that forced it out has opened.
                self.stalled.append(warp)
        self._wake(cycle + 1)
        self._release_stalled(cycle)

    def _context_switch(self, block: BlockRun, cycle: int) -> None:
        victim = None
        for warp in block.warps:
            if warp.waiting_barrier and warp.alloc_regs and not warp.switched_out:
                victim = warp
                break
        beneficiary = None
        for warp in self.stalled:
            if warp.block is block:
                beneficiary = warp
                break
        if victim is None or beneficiary is None:
            raise DeadlockError(
                f"SM{self.sm_id}: barrier deadlock without a context-switch "
                f"candidate (block {block.trace.block_id})",
                diagnostics=self._dump(cycle, "barrier deadlock"),
            )
        self.stats.context_switches += 1
        if self.stats.context_switches > self.config.cars_max_context_switches * max(
            1, len(self.blocks)
        ):
            raise DeadlockError(
                "context-switch livelock suspected",
                diagnostics=self._dump(cycle, "context-switch livelock"),
            )
        saved = victim.alloc_regs
        self.stats.context_switch_regs += saved
        # The switch engine spills the victim's register state; the cost is
        # charged to the beneficiary's issue stream (it runs next).
        stores = [
            mem_uop(
                beneficiary.switch_sectors(i), STREAM_SPILL, True, (), (), "SPILL_ST"
            )
            for i in range(saved)
        ]
        for uop in reversed(stores):
            beneficiary.uops.appendleft(uop)
        self.reg_free += victim.alloc_regs
        victim.alloc_regs = 0
        victim.switched_out = True
        victim.needs_fill = True
        victim.ready_at = NEVER
        block.inactive += 1
        # Activate the beneficiary directly (it is the warp the barrier is
        # waiting for; FCFS release could be blocked by a larger-demand
        # warp from another block at the queue head).
        self._activate(beneficiary, cycle)

    def _dump(self, cycle: int, reason: str):
        """Diagnostic snapshot via the owning GPU (import kept local so
        ``repro.core`` can finish initializing before diagnostics loads)."""
        from ..resilience.diagnostics import collect_dump

        return collect_dump(self.gpu, cycle, reason=f"SM{self.sm_id}: {reason}")

    def _activate(self, warp: WarpCtx, cycle: int) -> None:
        demand = warp.block.regs_per_warp
        if self.reg_free < demand:
            raise InvariantViolation(
                f"SM{self.sm_id}: context switch freed too few registers",
                diagnostics=self._dump(cycle, "register balance violation"),
            )
        self.stalled.remove(warp)
        self.reg_free -= demand
        warp.alloc_regs = demand
        warp.stalled = False
        warp.switched_out = False
        warp.block.inactive -= 1
        if warp.cars is None:
            self.ctx.attach_warp(warp, demand)
        if warp.needs_fill:
            self._inject_switch_fill(warp)
        warp.next_issue = max(warp.next_issue, cycle + 1)
        warp.ready_at = warp.next_issue
        self._wake(warp.next_issue)

    def _inject_switch_fill(self, warp: WarpCtx) -> None:
        """Refill a previously switched-out warp's register state."""
        warp.needs_fill = False
        count = warp.alloc_regs
        self.stats.context_switch_regs += count
        # The last fill blocks the warp until its state is back.
        fills = [
            mem_uop(warp.switch_sectors(i), STREAM_SPILL, False, (), (), "SPILL_LD",
                    blocking=i == count - 1)
            for i in range(count)
        ]
        for uop in reversed(fills):
            warp.uops.appendleft(uop)

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> int:
        issued = 0
        limit = self._warp_limit
        if limit is not None:
            # Static wavefront limiter: schedule at most `limit` warps.
            # Warps parked at a barrier do not consume a slot, otherwise a
            # block with more warps than the limit could never release it.
            eligible = [
                w for w in self.warps if not w.done and not w.waiting_barrier
            ][:limit]
            for sched in range(self._n_sched):
                warp = self._pick_warp_limited(sched, eligible, cycle)
                if warp is not None:
                    self._issue(warp, cycle)
                    self._last_issued[sched] = warp
                    issued += 1
            if issued:
                self._next_try = cycle + 1
            else:
                # The limiter re-evaluates its window every cycle while
                # blocks are resident, so don't sleep past warps that the
                # window excluded this cycle.
                self._next_try = self._earliest_ready(eligible, cycle)
            return issued
        # Capture the partition: block arrival/retirement mid-tick swaps in
        # a fresh one that must only be seen from the next tick on.
        sched_lists = self._sched_warps
        pick = self._pick_warp
        issue = self._issue
        last = self._last_issued
        for sched in range(self._n_sched):
            warp = pick(sched, sched_lists[sched], cycle)
            if warp is not None:
                issue(warp, cycle)
                last[sched] = warp
                issued += 1
        if issued:
            self._next_try = cycle + 1
        else:
            self._next_try = self._earliest_ready(self.warps, cycle)
        return issued

    def _earliest_ready(self, warps: List[WarpCtx], cycle: int) -> int:
        """Minimum ``ready_at`` over *warps*, clamped to the future.

        Only called after a zero-issue tick, when the scheduler scan has
        just refreshed every candidate's bound.
        """
        nt = NEVER
        for warp in warps:
            ra = warp.ready_at
            if ra < nt:
                nt = ra
        if nt <= cycle:
            return cycle + 1
        return nt

    def _pick_warp(
        self, sched: int, candidates: List[WarpCtx], cycle: int
    ) -> Optional[WarpCtx]:
        if self._is_lrr:
            return self._pick_lrr(sched, candidates, cycle)
        # Greedy-then-oldest: stick with the last warp while it can issue.
        refill = self._refill
        max_out = self._max_out
        # Greedy-then-oldest: stick with the last warp while it can issue.
        # Its check is the same inlined _ready body as the scan below; a
        # failed check parks last.ready_at in the future, so the scan's
        # ready_at guard skips it without re-evaluating.
        warp = self._last_issued[sched]
        if warp is not None and not warp.done and warp.ready_at <= cycle:
            if warp.stalled or warp.switched_out or warp.waiting_barrier:
                warp.ready_at = NEVER
            else:
                next_issue = warp.next_issue
                if next_issue > cycle:
                    warp.ready_at = next_issue
                else:
                    uops = warp.uops
                    ok = True
                    if not uops:
                        if not refill(warp):
                            warp.ready_at = NEVER
                            ok = False
                        elif warp.next_issue > cycle:
                            warp.ready_at = warp.next_issue
                            ok = False
                        else:
                            uops = warp.uops
                    if ok:
                        head = uops[0]
                        if (
                            head.kind == _MEM
                            and not head.is_store
                            and warp.outstanding_loads >= max_out
                        ):
                            warp.ready_at = NEVER
                        else:
                            deps = head.deps
                            ready_at = 0
                            if deps:
                                get = warp.reg_ready.get
                                for reg in deps:
                                    t = get(reg, 0)
                                    if t > ready_at:
                                        ready_at = t
                            if ready_at > cycle:
                                warp.ready_at = ready_at
                            else:
                                warp.ready_at = cycle
                                return warp
        for warp in candidates:
            if warp.ready_at > cycle:
                continue
            # _ready, inlined: the scan touches every runnable warp on
            # every issue attempt, and the call overhead rivaled the
            # checks themselves.  Keep in lockstep with _ready below.
            if (
                warp.done
                or warp.stalled
                or warp.switched_out
                or warp.waiting_barrier
            ):
                warp.ready_at = NEVER
                continue
            next_issue = warp.next_issue
            if next_issue > cycle:
                warp.ready_at = next_issue
                continue
            uops = warp.uops
            if not uops:
                if not refill(warp):
                    warp.ready_at = NEVER
                    continue
                if warp.next_issue > cycle:  # fetch stall during refill
                    warp.ready_at = warp.next_issue
                    continue
                uops = warp.uops
            head = uops[0]
            if (
                head.kind == _MEM
                and not head.is_store
                and warp.outstanding_loads >= max_out
            ):
                warp.ready_at = NEVER
                continue
            deps = head.deps
            if deps:
                ready_at = 0
                get = warp.reg_ready.get
                for reg in deps:
                    t = get(reg, 0)
                    if t > ready_at:
                        ready_at = t
                if ready_at > cycle:
                    warp.ready_at = ready_at
                    continue
            warp.ready_at = cycle
            return warp
        return None

    def _pick_warp_limited(
        self, sched: int, eligible: List[WarpCtx], cycle: int
    ) -> Optional[WarpCtx]:
        n = self._n_sched
        if self._is_lrr:
            mine = [w for w in eligible if w.slot % n == sched]
            return self._pick_lrr(sched, mine, cycle)
        last = self._last_issued[sched]
        if (
            last is not None
            and not last.done
            and last.ready_at <= cycle
            and self._ready(last, cycle)
        ):
            if last.slot % n == sched and last in eligible:
                return last
        for warp in eligible:
            if warp.slot % n != sched:
                continue
            if warp.ready_at > cycle:
                continue
            if self._ready(warp, cycle):
                return warp
        return None

    def _pick_lrr(
        self, sched: int, mine: List[WarpCtx], cycle: int
    ) -> Optional[WarpCtx]:
        """Loose round-robin: rotate through this scheduler's warps."""
        if not mine:
            return None
        start = self._rr_pointer[sched] % len(mine)
        for offset in range(len(mine)):
            warp = mine[(start + offset) % len(mine)]
            if warp.ready_at > cycle:
                continue
            if self._ready(warp, cycle):
                self._rr_pointer[sched] = (start + offset + 1) % len(mine)
                return warp
        return None

    def _ready(self, warp: WarpCtx, cycle: int) -> bool:
        if (
            warp.done
            or warp.stalled
            or warp.switched_out
            or warp.waiting_barrier
        ):
            # Flag-parked: only an event elsewhere can clear these, and
            # every such event resets ready_at.
            warp.ready_at = NEVER
            return False
        next_issue = warp.next_issue
        if next_issue > cycle:
            warp.ready_at = next_issue
            return False
        if not warp.uops:
            if not self._refill(warp):
                warp.ready_at = NEVER
                return False
            if warp.next_issue > cycle:  # fetch stall applied during refill
                warp.ready_at = warp.next_issue
                return False
        head = warp.uops[0]
        if (
            head.kind == _MEM
            and not head.is_store
            and warp.outstanding_loads >= self._max_out
        ):
            warp.ready_at = NEVER  # wakes on any of its loads completing
            return False
        # Scoreboard check, inlined from WarpCtx.deps_ready_cycle: this is
        # the single hottest expression in the simulator.
        deps = head.deps
        if deps:
            ready_at = 0
            get = warp.reg_ready.get
            for reg in deps:
                t = get(reg, 0)
                if t > ready_at:
                    ready_at = t
            if ready_at > cycle:
                warp.ready_at = ready_at
                return False
        warp.ready_at = cycle
        return True

    def _refill(self, warp: WarpCtx) -> bool:
        """Expand the next trace record(s) into µops.

        A record in the context's decode table appends its shared µop;
        only a miss calls ``expand``, so ABI records keep their per-warp
        expansion and side effects in trace order.  With a fetch penalty
        the debt is applied per record, so records are fetched one at a
        time; otherwise a bounded batch is predecoded per call, trimming
        scheduler-to-frontend round trips without changing any issue
        timing.
        """
        records = warp.records
        cursor = warp.cursor
        total = len(records)
        if cursor >= total:
            return False
        ctx = self.ctx
        stats = self.stats
        penalty = ctx.fetch_penalty
        if penalty:
            end = cursor + 1
            warp.fetch_debt += penalty
            if warp.fetch_debt >= 1.0:
                stall = int(warp.fetch_debt)
                warp.fetch_debt -= stall
                warp.next_issue += stall
                warp.stall_hint = HINT_FETCH
                stats.fetch_stall_cycles += stall
        else:
            end = cursor + self._predecode
            if end > total:
                end = total
        stats.warp_instructions += end - cursor
        uops = warp.uops
        decoded = ctx.decoded.get
        expand = ctx.expand
        append = uops.append
        while cursor < end:
            rec = records[cursor]
            uop = decoded(rec)
            if uop is None:
                expand(warp, rec, uops)
            else:
                append(uop)
            cursor += 1
        warp.cursor = cursor
        return bool(uops)

    def _issue(self, warp: WarpCtx, cycle: int) -> None:
        uop = warp.uops.popleft()
        stats = self.stats
        stats.micro_ops += 1
        stats.issued_by_kind[uop.mix] += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.on_issue(
                cycle, self.sm_id, warp.global_index, warp.cursor - 1, uop.mix
            )
        kind = uop.kind
        if kind == _EXEC:
            done_at = cycle + uop.latency
            for reg in uop.dst:
                warp.reg_ready[reg] = done_at
            warp.next_issue = cycle + 1
            warp.ready_at = cycle + 1
        elif kind == _MEM:
            blocking = uop.blocking and not uop.is_store
            request = MemRequest(
                warp,
                uop.dst,
                len(uop.sectors),
                uop.is_store,
                uop.stream,
                self.sm_id,
                blocking,
            )
            if not uop.is_store:
                warp.outstanding_loads += 1
                for reg in uop.dst:
                    warp.reg_ready[reg] = NEVER
                if blocking:
                    warp.next_issue = NEVER
                    warp.ready_at = NEVER
                    self.blocked_fill_warps += 1
                else:
                    warp.next_issue = cycle + 1
                    warp.ready_at = cycle + 1
            else:
                warp.next_issue = cycle + 1
                warp.ready_at = cycle + 1
            self.mem.access(self.sm_id, uop.sectors, request)
        elif kind == _CTRL:
            warp.next_issue = cycle + uop.latency
            warp.ready_at = warp.next_issue
            warp.stall_hint = HINT_CTRL
        elif kind == _BAR:
            warp.next_issue = cycle + 1
            # Parked until release; an all-arrived barrier releases inside
            # _arrive_barrier and overwrites this with cycle + 1.
            warp.ready_at = NEVER
            self._arrive_barrier(warp, cycle)
        else:  # EXIT
            self._finish_warp(warp, cycle)

    # ------------------------------------------------------------------
    # Memory completion (called by the GPU's completion callback)
    # ------------------------------------------------------------------

    def complete_load(self, request: MemRequest, cycle: int) -> None:
        warp: WarpCtx = request.warp
        warp.outstanding_loads -= 1
        for reg in request.dst:
            warp.reg_ready[reg] = cycle
        if request.blocking and warp.next_issue >= NEVER:
            # The blocking fill itself finished.  (An unrelated load
            # completing must *not* release the warp: that used to let a
            # warp resume before its trap fill was back in registers.)
            warp.next_issue = cycle + 1
            self.blocked_fill_warps -= 1
        # Memory ticks before the SMs each cycle, so the warp may issue at
        # the completion cycle itself: wake the SM for *this* cycle.
        warp.ready_at = cycle
        self._wake(cycle)

    # ------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        return bool(self.blocks)
