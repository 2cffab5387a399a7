"""RegDem-style shared-memory register demotion (arXiv 1907.02894).

The compiler demotes the coldest live registers — exactly the
callee-saved set the ABI spills at call boundaries — into a per-warp
arena carved out of shared memory.  Relative to the baseline ABI:

* spills/fills inside the arena are shared-memory operations
  (``smem_latency`` EXEC µops) instead of local-memory traffic through
  the cache hierarchy;
* the block scheduler sees a *reduced* register demand (the linker's
  worst case minus the demoted set), which can raise occupancy;
* the arena is charged against the shared-memory occupancy limit — the
  occupancy trade the original paper studies;
* call chains deeper than the arena overflow to local memory through
  :class:`~repro.mem.subsystem.MemorySubsystem`, exactly like a baseline
  spill.  Each overflowing PUSH counts as one ``traps`` event so the
  interprocedural trap-rate bounds apply unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Optional

from ..callgraph.analysis import KernelStackAnalysis
from ..cars.policy import PolicyMemory
from ..config.gpu_config import GPUConfig
from ..core.occupancy import Occupancy, compute_occupancy
from ..core.techniques import AbiModel, LaunchContext
from ..core.uop import Uop, UopKind, ctrl_uop
from ..core.warp import WarpCtx
from ..emu.trace import KernelTrace, TraceKind, TraceRecord
from ..metrics.counters import STREAM_SPILL, SimStats

_EXEC = UopKind.EXEC
_MEM = UopKind.MEM

#: Bytes of shared memory one warp-wide register occupies (4 B x 32 lanes).
BYTES_PER_WARP_REG = 128


class RegDemContext(LaunchContext):
    """Baseline-style expansion with a shared-memory spill arena."""

    blocking_fill_bucket = "spill_fill"

    def __init__(
        self,
        trace: KernelTrace,
        config: GPUConfig,
        stats: SimStats,
        analysis: KernelStackAnalysis,
    ) -> None:
        self.analysis = analysis
        # Call-free kernels get no arena: RegDem (like CARS) leaves them
        # untouched, so baseline timing and occupancy are preserved.
        self.arena_regs = (
            config.regdem_smem_bytes_per_warp // BYTES_PER_WARP_REG
            if analysis.has_calls
            else 0
        )
        super().__init__(trace, config, stats)

    def scheduler_regs_per_warp(self) -> int:
        if not self.analysis.has_calls:
            return self.trace.regs_per_warp_baseline
        # Demoted registers live in shared memory, so the linker's
        # worst-case demand shrinks by the arena — but never below the
        # kernel's own frame.
        return max(
            self.analysis.kernel_fru,
            self.trace.regs_per_warp_baseline - self.arena_regs,
        )

    def _occupancy(self) -> Occupancy:
        smem = (
            self.trace.shared_mem_bytes
            + self.arena_regs * BYTES_PER_WARP_REG * self.warps_per_block
        )
        return compute_occupancy(
            self.config, self.scheduler_regs_per_warp(), self.warps_per_block, smem
        )

    def expand(self, warp: WarpCtx, rec: TraceRecord, out: Any) -> None:
        cfg = self.config
        stats = self.stats
        kind = rec.kind
        if kind == TraceKind.CALL:
            stats.calls += 1
            warp.frame_starts.append(warp.spill_depth)
            warp.spill_depth += rec.push_count
            depth = len(warp.frame_starts)
            if depth > stats.peak_stack_depth:
                stats.peak_stack_depth = depth
            out.append(ctrl_uop(cfg.ctrl_latency, "CALL"))
        elif kind == TraceKind.RET:
            stats.returns += 1
            if rec.frame_release and warp.frame_starts:
                warp.spill_depth = warp.frame_starts.pop()
            out.append(ctrl_uop(cfg.ctrl_latency, "RET"))
        elif kind == TraceKind.PUSH:
            stats.pushes += 1
            stats.push_regs += rec.reg_count
            start = warp.frame_starts[-1] if warp.frame_starts else 0
            arena = self.arena_regs
            overflowed = False
            for i in range(rec.reg_count):
                slot = start + i
                if slot < arena:
                    stats.smem_spill_regs += 1
                    out.append(
                        Uop(_EXEC, cfg.smem_latency, (), (rec.srcs[i],), mix="SMEM")
                    )
                else:
                    overflowed = True
                    stats.spill_overflow_regs += 1
                    out.append(
                        Uop(_MEM, 1, (), (rec.srcs[i],),
                            warp.spill_sectors(slot),
                            STREAM_SPILL, True, "SPILL_ST")
                    )
            if overflowed:
                stats.traps += 1
        elif kind == TraceKind.POP:
            stats.pops += 1
            stats.pop_regs += rec.reg_count
            start = warp.frame_starts[-1] if warp.frame_starts else 0
            arena = self.arena_regs
            last = rec.reg_count - 1
            for i in range(rec.reg_count):
                slot = start + i
                if slot < arena:
                    stats.smem_fill_regs += 1
                    out.append(
                        Uop(_EXEC, cfg.smem_latency, (rec.dst[i],), (), mix="SMEM")
                    )
                else:
                    # The caller resumes only once its demoted state is
                    # back: the last overflow fill blocks the warp (charged
                    # to the ``spill_fill`` CPI bucket while parked).
                    # Slots grow with i, so once one fill overflows the
                    # arena every later one does, and the last is i = last.
                    out.append(
                        Uop(_MEM, 1, (rec.dst[i],), (),
                            warp.spill_sectors(slot),
                            STREAM_SPILL, False, "SPILL_LD", i == last)
                    )
        else:
            self._expand_common(warp, rec, out, extra=0)


@dataclass(frozen=True)
class RegDemAbi(AbiModel):
    """ABI model wiring :class:`RegDemContext` into the plugin registry."""

    name: ClassVar[str] = "regdem"
    requires_analysis: ClassVar[bool] = True

    def make_context(
        self,
        trace: KernelTrace,
        config: GPUConfig,
        stats: SimStats,
        analysis: Optional[KernelStackAnalysis] = None,
        policy_memory: Optional[PolicyMemory] = None,
    ) -> LaunchContext:
        return RegDemContext(
            trace, config, stats, self._require_analysis(analysis)
        )
