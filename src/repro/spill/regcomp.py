"""Static register compression (arXiv 2006.05693).

The compiler re-encodes the kernel's register file at a fixed
compression ratio, so the block scheduler sees a *smaller* static
allocation — more blocks fit per SM on register-limited kernels.  The
ABI itself is untouched: call-boundary spills and fills are still
local-memory traffic, exactly like the baseline.  The costs:

* every instruction that reads or writes the compressed register file
  pays ``regcomp_extra_cycles`` to run the decompression network (the
  original paper hides most of this in the operand-collector stage; we
  charge it pessimistically on the execution paths);
* there is no register stack at all, so every call that pushes state
  spills to memory — each such call counts as one ``traps`` event,
  which is what the interprocedural ``regcomp`` scheme (capacity 0)
  predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Optional

from ..callgraph.analysis import KernelStackAnalysis
from ..cars.policy import PolicyMemory
from ..config.gpu_config import GPUConfig
from ..core.techniques import AbiModel, LaunchContext
from ..core.uop import Uop, UopKind, ctrl_uop
from ..core.warp import WarpCtx
from ..emu.trace import KernelTrace, TraceKind, TraceRecord
from ..metrics.counters import STREAM_SPILL, SimStats

_MEM = UopKind.MEM


def compressed_regs(baseline_regs: int, ratio_pct: int) -> int:
    """Scheduler-visible footprint after compression (at least one reg)."""
    return max(1, -(-baseline_regs * ratio_pct // 100))


class RegCompContext(LaunchContext):
    """Baseline-style expansion over a compressed static allocation."""

    blocking_fill_bucket = "spill_fill"

    def __init__(
        self,
        trace: KernelTrace,
        config: GPUConfig,
        stats: SimStats,
        analysis: KernelStackAnalysis,
    ) -> None:
        self.analysis = analysis
        super().__init__(trace, config, stats)

    def scheduler_regs_per_warp(self) -> int:
        return compressed_regs(
            self.trace.regs_per_warp_baseline, self.config.regcomp_ratio_pct
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
            if rec.push_count > 0:
                # No stack capacity: a call carrying callee-saved state
                # always round-trips it through memory.  Counted per
                # call (not per PUSH) so the static trap lower bound
                # (min_traps_per_call x calls) stays sound however the
                # compiler schedules the spill stores.
                stats.traps += 1
            out.append(ctrl_uop(cfg.ctrl_latency + cfg.regcomp_extra_cycles,
                                "CALL"))
        elif kind == TraceKind.RET:
            stats.returns += 1
            if rec.frame_release and warp.frame_starts:
                warp.spill_depth = warp.frame_starts.pop()
            out.append(ctrl_uop(cfg.ctrl_latency + cfg.regcomp_extra_cycles,
                                "RET"))
        elif kind == TraceKind.PUSH:
            stats.pushes += 1
            stats.push_regs += rec.reg_count
            start = warp.frame_starts[-1] if warp.frame_starts else 0
            for i in range(rec.reg_count):
                out.append(
                    Uop(_MEM, 1, (), (rec.srcs[i],),
                        warp.spill_sectors(start + i),
                        STREAM_SPILL, True, "SPILL_ST")
                )
        elif kind == TraceKind.POP:
            stats.pops += 1
            stats.pop_regs += rec.reg_count
            start = warp.frame_starts[-1] if warp.frame_starts else 0
            # Decompressed state must be back in the register file before
            # the caller resumes: the last fill blocks the warp (parked
            # cycles land in ``spill_fill``).
            last = rec.reg_count - 1
            for i in range(rec.reg_count):
                out.append(
                    Uop(_MEM, 1, (rec.dst[i],), (),
                        warp.spill_sectors(start + i),
                        STREAM_SPILL, False, "SPILL_LD", i == last)
                )
        else:
            self._expand_common(
                warp, rec, out, extra=cfg.regcomp_extra_cycles
            )


@dataclass(frozen=True)
class RegCompAbi(AbiModel):
    """ABI model wiring :class:`RegCompContext` into the plugin registry."""

    name: ClassVar[str] = "regcomp"
    requires_analysis: ClassVar[bool] = True

    def make_context(
        self,
        trace: KernelTrace,
        config: GPUConfig,
        stats: SimStats,
        analysis: Optional[KernelStackAnalysis] = None,
        policy_memory: Optional[PolicyMemory] = None,
    ) -> LaunchContext:
        return RegCompContext(
            trace, config, stats, self._require_analysis(analysis)
        )
