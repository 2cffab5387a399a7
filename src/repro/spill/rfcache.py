"""Compiler-managed register-file cache for cross-call register reuse.

A small per-warp cache (``rfcache_regs`` entries) carved out of the
register allocation holds the most recently pushed callee-saved
registers.  Shallow call chains — the common case the paper's
call-graph study documents — hit entirely in the cache: a push is a
1-cycle rename (like a CARS stack op) and the matching pop restores the
value without touching memory.  Chains deeper than the cache evict the
least-recently-pushed entries to local memory; a later pop of an
evicted slot must fetch it back as a blocking local-memory load.

The occupancy trade is the opposite of RegDem's: the cache *adds* to
the per-warp register demand floor (``kernel_fru + rfcache_regs``) but
never exceeds the linker's baseline worst case, so occupancy can only
improve while the hot spill traffic disappears.
"""

from __future__ import annotations

from collections import OrderedDict
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

_EXEC = UopKind.EXEC
_MEM = UopKind.MEM


class RegisterFileCache:
    """Per-warp LRU cache of spill-stack slots.

    Keys are spill-slot ids (the same address space
    ``WarpCtx.spill_sectors`` maps to local memory), so eviction and
    refill traffic lands on exactly the sectors the baseline ABI would
    have used for those registers.
    """

    __slots__ = ("capacity", "_slots")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._slots: "OrderedDict[int, None]" = OrderedDict()

    def insert(self, slot: int) -> Optional[int]:
        """Cache *slot*; return the evicted victim slot, if any."""
        self._slots[slot] = None
        self._slots.move_to_end(slot)
        if len(self._slots) > self.capacity:
            victim, _ = self._slots.popitem(last=False)
            return victim
        return None

    def lookup(self, slot: int) -> bool:
        """True (and consume the entry) iff *slot* is still cached."""
        if slot in self._slots:
            del self._slots[slot]
            return True
        return False


class RfCacheContext(LaunchContext):
    """Baseline-style expansion through a register-file cache."""

    blocking_fill_bucket = "spill_fill"

    def __init__(
        self,
        trace: KernelTrace,
        config: GPUConfig,
        stats: SimStats,
        analysis: KernelStackAnalysis,
    ) -> None:
        self.analysis = analysis
        # Call-free kernels carry no cache: demand and timing match the
        # baseline exactly.
        self.cache_regs = config.rfcache_regs if analysis.has_calls else 0
        super().__init__(trace, config, stats)

    def scheduler_regs_per_warp(self) -> int:
        if not self.analysis.has_calls:
            return self.trace.regs_per_warp_baseline
        # The cache is extra register demand on top of the kernel's own
        # frame, capped at the linker's baseline worst case (allocating
        # more than the baseline would be strictly worse).
        return min(
            self.trace.regs_per_warp_baseline,
            self.analysis.kernel_fru + self.cache_regs,
        )

    def _cache_for(self, warp: WarpCtx) -> RegisterFileCache:
        cache = warp.abi_state
        if cache is None:
            cache = RegisterFileCache(self.cache_regs)
            warp.abi_state = cache
        return cache

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
            cache = self._cache_for(warp)
            evicted = False
            for i in range(rec.reg_count):
                # The push itself is a 1-cycle rename into the cache.
                out.append(
                    Uop(_EXEC, cfg.stack_op_latency, (), (rec.srcs[i],),
                        mix="STACK")
                )
                victim = cache.insert(start + i)
                if victim is not None:
                    evicted = True
                    stats.rfcache_evictions += 1
                    out.append(
                        Uop(_MEM, 1, (), (),
                            warp.spill_sectors(victim),
                            STREAM_SPILL, True, "SPILL_ST")
                    )
            if evicted:
                stats.traps += 1
        elif kind == TraceKind.POP:
            stats.pops += 1
            stats.pop_regs += rec.reg_count
            start = warp.frame_starts[-1] if warp.frame_starts else 0
            cache = self._cache_for(warp)
            # The slots are distinct, so no lookup changes another's answer.
            hits = [cache.lookup(start + i) for i in range(rec.reg_count)]
            # An evicted register must be back before the caller can
            # resume; the last refill parks the warp (charged to the
            # ``spill_fill`` CPI bucket).
            last_miss = max(
                (i for i, hit in enumerate(hits) if not hit), default=-1
            )
            for i, hit in enumerate(hits):
                if hit:
                    stats.rfcache_hits += 1
                    out.append(
                        Uop(_EXEC, cfg.stack_op_latency, (rec.dst[i],), (),
                            mix="STACK")
                    )
                else:
                    stats.rfcache_misses += 1
                    out.append(
                        Uop(_MEM, 1, (rec.dst[i],), (),
                            warp.spill_sectors(start + i),
                            STREAM_SPILL, False, "SPILL_LD", i == last_miss)
                    )
        else:
            self._expand_common(warp, rec, out, extra=0)


@dataclass(frozen=True)
class RfCacheAbi(AbiModel):
    """ABI model wiring :class:`RfCacheContext` into the plugin registry."""

    name: ClassVar[str] = "rfcache"
    requires_analysis: ClassVar[bool] = True

    def make_context(
        self,
        trace: KernelTrace,
        config: GPUConfig,
        stats: SimStats,
        analysis: Optional[KernelStackAnalysis] = None,
        policy_memory: Optional[PolicyMemory] = None,
    ) -> LaunchContext:
        return RfCacheContext(
            trace, config, stats, self._require_analysis(analysis)
        )
