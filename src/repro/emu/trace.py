"""Dynamic trace records produced by the functional emulator.

The emulator plays the role NVBit plays in the paper: it executes each warp
functionally and emits a warp-level dynamic instruction stream.  The timing
model (:mod:`repro.core`) replays these streams under different techniques
(baseline spills/fills, CARS renaming, LTO, ...), so records carry exactly
what timing needs: operand registers for the scoreboard, coalesced memory
sectors for the L1D, and call/return metadata for the register stack.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple


class TraceKind(enum.IntEnum):
    """Dynamic instruction categories the timing model distinguishes."""

    ALU = 0
    FPU = 1
    SFU = 2
    SMEM = 3
    GLOBAL_LD = 4
    GLOBAL_ST = 5
    LOCAL_LD = 6  # genuine (non-spill) local access
    LOCAL_ST = 7
    PUSH = 8  # ABI callee-saved save (spill in baseline, rename in CARS)
    POP = 9  # ABI callee-saved restore (fill in baseline, rename in CARS)
    CALL = 10
    RET = 11
    BRANCH = 12  # SSY/CBRA/BRA/SYNC
    BAR = 13
    EXIT = 14


class TraceRecord:
    """One dynamic warp-level instruction.

    A record is read-only once the emulator creates it.  The emulator
    shares one record object between every execution whose fields are the
    same (same static instruction and active-lane count, for example), so
    the same object can sit at many positions of one warp's stream and in
    many warps' streams.  Code that needs a different record builds a new
    one; it never assigns to a field.

    Attributes:
        kind: the :class:`TraceKind`.
        dst: destination architectural registers (scoreboard).
        srcs: source architectural registers (scoreboard).
        sectors: coalesced 32B-sector addresses for global accesses.
        local_offset: static offset for genuine local accesses.
        reg_count: registers saved/restored (PUSH/POP).
        callee: callee name (CALL) or returning function (RET).
        fru: callee's FRU (CALL) / returning function's FRU (RET).
        push_count: callee's callee-saved count (CALL), used by the timing
            model to expand baseline spill traffic.
        frame_release: True on the RET that releases the register frame
            (all threads returned — the paper's SIMT-stack call bit).
        active: number of active lanes.
    """

    __slots__ = (
        "kind",
        "dst",
        "srcs",
        "sectors",
        "local_offset",
        "reg_count",
        "callee",
        "fru",
        "push_count",
        "frame_release",
        "active",
    )

    def __init__(
        self,
        kind: TraceKind,
        dst: Tuple[int, ...] = (),
        srcs: Tuple[int, ...] = (),
        sectors: Tuple[int, ...] = (),
        local_offset: int = 0,
        reg_count: int = 0,
        callee: Optional[str] = None,
        fru: int = 0,
        push_count: int = 0,
        frame_release: bool = False,
        active: int = 0,
    ) -> None:
        self.kind = kind
        self.dst = dst
        self.srcs = srcs
        self.sectors = sectors
        self.local_offset = local_offset
        self.reg_count = reg_count
        self.callee = callee
        self.fru = fru
        self.push_count = push_count
        self.frame_release = frame_release
        self.active = active

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.kind is TraceKind.CALL:
            extra = f" -> {self.callee} (fru={self.fru})"
        elif self.kind in (TraceKind.PUSH, TraceKind.POP):
            extra = f" x{self.reg_count}"
        elif self.sectors:
            extra = f" sectors={len(self.sectors)}"
        return f"<{self.kind.name}{extra} active={self.active}>"


class WarpTrace:
    """The full dynamic stream of one warp."""

    __slots__ = ("warp_id", "records")

    def __init__(self, warp_id: int, records: Optional[List[TraceRecord]] = None):
        self.warp_id = warp_id
        self.records = records if records is not None else []

    def __len__(self) -> int:
        return len(self.records)

    def count(self, kind: TraceKind) -> int:
        return sum(1 for r in self.records if r.kind == kind)


class BlockTrace:
    """Traces of all warps in one thread block."""

    __slots__ = ("block_id", "warps")

    def __init__(self, block_id: int, warps: List[WarpTrace]):
        self.block_id = block_id
        self.warps = warps

    @property
    def dynamic_instructions(self) -> int:
        return sum(len(w) for w in self.warps)


class KernelTrace:
    """Traces of one kernel launch plus its static launch metadata."""

    __slots__ = (
        "kernel",
        "blocks",
        "threads_per_block",
        "regs_per_warp_baseline",
        "shared_mem_bytes",
        "code_bytes",
    )

    def __init__(
        self,
        kernel: str,
        blocks: List[BlockTrace],
        threads_per_block: int,
        regs_per_warp_baseline: int,
        shared_mem_bytes: int,
        code_bytes: int,
    ) -> None:
        self.kernel = kernel
        self.blocks = blocks
        self.threads_per_block = threads_per_block
        self.regs_per_warp_baseline = regs_per_warp_baseline
        self.shared_mem_bytes = shared_mem_bytes
        self.code_bytes = code_bytes

    @property
    def dynamic_instructions(self) -> int:
        return sum(b.dynamic_instructions for b in self.blocks)

    def count(self, kind: TraceKind) -> int:
        return sum(w.count(kind) for b in self.blocks for w in b.warps)

    def calls_per_kilo_instruction(self) -> float:
        """The paper's CPKI metric (Table I)."""
        total = self.dynamic_instructions
        if total == 0:
            return 0.0
        return 1000.0 * self.count(TraceKind.CALL) / total

    def max_dynamic_call_depth(self) -> int:
        """Deepest observed dynamic call nesting (Table I call depth)."""
        deepest = 0
        for block in self.blocks:
            for warp in block.warps:
                depth = 0
                for record in warp.records:
                    if record.kind is TraceKind.CALL:
                        depth += 1
                        deepest = max(deepest, depth)
                    elif record.kind is TraceKind.RET and record.frame_release:
                        depth -= 1
        return deepest
