"""Micro-ops: what the SM pipeline actually issues.

Trace records are expanded into micro-ops by the active technique's ABI
model — e.g. a ``PUSH x4`` record becomes four local-store micro-ops in the
baseline but a single 1-cycle stack micro-op under CARS (plus trap traffic
when the register stack overflows).
"""

from __future__ import annotations

import enum
from typing import Tuple

from ..metrics.counters import STREAM_GLOBAL


class UopKind(enum.IntEnum):
    EXEC = 0  # ALU/FPU/SFU/SMEM/stack-rename: fixed-latency pipelined op
    MEM = 1  # L1D-bound load or store
    CTRL = 2  # branch/call/return bookkeeping
    BAR = 3  # block-wide barrier
    EXIT = 4  # warp termination


class Uop:
    """One issued micro-op.

    A µop is read-only once built: a launch context shares one µop
    object between every warp and every position that expands the same
    trace record (see ``LaunchContext.decoded``), so code that needs a
    different µop builds a new one and never assigns to a field.

    Attributes:
        kind: pipeline treatment.
        latency: completion latency for EXEC (dst ready at issue+latency).
        dst/srcs: architectural registers for the scoreboard.
        sectors: L1D sector addresses (MEM only).
        stream: access stream tag (MEM only).
        is_store: MEM direction.
        mix: trace-kind name for the Fig 13 instruction-mix counters.
        blocking: MEM loads that stall the warp until completion (CARS
            trap fills and context-switch fills, whose destination is the
            renamed stack region rather than named architectural registers).
    """

    __slots__ = (
        "kind",
        "latency",
        "dst",
        "srcs",
        "sectors",
        "stream",
        "is_store",
        "mix",
        "blocking",
        "deps",
    )

    def __init__(
        self,
        kind: UopKind,
        latency: int = 1,
        dst: Tuple[int, ...] = (),
        srcs: Tuple[int, ...] = (),
        sectors: Tuple[int, ...] = (),
        stream: str = STREAM_GLOBAL,
        is_store: bool = False,
        mix: str = "ALU",
        blocking: bool = False,
    ) -> None:
        self.kind = kind
        self.latency = latency
        self.dst = dst
        self.srcs = srcs
        self.sectors = sectors
        self.stream = stream
        self.is_store = is_store
        self.mix = mix
        self.blocking = blocking
        # Scoreboard registers this µop waits on (read-after-write on srcs,
        # write-after-write on dst), precomputed once for the issue loop.
        self.deps = srcs + dst if dst else srcs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Uop {self.kind.name} {self.mix} lat={self.latency}>"


def exec_uop(latency: int, dst=(), srcs=(), mix: str = "ALU") -> Uop:
    """Fixed-latency execution micro-op."""
    return Uop(UopKind.EXEC, latency=latency, dst=dst, srcs=srcs, mix=mix)


def mem_uop(
    sectors,
    stream: str,
    is_store: bool,
    dst=(),
    srcs=(),
    mix: str = "MEM",
    blocking: bool = False,
) -> Uop:
    """L1D-bound memory micro-op over *sectors*."""
    return Uop(
        UopKind.MEM,
        dst=dst,
        srcs=srcs,
        sectors=tuple(sectors),
        stream=stream,
        is_store=is_store,
        mix=mix,
        blocking=blocking,
    )


def ctrl_uop(latency: int, mix: str = "BRANCH") -> Uop:
    """Control micro-op (branch/call/return bookkeeping)."""
    return Uop(UopKind.CTRL, latency=latency, mix=mix)


def bar_uop() -> Uop:
    """Barrier micro-op."""
    return Uop(UopKind.BAR, mix="BAR")


def exit_uop() -> Uop:
    """Warp-exit micro-op."""
    return Uop(UopKind.EXIT, mix="EXIT")
