"""Functional SIMT emulator and dynamic-trace generation (the NVBit stage)."""

from .machine import Emulator, EmulationError, WarpState
from .memory import GlobalMemory, SharedMemory, LocalMemory, coalesce_sectors
from .trace import BlockTrace, KernelTrace, TraceKind, TraceRecord, WarpTrace
from .simt_stack import SimtEntry, make_call, make_ssy

__all__ = [
    "Emulator",
    "EmulationError",
    "WarpState",
    "GlobalMemory",
    "SharedMemory",
    "LocalMemory",
    "coalesce_sectors",
    "BlockTrace",
    "KernelTrace",
    "TraceKind",
    "TraceRecord",
    "WarpTrace",
    "SimtEntry",
    "make_call",
    "make_ssy",
]
