"""Trace serialization: save/load dynamic traces as files.

Accel-Sim's methodology is trace-*file* driven: NVBit instruments a real
run once, and the simulator replays the trace archive many times.  This
module provides the same workflow — emulate once with
:class:`~repro.emu.machine.Emulator`, save the :class:`KernelTrace` to a
gzipped JSON-lines archive, and replay it in later processes without
re-running the emulator::

    save_trace(trace, "pta_k1.trace.gz")
    trace = load_trace("pta_k1.trace.gz")

Format: line 1 is a JSON header (magic, version, launch metadata); every
following line is one warp's records as a JSON array of compact tuples.
The format is versioned and validated on load.
"""

from __future__ import annotations

import gzip
import json
import zlib
from typing import IO, List

from .trace import BlockTrace, KernelTrace, TraceKind, TraceRecord, WarpTrace

MAGIC = "repro-trace"
VERSION = 1


class TraceFormatError(Exception):
    """Raised when a trace file is malformed or from a different version."""


def _encode_record(record: TraceRecord) -> list:
    return [
        int(record.kind),
        list(record.dst),
        list(record.srcs),
        list(record.sectors),
        record.local_offset,
        record.reg_count,
        record.callee,
        record.fru,
        record.push_count,
        1 if record.frame_release else 0,
        record.active,
    ]


def _decode_record(raw: list) -> TraceRecord:
    try:
        (kind, dst, srcs, sectors, local_offset, reg_count, callee, fru,
         push_count, frame_release, active) = raw
        return TraceRecord(
            kind=TraceKind(kind),
            dst=tuple(dst),
            srcs=tuple(srcs),
            sectors=tuple(sectors),
            local_offset=local_offset,
            reg_count=reg_count,
            callee=callee,
            fru=fru,
            push_count=push_count,
            frame_release=bool(frame_release),
            active=active,
        )
    except (ValueError, TypeError) as exc:
        raise TraceFormatError(f"bad trace record: {exc}") from exc


def save_trace(trace: KernelTrace, path: str) -> None:
    """Write *trace* to a gzipped JSON-lines archive at *path*."""
    header = {
        "magic": MAGIC,
        "version": VERSION,
        "kernel": trace.kernel,
        "threads_per_block": trace.threads_per_block,
        "regs_per_warp_baseline": trace.regs_per_warp_baseline,
        "shared_mem_bytes": trace.shared_mem_bytes,
        "code_bytes": trace.code_bytes,
        "blocks": [
            {"block_id": block.block_id, "warps": [w.warp_id for w in block.warps]}
            for block in trace.blocks
        ],
    }
    with gzip.open(path, "wt") as handle:
        handle.write(json.dumps(header) + "\n")
        for block in trace.blocks:
            for warp in block.warps:
                handle.write(
                    json.dumps([_encode_record(r) for r in warp.records],
                               separators=(",", ":"))
                    + "\n"
                )


def load_trace(path: str) -> KernelTrace:
    """Read a trace archive written by :func:`save_trace`.

    Raises :class:`TraceFormatError`, chained to the underlying error, for
    any archive that is not one: a damaged or truncated gzip stream, bad
    JSON, or a header or record with missing or mistyped fields.
    """
    try:
        with gzip.open(path, "rt") as handle:
            return _read_archive(handle, path)
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise TraceFormatError(f"{path!r}: damaged gzip stream: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path!r}: bad JSON: {exc}") from exc
    except (KeyError, TypeError, UnicodeDecodeError) as exc:
        raise TraceFormatError(
            f"{path!r}: malformed trace archive: {type(exc).__name__}: {exc}"
        ) from exc


def _read_archive(handle: IO[str], path: str) -> KernelTrace:
    try:
        header = json.loads(handle.readline())
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"bad trace header: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise TraceFormatError(f"{path!r} is not a repro trace archive")
    if header.get("version") != VERSION:
        raise TraceFormatError(
            f"trace version {header.get('version')} unsupported "
            f"(expected {VERSION})"
        )
    blocks: List[BlockTrace] = []
    for block_meta in header["blocks"]:
        warps = []
        for warp_id in block_meta["warps"]:
            line = handle.readline()
            if not line:
                raise TraceFormatError("trace archive truncated")
            records = [_decode_record(r) for r in json.loads(line)]
            warps.append(WarpTrace(warp_id, records))
        blocks.append(BlockTrace(block_meta["block_id"], warps))
    return KernelTrace(
        kernel=header["kernel"],
        blocks=blocks,
        threads_per_block=header["threads_per_block"],
        regs_per_warp_baseline=header["regs_per_warp_baseline"],
        shared_mem_bytes=header["shared_mem_bytes"],
        code_bytes=header["code_bytes"],
    )
