"""Functional SIMT emulator.

Executes a linked module warp by warp (32 lanes of int64 state), handling
structured divergence through the SIMT reconvergence stack, the full
function-call ABI (PUSH/POP of callee-saved blocks, divergent returns,
indirect calls that fan a warp out to several callees), barriers, and the
three memory spaces.  Its output is the dynamic :class:`~repro.emu.trace`
stream that the timing model replays — the role NVBit traces play in the
paper's methodology (Section V).

Each function is decoded once per :class:`Emulator` into a pc-indexed
table of :class:`_Slot` entries (handler, instruction, trace kind), so a
dynamic instruction costs one list index and one call.  A record whose
fields the static instruction and the active-lane count fix is built once
and shared by every execution that emits it; only global loads and stores,
whose sectors vary per execution, get a record each.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..isa.instructions import Instruction, WARP_SIZE, MAX_REGS, NUM_PREDS
from ..isa.opcodes import CmpOp, Opcode
from ..isa.program import Function, Module
from ..frontend import abi
from .memory import GlobalMemory, LocalMemory, SharedMemory, coalesce_sectors
from .simt_stack import SimtEntry, make_call, make_ssy
from .trace import BlockTrace, KernelTrace, TraceKind, TraceRecord, WarpTrace


class EmulationError(Exception):
    """Raised when a program misbehaves at emulation time."""


_MUFU_MULT = np.int64(0x9E3779B1)
_SHIFT_MASK = np.int64(63)


class _Frame:
    """One function activation: saved callee-saved register values."""

    __slots__ = ("func_name", "saved")

    def __init__(self, func_name: str) -> None:
        self.func_name = func_name
        # Each entry: (start, count, values[count, WARP_SIZE])
        self.saved: List[Tuple[int, int, np.ndarray]] = []


class WarpState:
    """Architectural state of one warp during emulation.

    The lane mask ``active`` is replaced, never written in place; its
    setter keeps ``nactive``, the active-lane count every trace record
    carries, in step with it.
    """

    def __init__(self, warp_id: int, block_id: int, module: Module, kernel: Function,
                 threads_per_block: int, grid_blocks: int) -> None:
        self.warp_id = warp_id
        self.block_id = block_id
        self.module = module
        self.func = kernel
        self.pc = 0
        self.regs = np.zeros((MAX_REGS, WARP_SIZE), dtype=np.int64)
        self.preds = np.zeros((NUM_PREDS, WARP_SIZE), dtype=bool)
        # Row views of ``regs``/``preds``: indexing a list is far cheaper
        # than the new NumPy view ``regs[r]`` makes on every access.
        self.rows = list(self.regs)
        self.pred_rows = list(self.preds)
        self.active = np.ones(WARP_SIZE, dtype=bool)
        self.exited = np.zeros(WARP_SIZE, dtype=bool)
        self.simt: List[SimtEntry] = []
        self.frames: List[_Frame] = []
        self.local = LocalMemory()
        self.trace = WarpTrace(warp_id)
        self.emit = self.trace.records.append
        self.done = False
        self.executed = 0
        lanes = np.arange(WARP_SIZE, dtype=np.int64)
        self.regs[abi.REG_TID] = warp_id * WARP_SIZE + lanes
        self.regs[abi.REG_BID] = block_id
        self.regs[abi.REG_NTID] = threads_per_block
        self.regs[abi.REG_NCTAID] = grid_blocks

    @property
    def active(self) -> np.ndarray:
        return self._active

    @active.setter
    def active(self, mask: np.ndarray) -> None:
        self._active = mask
        self.nactive = int(np.count_nonzero(mask))

    @property
    def call_depth(self) -> int:
        return len(self.frames)


class _Slot:
    """One decoded static instruction.

    ``execute`` is its handler, ``kind`` the record kind it emits and
    ``ufunc`` the lane operation of a two-operand ALU op.  ``records``
    holds the shared records it has emitted, keyed by active-lane count
    (by count and frame release for RET).
    """

    __slots__ = ("execute", "kind", "ufunc", "inst", "records")

    def __init__(self, execute: Callable, kind: TraceKind,
                 ufunc: Optional[np.ufunc], inst: Instruction) -> None:
        self.execute = execute
        self.kind = kind
        self.ufunc = ufunc
        self.inst = inst
        self.records: Dict[object, TraceRecord] = {}


class Emulator:
    """Drives warps of a kernel launch and collects their traces."""

    def __init__(
        self,
        module: Module,
        gmem: Optional[GlobalMemory] = None,
        max_warp_instructions: int = 2_000_000,
        max_call_depth: int = 512,
    ) -> None:
        self.module = module
        self.gmem = gmem if gmem is not None else GlobalMemory()
        self.max_warp_instructions = max_warp_instructions
        self.max_call_depth = max_call_depth
        # Decode tables by function name, and the shared CALL records by
        # (callee, active lanes); both filled on first use.
        self._code: Dict[str, List[_Slot]] = {}
        self._call_records: Dict[Tuple[str, int], TraceRecord] = {}

    # ------------------------------------------------------------------
    # Launch API
    # ------------------------------------------------------------------

    def launch(
        self,
        kernel_name: str,
        grid_blocks: int,
        threads_per_block: int,
        params: Sequence[int] = (),
    ) -> KernelTrace:
        """Run a kernel over the whole grid and return its trace."""
        kernel = self.module.kernel(kernel_name)
        if grid_blocks < 1 or threads_per_block < WARP_SIZE:
            raise EmulationError(
                f"empty launch: grid_blocks={grid_blocks}, "
                f"threads_per_block={threads_per_block} (need at least one "
                f"block of at least {WARP_SIZE} threads)"
            )
        if threads_per_block % WARP_SIZE != 0:
            raise EmulationError("threads_per_block must be a multiple of 32")
        if len(params) > abi.MAX_REG_ARGS:
            raise EmulationError("too many kernel parameters")
        blocks = [
            self._run_block(kernel, block_id, threads_per_block, grid_blocks, params)
            for block_id in range(grid_blocks)
        ]
        return KernelTrace(
            kernel=kernel_name,
            blocks=blocks,
            threads_per_block=threads_per_block,
            regs_per_warp_baseline=self.module.worst_case_regs.get(
                kernel_name, kernel.num_regs
            ),
            shared_mem_bytes=kernel.shared_mem_bytes,
            code_bytes=self.module.code_bytes,
        )

    # ------------------------------------------------------------------
    # Block / warp driving
    # ------------------------------------------------------------------

    def _run_block(
        self,
        kernel: Function,
        block_id: int,
        threads_per_block: int,
        grid_blocks: int,
        params: Sequence[int],
    ) -> BlockTrace:
        num_warps = threads_per_block // WARP_SIZE
        shared = SharedMemory(max(kernel.shared_mem_bytes, 4))
        warps = [
            WarpState(w, block_id, self.module, kernel, threads_per_block, grid_blocks)
            for w in range(num_warps)
        ]
        for warp in warps:
            for i, value in enumerate(params):
                warp.regs[abi.ARG_REG_BASE + i] = value

        # Run every warp to its next barrier (or completion), then release.
        while True:
            progressed = False
            at_barrier = 0
            for warp in warps:
                if warp.done:
                    continue
                status = self._run_warp(warp, shared)
                progressed = True
                if status == "bar":
                    at_barrier += 1
            live = sum(1 for w in warps if not w.done)
            if live == 0:
                break
            if at_barrier != live:
                raise EmulationError(
                    f"block {block_id}: barrier divergence "
                    f"({at_barrier}/{live} warps at the barrier)"
                )
            if not progressed:  # pragma: no cover - defensive
                raise EmulationError(f"block {block_id}: no progress")
        return BlockTrace(block_id, [w.trace for w in warps])

    def _decoded(self, func: Function) -> List[_Slot]:
        """*func*'s pc-indexed decode table, built on first use.

        Decoding never fails: an opcode without a handler decodes to one
        that raises :class:`EmulationError` when it is executed.
        """
        code = self._code.get(func.name)
        if code is None:
            code = self._code[func.name] = [
                _Slot(*_DECODE.get(inst.op, _UNHANDLED), inst)
                for inst in func.instructions
            ]
        return code

    def _run_warp(self, warp: WarpState, shared: SharedMemory) -> str:
        """Execute until the warp hits a barrier or finishes."""
        limit = self.max_warp_instructions
        func = code = None
        while not warp.done:
            if warp.executed >= limit:
                raise EmulationError(
                    f"warp {warp.warp_id}: exceeded "
                    f"{self.max_warp_instructions} dynamic instructions"
                )
            if warp.func is not func:
                func = warp.func
                code = self._decoded(func)
            slot = code[warp.pc]
            warp.executed += 1
            if slot.execute(self, warp, slot, shared):
                return "bar"
        return "done"

    # ------------------------------------------------------------------
    # Instruction semantics
    #
    # Handlers take (warp, slot, shared), advance the pc and return None;
    # only BAR returns True, to suspend the warp at the barrier.  A write
    # assigns the whole row when all 32 lanes are active and masks it
    # otherwise.
    # ------------------------------------------------------------------

    def _write(self, warp: WarpState, reg: int, values: np.ndarray) -> None:
        if warp.nactive == WARP_SIZE:
            warp.rows[reg][...] = values
        else:
            np.copyto(warp.rows[reg], values, where=warp.active)

    def _emit_shared(self, warp: WarpState, slot: _Slot, key=None, **fields) -> None:
        """Emit the record *slot* shares between executions with the same
        *key* (default: the active-lane count), built from *fields* on
        first use."""
        n = warp.nactive
        if key is None:
            key = n
        rec = slot.records.get(key)
        if rec is None:
            rec = slot.records[key] = TraceRecord(slot.kind, active=n, **fields)
        warp.emit(rec)

    def _emit_operands(self, warp: WarpState, slot: _Slot) -> None:
        """``_emit_shared`` for an op that reports its dst and srcs,
        without the keyword arguments the hot ALU path cannot afford."""
        n = warp.nactive
        rec = slot.records.get(n)
        if rec is None:
            inst = slot.inst
            rec = slot.records[n] = TraceRecord(
                slot.kind, dst=inst.dst, srcs=inst.srcs, active=n
            )
        warp.emit(rec)

    def _exec_unhandled(self, warp: WarpState, slot: _Slot, shared) -> None:
        raise EmulationError(f"unhandled opcode {slot.inst.op}")

    # --- ALU family ---

    def _exec_mov(self, warp: WarpState, slot: _Slot, shared) -> None:
        inst = slot.inst
        self._write(warp, inst.dst[0], warp.rows[inst.srcs[0]])
        self._emit_operands(warp, slot)
        warp.pc += 1

    def _exec_movi(self, warp: WarpState, slot: _Slot, shared) -> None:
        inst = slot.inst
        if warp.nactive == WARP_SIZE:
            warp.rows[inst.dst[0]].fill(inst.imm)
        else:
            np.copyto(warp.rows[inst.dst[0]], np.int64(inst.imm), where=warp.active)
        self._emit_operands(warp, slot)
        warp.pc += 1

    def _exec_binary(self, warp: WarpState, slot: _Slot, shared) -> None:
        """A two-operand lane op (``slot.ufunc``) such as IADD or XOR."""
        inst = slot.inst
        rows = warp.rows
        s = inst.srcs
        if warp.nactive == WARP_SIZE:
            slot.ufunc(rows[s[0]], rows[s[1]], out=rows[inst.dst[0]])
        else:
            np.copyto(rows[inst.dst[0]], slot.ufunc(rows[s[0]], rows[s[1]]),
                      where=warp.active)
        self._emit_operands(warp, slot)
        warp.pc += 1

    def _exec_alu(self, warp: WarpState, slot: _Slot, shared) -> None:
        """The ALU ops that are not a single two-operand ufunc."""
        rows = warp.rows
        inst = slot.inst
        op = inst.op
        s = inst.srcs
        if op is Opcode.IMAD or op is Opcode.FFMA:
            result = rows[s[0]] * rows[s[1]] + rows[s[2]]
        elif op is Opcode.SHL:
            result = rows[s[0]] << (rows[s[1]] & _SHIFT_MASK)
        elif op is Opcode.SHR:
            result = rows[s[0]] >> (rows[s[1]] & _SHIFT_MASK)
        elif op is Opcode.MUFU:
            x = rows[s[0]]
            result = ((x ^ (x >> np.int64(7))) * _MUFU_MULT) & np.int64(0x7FFFFFFF)
        elif op is Opcode.SEL:
            result = np.where(warp.pred_rows[inst.psrc], rows[s[0]], rows[s[1]])
        else:  # pragma: no cover - defensive
            raise EmulationError(f"not an ALU op: {op}")
        self._write(warp, inst.dst[0], result)
        self._emit_operands(warp, slot)
        warp.pc += 1

    def _exec_setp(self, warp: WarpState, slot: _Slot, shared) -> None:
        inst = slot.inst
        a = warp.rows[inst.srcs[0]]
        b = warp.rows[inst.srcs[1]]
        cmp_op = CmpOp(inst.imm)
        if cmp_op is CmpOp.EQ:
            result = a == b
        elif cmp_op is CmpOp.NE:
            result = a != b
        elif cmp_op is CmpOp.LT:
            result = a < b
        elif cmp_op is CmpOp.LE:
            result = a <= b
        elif cmp_op is CmpOp.GT:
            result = a > b
        else:
            result = a >= b
        if warp.nactive == WARP_SIZE:
            warp.pred_rows[inst.pdst][...] = result
        else:
            np.copyto(warp.pred_rows[inst.pdst], result, where=warp.active)
        self._emit_shared(warp, slot, srcs=inst.srcs)
        warp.pc += 1

    # --- memory ---

    def _exec_ldg(self, warp: WarpState, slot: _Slot, shared) -> None:
        inst = slot.inst
        addrs = warp.rows[inst.srcs[0]] + np.int64(inst.imm)
        if warp.nactive == WARP_SIZE:
            active_addrs = addrs
            warp.rows[inst.dst[0]][...] = self.gmem.load(addrs)
        else:
            active = warp.active
            active_addrs = addrs[active]
            values = np.zeros(WARP_SIZE, dtype=np.int64)
            if active_addrs.size:
                values[active] = self.gmem.load(active_addrs)
            np.copyto(warp.rows[inst.dst[0]], values, where=active)
        warp.emit(TraceRecord(
            slot.kind,
            dst=inst.dst,
            srcs=inst.srcs,
            sectors=coalesce_sectors(active_addrs),
            active=warp.nactive,
        ))
        warp.pc += 1

    def _exec_stg(self, warp: WarpState, slot: _Slot, shared) -> None:
        inst = slot.inst
        addrs = warp.rows[inst.srcs[0]] + np.int64(inst.imm)
        values = warp.rows[inst.srcs[1]]
        if warp.nactive == WARP_SIZE:
            active_addrs = addrs
            self.gmem.store(addrs, values)
        else:
            active_addrs = addrs[warp.active]
            if active_addrs.size:
                self.gmem.store(active_addrs, values[warp.active])
        warp.emit(TraceRecord(
            slot.kind,
            srcs=inst.srcs,
            sectors=coalesce_sectors(active_addrs),
            active=warp.nactive,
        ))
        warp.pc += 1

    def _exec_lds(self, warp: WarpState, slot: _Slot, shared) -> None:
        inst = slot.inst
        addrs = warp.rows[inst.srcs[0]] + np.int64(inst.imm)
        values = np.zeros(WARP_SIZE, dtype=np.int64)
        if warp.nactive:
            values[warp.active] = shared.load(addrs[warp.active])
        self._write(warp, inst.dst[0], values)
        self._emit_operands(warp, slot)
        warp.pc += 1

    def _exec_sts(self, warp: WarpState, slot: _Slot, shared) -> None:
        inst = slot.inst
        addrs = warp.rows[inst.srcs[0]] + np.int64(inst.imm)
        values = warp.rows[inst.srcs[1]]
        if warp.nactive:
            shared.store(addrs[warp.active], values[warp.active])
        self._emit_shared(warp, slot, srcs=inst.srcs)
        warp.pc += 1

    def _exec_ldl(self, warp: WarpState, slot: _Slot, shared) -> None:
        inst = slot.inst
        self._write(warp, inst.dst[0], warp.local.load(inst.imm))
        self._emit_shared(warp, slot, dst=inst.dst, local_offset=inst.imm)
        warp.pc += 1

    def _exec_stl(self, warp: WarpState, slot: _Slot, shared) -> None:
        inst = slot.inst
        warp.local.store(inst.imm, warp.rows[inst.srcs[0]], warp.active)
        self._emit_shared(warp, slot, srcs=inst.srcs, local_offset=inst.imm)
        warp.pc += 1

    # --- register stack (ABI save/restore) ---

    def _exec_push(self, warp: WarpState, slot: _Slot, shared) -> None:
        start, count = slot.inst.push_regs
        if not warp.frames:
            raise EmulationError(f"{warp.func.name}: PUSH outside any frame")
        warp.frames[-1].saved.append(
            (start, count, warp.regs[start : start + count].copy())
        )
        self._emit_shared(warp, slot, srcs=tuple(range(start, start + count)),
                          reg_count=count)
        warp.pc += 1

    def _exec_pop(self, warp: WarpState, slot: _Slot, shared) -> None:
        start, count = slot.inst.push_regs
        if not warp.frames:
            raise EmulationError(f"{warp.func.name}: POP outside any frame")
        frame = warp.frames[-1]
        for s_start, s_count, values in reversed(frame.saved):
            if s_start == start and s_count == count:
                # Masked, non-destructive restore: lanes still inside the
                # function (divergent early return) keep their live values.
                block = warp.regs[start : start + count]
                if warp.nactive == WARP_SIZE:
                    block[...] = values
                else:
                    np.copyto(block, values, where=warp.active)
                break
        else:
            raise EmulationError(
                f"{warp.func.name}: POP R{start}x{count} with no matching PUSH"
            )
        self._emit_shared(warp, slot, dst=tuple(range(start, start + count)),
                          reg_count=count)
        warp.pc += 1

    # --- calls / returns ---

    def _enter_function(
        self, warp: WarpState, target: str, ret_pc: Optional[int], to_dispatch: bool
    ) -> None:
        if warp.call_depth >= self.max_call_depth:
            raise EmulationError(
                f"call depth exceeded {self.max_call_depth} "
                f"(unbounded recursion in {warp.func.name}?)"
            )
        callee = self.module.function(target)
        warp.frames.append(_Frame(target))
        entry = make_call(
            warp.active,
            None if to_dispatch else ret_pc,
            ret_func=warp.func.name,
            frame_index=len(warp.frames) - 1,
        )
        warp.simt.append(entry)
        key = (target, warp.nactive)
        rec = self._call_records.get(key)
        if rec is None:
            saved = callee.callee_saved[1] if callee.callee_saved else 0
            rec = self._call_records[key] = TraceRecord(
                TraceKind.CALL,
                callee=target,
                fru=callee.fru,
                push_count=saved,
                active=warp.nactive,
            )
        warp.emit(rec)
        warp.func = callee
        warp.pc = 0

    def _exec_call(self, warp: WarpState, slot: _Slot, shared) -> None:
        self._enter_function(warp, slot.inst.target, warp.pc + 1, to_dispatch=False)

    def _exec_calli(self, warp: WarpState, slot: _Slot, shared) -> None:
        inst = slot.inst
        targets = inst.call_targets
        sel = warp.rows[inst.srcs[0]] % len(targets)
        active_sel = sel[warp.active]
        unique = np.unique(active_sel)
        if unique.size == 1:
            self._enter_function(
                warp, targets[int(unique[0])], warp.pc + 1, to_dispatch=False
            )
            return
        # Threads of the same warp call different functions: serialize the
        # groups through a dispatch scope (paper Section III-C case 3).
        dispatch = make_ssy(warp.active, warp.pc + 1)
        groups = []
        for idx in unique:
            mask = warp.active & (sel == idx)
            groups.append((int(idx), mask))
        for idx, mask in groups[1:]:
            dispatch.pending.append((0, mask, targets[idx]))
        warp.simt.append(dispatch)
        first_idx, first_mask = groups[0]
        warp.active = first_mask.copy()
        self._enter_function(warp, targets[first_idx], None, to_dispatch=True)

    def _exec_ret(self, warp: WarpState, slot: _Slot, shared) -> None:
        entry = self._innermost_call(warp)
        entry.done = entry.done | warp.active
        release = entry.all_done
        self._emit_shared(
            warp, slot, (warp.nactive, release),
            callee=warp.func.name, fru=warp.func.fru, frame_release=release,
        )
        warp.active = np.zeros(WARP_SIZE, dtype=bool)
        self._advance(warp)

    def _innermost_call(self, warp: WarpState) -> SimtEntry:
        for entry in reversed(warp.simt):
            if entry.is_call:
                return entry
        raise EmulationError(f"{warp.func.name}: RET with no call scope")

    def _exec_exit(self, warp: WarpState, slot: _Slot, shared) -> None:
        self._emit_shared(warp, slot)
        warp.exited |= warp.active
        warp.active = np.zeros(WARP_SIZE, dtype=bool)
        self._advance(warp)

    # --- structured divergence ---

    def _exec_ssy(self, warp: WarpState, slot: _Slot, shared) -> None:
        warp.simt.append(make_ssy(warp.active, warp.func.label_index(slot.inst.target)))
        self._emit_shared(warp, slot)
        warp.pc += 1

    def _exec_bra(self, warp: WarpState, slot: _Slot, shared) -> None:
        self._emit_shared(warp, slot)
        warp.pc = warp.func.label_index(slot.inst.target)

    def _exec_cbra(self, warp: WarpState, slot: _Slot, shared) -> None:
        inst = slot.inst
        pred = warp.pred_rows[inst.psrc]
        taken = warp.active & pred
        not_taken = warp.active & ~pred
        self._emit_shared(warp, slot)
        target = warp.func.label_index(inst.target)
        if not taken.any():
            warp.pc += 1
            return
        if not not_taken.any():
            warp.pc = target
            return
        scope = self._innermost_ssy(warp)
        scope.pending.append((warp.pc + 1, not_taken.copy(), None))
        warp.active = taken.copy()
        warp.pc = target

    def _innermost_ssy(self, warp: WarpState) -> SimtEntry:
        # The compiler emits SSY before any potentially-divergent branch, so
        # the top of the SIMT stack must be a reconvergence scope here.
        if warp.simt and not warp.simt[-1].is_call:
            return warp.simt[-1]
        raise EmulationError(
            f"{warp.func.name}: divergent branch outside an SSY scope"
        )

    def _exec_sync(self, warp: WarpState, slot: _Slot, shared) -> None:
        self._emit_shared(warp, slot)
        if not warp.simt or warp.simt[-1].is_call:
            raise EmulationError(f"{warp.func.name}: SYNC outside an SSY scope")
        entry = warp.simt[-1]
        entry.done = entry.done | warp.active
        warp.active = np.zeros(WARP_SIZE, dtype=bool)
        self._advance(warp)

    def _exec_nop(self, warp: WarpState, slot: _Slot, shared) -> None:
        self._emit_shared(warp, slot)
        warp.pc += 1

    def _exec_bar(self, warp: WarpState, slot: _Slot, shared) -> bool:
        self._emit_shared(warp, slot)
        warp.pc += 1
        return True

    # --- the unwinder ---

    def _advance(self, warp: WarpState) -> None:
        """Resume the next runnable lane group after lanes left the scope."""
        while warp.simt:
            entry = warp.simt[-1]
            if not entry.is_call:
                if entry.pending:
                    pc, mask, enter_func = entry.pending.pop()
                    warp.active = mask.copy()
                    if enter_func is not None:
                        self._enter_function(warp, enter_func, None, to_dispatch=True)
                    else:
                        warp.pc = pc
                    return
                if entry.done.any():
                    warp.active = entry.done.copy()
                    warp.pc = entry.reconv_pc
                    warp.simt.pop()
                    return
                warp.simt.pop()
                continue
            # Call scope: every lane that entered must have returned.
            if not entry.all_done:  # pragma: no cover - defensive
                raise EmulationError(
                    f"{warp.func.name}: unwinding a call scope with "
                    f"lanes still inside"
                )
            warp.frames.pop()
            warp.func = self.module.function(entry.ret_func)
            warp.simt.pop()
            if entry.reconv_pc is None:
                # Return to a CALLI dispatch scope: credit the lanes and
                # let the loop pick the next group (or reconverge).
                if not warp.simt or warp.simt[-1].is_call:
                    raise EmulationError("dispatch scope missing on return")
                warp.simt[-1].done = warp.simt[-1].done | entry.mask
                continue
            warp.active = entry.mask.copy()
            warp.pc = entry.reconv_pc
            return
        # Stack empty: the warp is finished once every lane has exited.
        warp.done = True
        if not warp.exited.all():
            raise EmulationError(
                f"warp {warp.warp_id}: finished with lanes that never exited"
            )


#: Decoding of each opcode: (handler, trace kind, two-operand ufunc).
_DECODE: Dict[Opcode, Tuple[Callable, TraceKind, Optional[np.ufunc]]] = {
    Opcode.MOV: (Emulator._exec_mov, TraceKind.ALU, None),
    Opcode.MOVI: (Emulator._exec_movi, TraceKind.ALU, None),
    Opcode.IADD: (Emulator._exec_binary, TraceKind.ALU, np.add),
    Opcode.ISUB: (Emulator._exec_binary, TraceKind.ALU, np.subtract),
    Opcode.IMUL: (Emulator._exec_binary, TraceKind.ALU, np.multiply),
    Opcode.IMIN: (Emulator._exec_binary, TraceKind.ALU, np.minimum),
    Opcode.IMAX: (Emulator._exec_binary, TraceKind.ALU, np.maximum),
    Opcode.AND: (Emulator._exec_binary, TraceKind.ALU, np.bitwise_and),
    Opcode.OR: (Emulator._exec_binary, TraceKind.ALU, np.bitwise_or),
    Opcode.XOR: (Emulator._exec_binary, TraceKind.ALU, np.bitwise_xor),
    Opcode.FADD: (Emulator._exec_binary, TraceKind.FPU, np.add),
    Opcode.FMUL: (Emulator._exec_binary, TraceKind.FPU, np.multiply),
    Opcode.IMAD: (Emulator._exec_alu, TraceKind.ALU, None),
    Opcode.SHL: (Emulator._exec_alu, TraceKind.ALU, None),
    Opcode.SHR: (Emulator._exec_alu, TraceKind.ALU, None),
    Opcode.SEL: (Emulator._exec_alu, TraceKind.ALU, None),
    Opcode.FFMA: (Emulator._exec_alu, TraceKind.FPU, None),
    Opcode.MUFU: (Emulator._exec_alu, TraceKind.SFU, None),
    Opcode.SETP: (Emulator._exec_setp, TraceKind.ALU, None),
    Opcode.LDG: (Emulator._exec_ldg, TraceKind.GLOBAL_LD, None),
    Opcode.STG: (Emulator._exec_stg, TraceKind.GLOBAL_ST, None),
    Opcode.LDS: (Emulator._exec_lds, TraceKind.SMEM, None),
    Opcode.STS: (Emulator._exec_sts, TraceKind.SMEM, None),
    Opcode.LDL: (Emulator._exec_ldl, TraceKind.LOCAL_LD, None),
    Opcode.STL: (Emulator._exec_stl, TraceKind.LOCAL_ST, None),
    Opcode.PUSH: (Emulator._exec_push, TraceKind.PUSH, None),
    Opcode.POP: (Emulator._exec_pop, TraceKind.POP, None),
    Opcode.CALL: (Emulator._exec_call, TraceKind.CALL, None),
    Opcode.CALLI: (Emulator._exec_calli, TraceKind.CALL, None),
    Opcode.RET: (Emulator._exec_ret, TraceKind.RET, None),
    Opcode.EXIT: (Emulator._exec_exit, TraceKind.EXIT, None),
    Opcode.SSY: (Emulator._exec_ssy, TraceKind.BRANCH, None),
    Opcode.BRA: (Emulator._exec_bra, TraceKind.BRANCH, None),
    Opcode.CBRA: (Emulator._exec_cbra, TraceKind.BRANCH, None),
    Opcode.SYNC: (Emulator._exec_sync, TraceKind.BRANCH, None),
    Opcode.BAR: (Emulator._exec_bar, TraceKind.BAR, None),
    Opcode.NOP: (Emulator._exec_nop, TraceKind.ALU, None),
}
_UNHANDLED = (Emulator._exec_unhandled, TraceKind.ALU, None)
