"""Functional emulator tests: semantics, divergence, ABI, traces."""

import numpy as np
import pytest

from repro.emu import Emulator, EmulationError, GlobalMemory, TraceKind
from repro.frontend import builder as b
from repro.isa.instructions import Instruction


def run_kernel(prog, kernel="main", blocks=1, threads=32, params=(0,), gmem=None):
    module = b.compile(prog)
    gmem = gmem if gmem is not None else GlobalMemory()
    emulator = Emulator(module, gmem=gmem)
    trace = emulator.launch(kernel, blocks, threads, params)
    return trace, gmem


class TestArithmetic:
    def test_store_computed_values(self):
        prog = b.program()
        b.kernel(prog, "main", ["out"], [
            b.let("i", b.gid()),
            b.store(b.v("out") + b.v("i"), b.v("i") * 7 + 3),
        ])
        _, gmem = run_kernel(prog, params=(5000,))
        assert np.array_equal(gmem.read_array(5000, 32), np.arange(32) * 7 + 3)

    def test_special_registers(self):
        prog = b.program()
        b.kernel(prog, "main", ["out"], [
            b.store(b.v("out") + b.gid(),
                    b.tid() + b.bid() * 1000 + b.ntid() * 100000),
        ])
        _, gmem = run_kernel(prog, blocks=2, threads=64, params=(0,))
        got = gmem.read_array(0, 128)
        for block in range(2):
            for t in range(64):
                assert got[block * 64 + t] == t + block * 1000 + 64 * 100000

    def test_compare_materializes_as_zero_one(self):
        prog = b.program()
        b.kernel(prog, "main", ["out"], [
            b.let("i", b.gid()),
            b.let("v", b.v("i") < 16),  # bare Cmp -> SEL of 1/0
            b.store(b.v("out") + b.v("i"), b.v("v")),
        ])
        _, gmem = run_kernel(prog, params=(0,))
        got = gmem.read_array(0, 32)
        assert (got[:16] == 1).all()
        assert (got[16:] == 0).all()

    def test_shift_ops(self):
        prog = b.program()
        b.kernel(prog, "main", ["out"], [
            b.let("i", b.gid()),
            b.store(b.v("out") + b.v("i"), (b.v("i") << 2) | (b.v("i") >> 1)),
        ])
        _, gmem = run_kernel(prog, params=(0,))
        i = np.arange(32)
        assert np.array_equal(gmem.read_array(0, 32), (i << 2) | (i >> 1))


class TestDivergence:
    def test_if_else_divergence(self):
        prog = b.program()
        b.kernel(prog, "main", ["out"], [
            b.let("i", b.gid()),
            b.if_((b.v("i") & 1) == 0,
                  [b.let("r", b.v("i") * 10)],
                  [b.let("r", b.v("i") * 100)]),
            b.store(b.v("out") + b.v("i"), b.v("r")),
        ])
        _, gmem = run_kernel(prog, params=(0,))
        got = gmem.read_array(0, 32)
        i = np.arange(32)
        expected = np.where(i % 2 == 0, i * 10, i * 100)
        assert np.array_equal(got, expected)

    def test_lane_dependent_loop_trip_counts(self):
        prog = b.program()
        b.kernel(prog, "main", ["out"], [
            b.let("i", b.gid()),
            b.let("n", b.v("i") & 3),
            b.let("s", b.c(0)),
            b.while_(b.v("n") > 0, [
                b.let("s", b.v("s") + b.v("n")),
                b.let("n", b.v("n") - 1),
            ]),
            b.store(b.v("out") + b.v("i"), b.v("s")),
        ])
        _, gmem = run_kernel(prog, params=(0,))
        i = np.arange(32)
        n = i & 3
        expected = n * (n + 1) // 2
        assert np.array_equal(gmem.read_array(0, 32), expected)

    def test_nested_divergence(self):
        prog = b.program()
        b.kernel(prog, "main", ["out"], [
            b.let("i", b.gid()),
            b.let("r", b.c(0)),
            b.if_(b.v("i") < 16, [
                b.if_((b.v("i") & 1) == 0,
                      [b.let("r", b.c(1))],
                      [b.let("r", b.c(2))]),
            ], [
                b.let("r", b.c(3)),
            ]),
            b.store(b.v("out") + b.v("i"), b.v("r")),
        ])
        _, gmem = run_kernel(prog, params=(0,))
        got = gmem.read_array(0, 32)
        i = np.arange(32)
        expected = np.where(i < 16, np.where(i % 2 == 0, 1, 2), 3)
        assert np.array_equal(got, expected)


class TestFunctionCalls:
    def test_callee_saved_registers_preserved(self):
        """The core ABI property CARS relies on: a callee's push/pop leaves
        the caller's live values intact."""
        prog = b.program()
        b.device(prog, "clobber", ["x"], [
            # Uses lots of callee-saved registers itself.
            b.let("a", b.v("x") * 3),
            b.let("c", b.call("leaf", b.v("a"))),
            b.ret(b.v("a") + b.v("c")),
        ], reg_pressure=12)
        b.device(prog, "leaf", ["x"], [b.ret(b.v("x") ^ 0x55)], reg_pressure=6)
        b.kernel(prog, "main", ["out"], [
            b.let("i", b.gid()),
            b.let("keep1", b.v("i") * 11),
            b.let("keep2", b.v("i") * 13),
            b.let("r", b.call("clobber", b.v("i"))),
            b.store(b.v("out") + b.v("i"),
                    b.v("keep1") + b.v("keep2") + b.v("r")),
        ])
        _, gmem = run_kernel(prog, params=(0,))
        i = np.arange(32)
        a = i * 3
        r = a + (a ^ 0x55)
        assert np.array_equal(gmem.read_array(0, 32), i * 11 + i * 13 + r)

    def test_recursion(self):
        prog = b.program()
        b.device(prog, "fib", ["n"], [
            b.if_(b.v("n") < 2, [b.ret(b.v("n"))]),
            b.let("p", b.call("fib", b.v("n") - 1)),
            b.let("q", b.call("fib", b.v("n") - 2)),
            b.ret(b.v("p") + b.v("q")),
        ], reg_pressure=4)
        b.kernel(prog, "main", ["out"], [
            b.store(b.v("out") + b.gid(), b.call("fib", b.c(10))),
        ])
        trace, gmem = run_kernel(prog, params=(0,))
        assert (gmem.read_array(0, 32) == 55).all()
        assert trace.max_dynamic_call_depth() >= 9

    def test_divergent_recursion_depth(self):
        """Each lane recurses to its own depth (divergent early returns)."""
        prog = b.program()
        b.device(prog, "count", ["n"], [
            b.if_(b.v("n") < 1, [b.ret(b.c(0))]),
            b.let("r", b.call("count", b.v("n") - 1)),
            b.ret(b.v("r") + 1),
        ], reg_pressure=2)
        b.kernel(prog, "main", ["out"], [
            b.let("i", b.gid()),
            b.store(b.v("out") + b.v("i"), b.call("count", b.v("i") & 7)),
        ])
        _, gmem = run_kernel(prog, params=(0,))
        assert np.array_equal(gmem.read_array(0, 32), np.arange(32) & 7)

    def test_call_under_divergence(self):
        """Paper case (1): a partially-active warp calls a function."""
        prog = b.program()
        b.device(prog, "double", ["x"], [b.ret(b.v("x") * 2)], reg_pressure=2)
        b.kernel(prog, "main", ["out"], [
            b.let("i", b.gid()),
            b.let("r", b.v("i")),
            b.if_(b.v("i") < 8, [b.let("r", b.call("double", b.v("i")))]),
            b.store(b.v("out") + b.v("i"), b.v("r")),
        ])
        _, gmem = run_kernel(prog, params=(0,))
        i = np.arange(32)
        assert np.array_equal(gmem.read_array(0, 32), np.where(i < 8, i * 2, i))

    def test_indirect_call_dispatches_per_lane(self):
        """Paper case (3): one CALLI sends lanes to different functions."""
        prog = b.program()
        b.device(prog, "fa", ["x"], [b.ret(b.v("x") + 1000)], reg_pressure=2)
        b.device(prog, "fb", ["x"], [b.ret(b.v("x") + 2000)], reg_pressure=3)
        b.device(prog, "fc", ["x"], [b.ret(b.v("x") + 3000)], reg_pressure=4)
        b.kernel(prog, "main", ["out"], [
            b.let("i", b.gid()),
            b.store(b.v("out") + b.v("i"),
                    b.icall(["fa", "fb", "fc"], b.v("i"), b.v("i"))),
        ])
        trace, gmem = run_kernel(prog, params=(0,))
        i = np.arange(32)
        expected = i + 1000 * (i % 3 + 1)
        assert np.array_equal(gmem.read_array(0, 32), expected)
        # Serialized dispatch: one CALL record per lane group.
        assert trace.count(TraceKind.CALL) == 3

    def test_uniform_indirect_call_is_single_dispatch(self):
        prog = b.program()
        b.device(prog, "fa", ["x"], [b.ret(b.v("x") + 1)], reg_pressure=2)
        b.device(prog, "fb", ["x"], [b.ret(b.v("x") + 2)], reg_pressure=2)
        b.kernel(prog, "main", ["out"], [
            b.store(b.v("out") + b.gid(),
                    b.icall(["fa", "fb"], b.c(1), b.gid())),
        ])
        trace, gmem = run_kernel(prog, params=(0,))
        assert np.array_equal(gmem.read_array(0, 32), np.arange(32) + 2)
        assert trace.count(TraceKind.CALL) == 1


class TestBarriersAndSharedMemory:
    def test_barrier_orders_shared_memory(self):
        """Warp 0 writes, all warps barrier, then everyone reads."""
        prog = b.program()
        b.kernel(prog, "main", ["out"], [
            b.let("i", b.tid()),
            b.if_(b.v("i") < 32, [b.store_shared(b.v("i"), b.v("i") * 5)]),
            b.barrier(),
            b.store(b.v("out") + b.gid(), b.load_shared(b.v("i") & 31)),
        ], shared_mem_bytes=256)
        _, gmem = run_kernel(prog, threads=64, params=(0,))
        got = gmem.read_array(0, 64)
        expected = (np.arange(64) & 31) * 5
        assert np.array_equal(got, expected)

    def test_barrier_ignores_exited_warps(self):
        """Volta+ semantics: exited threads do not participate in barriers,
        so a barrier skipped by a warp that ran to completion releases."""
        prog = b.program()
        b.kernel(prog, "main", ["out"], [
            b.let("i", b.tid()),
            b.if_(b.v("i") < 32, [b.barrier()]),
            b.store(b.v("out") + b.gid(), b.v("i")),
        ])
        module = b.compile(prog)
        emulator = Emulator(module)
        trace = emulator.launch("main", 1, 64, (0,))
        assert trace.count(TraceKind.BAR) == 1


class TestLocalMemory:
    def test_genuine_local_roundtrip(self):
        prog = b.program()
        b.kernel(prog, "main", ["out"], [
            b.let("i", b.gid()),
            b.store_local(3, b.v("i") * 9),
            b.store(b.v("out") + b.v("i"), b.load_local(3)),
        ])
        trace, gmem = run_kernel(prog, params=(0,))
        assert np.array_equal(gmem.read_array(0, 32), np.arange(32) * 9)
        assert trace.count(TraceKind.LOCAL_ST) == 1
        assert trace.count(TraceKind.LOCAL_LD) == 1


class TestGuards:
    def test_runaway_loop_detected(self):
        prog = b.program()
        b.kernel(prog, "main", ["out"], [
            b.let("x", b.c(1)),
            b.while_(b.v("x") > 0, [b.let("x", b.v("x") + 1)]),
            b.store(b.v("out"), b.v("x")),
        ])
        module = b.compile(prog)
        emulator = Emulator(module, max_warp_instructions=10_000)
        with pytest.raises(EmulationError):
            emulator.launch("main", 1, 32, (0,))

    def test_unbounded_recursion_detected(self):
        prog = b.program()
        b.device(prog, "forever", ["x"], [
            b.ret(b.call("forever", b.v("x") + 1)),
        ], reg_pressure=2)
        b.kernel(prog, "main", ["out"], [
            b.store(b.v("out"), b.call("forever", b.c(0))),
        ])
        module = b.compile(prog)
        emulator = Emulator(module, max_call_depth=64)
        with pytest.raises(EmulationError):
            emulator.launch("main", 1, 32, (0,))

    def test_bad_threads_per_block(self):
        prog = b.program()
        b.kernel(prog, "main", [], [b.ret()])
        emulator = Emulator(b.compile(prog))
        with pytest.raises(EmulationError):
            emulator.launch("main", 1, 33)

    @pytest.mark.parametrize("grid_blocks, threads_per_block",
                             [(1, 0), (1, -32), (0, 32), (-1, 32)])
    def test_empty_launch_rejected(self, grid_blocks, threads_per_block):
        prog = b.program()
        b.kernel(prog, "main", [], [b.ret()])
        emulator = Emulator(b.compile(prog))
        with pytest.raises(EmulationError, match="empty launch"):
            emulator.launch("main", grid_blocks, threads_per_block)

    def test_unhandled_opcode_fails_when_executed_not_decoded(self):
        prog = b.program()
        b.kernel(prog, "main", ["out"], [b.store(b.v("out"), b.c(1))])
        module = b.compile(prog)
        code = module.kernel("main").instructions
        # A stand-in opcode no handler knows, placed past the kernel's
        # EXIT: decoding the function must not trip over it.
        code.append(Instruction(op="BOGUS"))
        assert Emulator(module).launch("main", 1, 32, (0,)).dynamic_instructions
        # Executing it must.
        code.insert(0, code.pop())
        with pytest.raises(EmulationError, match="unhandled opcode BOGUS"):
            Emulator(module).launch("main", 1, 32, (0,))
