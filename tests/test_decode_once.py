"""Decode-once µops and the launch teardown.

Each :class:`~repro.core.techniques.LaunchContext` keeps one decode table
(``ctx.decoded``): the single, shared µop of every ALU, FPU, SFU, SMEM,
BRANCH, BAR and EXIT record it has expanded.  These tests pin what may
enter the table, that a hit is the very same object for every warp, and
that no shared µop is written after it was built.  The last class checks
that a finished launch frees its machine by reference counting alone.
"""

import gc

import pytest

from repro.cars.policy import PolicyMemory
from repro.callgraph import analyze_kernel
from repro.core.gpu import GPU
from repro.core.sm import SM
from repro.core.techniques import BASELINE, CARS, LaunchContext
from repro.core.uop import Uop
from repro.core.warp import WarpCtx
from repro.emu.trace import TraceKind
from repro.harness._runner import prepare_run, run_workload
from repro.mem.subsystem import MemorySubsystem
from repro.metrics.counters import SimStats
from repro.spill import REGCOMP, REGDEM, RFCACHE
from repro.workloads import make_workload

TECHNIQUES = (BASELINE, CARS, REGDEM, RFCACHE, REGCOMP)
DECODED_KINDS = {
    TraceKind.ALU,
    TraceKind.FPU,
    TraceKind.SFU,
    TraceKind.SMEM,
    TraceKind.BRANCH,
    TraceKind.BAR,
    TraceKind.EXIT,
}


def _fresh_context(prepared, trace):
    """A new context for *trace*, built exactly as ``launch`` builds one."""
    graph = prepared.graph
    analysis = analyze_kernel(graph, trace.kernel) if graph is not None else None
    return prepared.technique.make_context(
        trace, prepared.config, SimStats(), analysis, PolicyMemory()
    )


def _warp(ctx, trace, index):
    records = trace.blocks[0].warps[index].records
    block = type("B", (), {"regs_per_warp": 64})()
    warp = WarpCtx(index, index, records, block)
    ctx.attach_warp(warp, ctx.scheduler_regs_per_warp() + 64)
    return warp


def _first(records, kind):
    return next(rec for rec in records if rec.kind == kind)


@pytest.mark.parametrize("technique", [BASELINE, CARS], ids=lambda t: t.name)
class TestDecodeTable:
    def test_one_uop_per_record_across_warps(self, technique):
        prepared = prepare_run(make_workload("FIB"), technique)
        trace = prepared.traces[0]
        ctx = _fresh_context(prepared, trace)
        w0, w1 = _warp(ctx, trace, 0), _warp(ctx, trace, 1)
        alu = _first(w0.records, TraceKind.ALU)
        out = []
        ctx.expand(w0, alu, out)
        ctx.expand(w1, alu, out)
        assert out[0] is out[1]
        assert ctx.decoded[alu] is out[0]

    def test_global_load_uops_stay_distinct(self, technique):
        prepared = prepare_run(make_workload("FIB"), technique)
        trace = prepared.traces[0]
        ctx = _fresh_context(prepared, trace)
        w0, w1 = _warp(ctx, trace, 0), _warp(ctx, trace, 1)
        load = _first(w0.records, TraceKind.GLOBAL_LD)
        out = []
        ctx.expand(w0, load, out)
        ctx.expand(w1, load, out)
        assert out[0] is not out[1]
        assert load not in ctx.decoded

    def test_refill_appends_the_tables_uop(self, technique):
        prepared = prepare_run(make_workload("FIB"), technique)
        trace = prepared.traces[0]
        ctx = _fresh_context(prepared, trace)
        gpu = GPU(prepared.config, ctx, ctx.stats)
        sm = gpu.sms[0]
        sm.add_block(trace.blocks[0], 0)
        w0, w1 = sm.warps[0], sm.warps[1]
        assert w0.records[0] is w1.records[0]  # the emulator interns records
        assert sm._refill(w0) and sm._refill(w1)
        assert w0.uops[0] is w1.uops[0] is ctx.decoded[w0.records[0]]


@pytest.mark.parametrize("workload", ["FIB", "Bert_LT"])
@pytest.mark.parametrize("technique", TECHNIQUES, ids=lambda t: t.name)
def test_shared_uops_match_a_fresh_expansion(workload, technique):
    """After a whole run, every tabled µop still equals, field for field,
    what a fresh context builds for its record: no shared µop was written
    after it was decoded."""
    prepared = prepare_run(make_workload(workload), technique)
    memory = PolicyMemory()
    for trace in prepared.traces:
        ctx = prepared.launch(trace, SimStats(), memory)
        assert ctx.decoded
        assert {rec.kind for rec in ctx.decoded} <= DECODED_KINDS
        fresh = _fresh_context(prepared, trace)
        warp = WarpCtx(0, 0, [], None)
        for rec, uop in ctx.decoded.items():
            out = []
            fresh.expand(warp, rec, out)
            assert len(out) == 1
            for field in Uop.__slots__:
                assert getattr(uop, field) == getattr(out[0], field), (rec, field)


def test_finished_launches_free_their_machine():
    """With the cyclic collector off, a finished run leaves no GPU, SM,
    memory subsystem or launch context behind."""
    kinds = (GPU, SM, MemorySubsystem, LaunchContext)

    def census():
        objects = gc.get_objects()
        return [sum(isinstance(o, kind) for o in objects) for kind in kinds]

    make_workload("FIB").traces()
    make_workload("Bert_LT").traces()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = census()
        run_workload(make_workload("FIB"), CARS)
        run_workload(make_workload("Bert_LT"), BASELINE)
        assert census() == before
    finally:
        if was_enabled:
            gc.enable()
