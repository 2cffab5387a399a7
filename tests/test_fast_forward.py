"""Fast-forward (event-driven) main-loop edge cases.

The event loop must be *timing-invisible*: skipping an idle stretch can
never change a simulated number.  These tests pin the tricky cases — wake
ties between a memory completion and a barrier release, ``max_cycles``
budgets landing inside a skipped stretch, and CARS trap fills waking a
warp mid-stretch — by running each scenario twice, once with fast-forward
active and once forced to single-step every idle cycle (the legacy
per-cycle loop), and requiring byte-identical :meth:`SimStats.to_dict`
payloads.
"""

import dataclasses

import pytest

from repro.callgraph import analyze_kernel, build_call_graph
from repro.config import volta
from repro.core import GPU, SimulationError
from repro.core.techniques import BASELINE, CARS, CARS_LOW, Technique
from repro.frontend import builder as b
from repro.metrics.counters import SimStats
from repro.workloads import KernelLaunch, Workload


class _SingleStepGPU(GPU):
    """A GPU whose idle stretches advance one cycle at a time.

    Collapsing every skip to ``cycle + 1`` reproduces the legacy
    per-cycle loop exactly (deadlock detection included), so any
    divergence from the fast-forwarding :class:`GPU` is a bug in the
    next-event bounds, not in this harness.
    """

    __slots__ = ()

    def _next_event_after(self, cycle):
        bound = GPU._next_event_after(self, cycle)
        if bound is None:
            return None
        return cycle + 1


def _make_workload(body_fn=None, threads=64, blocks=4, shared=0,
                   pressure=4, depth=1, name="w"):
    prog = b.program()
    for level in range(1, depth):
        b.device(prog, f"f{level}", ["x"],
                 [b.ret(b.call(f"f{level + 1}", b.v("x") + level))],
                 reg_pressure=pressure)
    b.device(prog, f"f{depth}", ["x"], [b.ret(b.v("x") * 2 + 1)],
             reg_pressure=pressure)
    body = body_fn() if body_fn else [
        b.let("i", b.gid()),
        b.let("r", b.call("f1", b.v("i"))),
        b.store(b.v("out") + b.v("i"), b.v("r")),
    ]
    b.kernel(prog, "main", ["out"], body, shared_mem_bytes=shared)
    return Workload(name=name, suite="t", program=prog,
                    launches=[KernelLaunch("main", blocks, threads, (1 << 20,))])


def _run(workload, technique, config=None, gpu_cls=GPU, max_cycles=None):
    cfg = technique.adjust_config(config or volta())
    trace = workload.traces(inlined=technique.use_inlined)[0]
    stats = SimStats()
    analysis = None
    if technique.abi == "cars":
        analysis = analyze_kernel(build_call_graph(workload.module()), "main")
    ctx = technique.make_context(trace, cfg, stats, analysis)
    gpu = gpu_cls(cfg, ctx, stats)
    if max_cycles is None:
        gpu.run(trace)
    else:
        gpu.run(trace, max_cycles=max_cycles)
    return stats


def _assert_identical(workload, technique, config=None):
    fast = _run(workload, technique, config)
    stepped = _run(workload, technique, config, gpu_cls=_SingleStepGPU)
    assert fast.to_dict() == stepped.to_dict()
    return fast


class TestFastForwardDifferential:
    def test_plain_calls(self):
        _assert_identical(_make_workload(), BASELINE)

    def test_memory_bound_single_warp(self):
        # One warp per SM maximizes idle stretches: every DRAM round trip
        # is a couple hundred skippable cycles.
        wl = _make_workload(
            body_fn=lambda: [
                b.let("i", b.gid()),
                b.let("a", b.load(b.v("out") + (b.v("i") * 131 & 8191))),
                b.let("c", b.load(b.v("out") + (b.v("a") * 17 & 8191))),
                b.store(b.v("out") + b.v("i"), b.v("c")),
            ],
            threads=32, blocks=2,
        )
        stats = _assert_identical(wl, BASELINE)
        assert stats.idle_cycles > stats.issue_cycles  # genuinely idle-heavy

    def test_wake_tie_memory_vs_barrier(self):
        # Half the warps sit at a barrier while the others wait on loads;
        # barrier releases and load completions land on the same cycles,
        # and the tie must resolve identically with and without skipping.
        wl = _make_workload(
            body_fn=lambda: [
                b.let("i", b.tid()),
                b.let("a", b.load(b.v("out") + (b.gid() * 257 & 8191))),
                b.store_shared(b.v("i"), b.v("a")),
                b.barrier(),
                b.let("c", b.load_shared(b.v("i") ^ 1)),
                b.barrier(),
                b.store(b.v("out") + b.gid(), b.v("c") + b.v("a")),
            ],
            threads=128, blocks=4, shared=2048,
        )
        stats = _assert_identical(wl, BASELINE)
        assert stats.issued_by_kind["BAR"] > 0

    def test_cars_trap_fill_wake(self):
        # Low-watermark CARS on deep calls raises software traps whose
        # spill/fill memory traffic wakes warps mid-stretch; the blocking
        # trap fill is the nastiest wake source the loop has.
        wl = _make_workload(depth=4, pressure=8, blocks=2)
        stats = _assert_identical(wl, CARS_LOW)
        assert stats.traps > 0

    def test_cars_dynamic_policy(self):
        cfg = dataclasses.replace(volta(), registers_per_sm=256)
        wl = _make_workload(pressure=30, blocks=8)
        _assert_identical(wl, CARS, cfg)


class TestMaxCyclesMidSkip:
    def _memory_bound(self):
        return _make_workload(
            body_fn=lambda: [
                b.let("i", b.gid()),
                b.let("a", b.load(b.v("out") + (b.v("i") * 131 & 8191))),
                b.store(b.v("out") + b.v("i"), b.v("a")),
            ],
            threads=32, blocks=1,
        )

    def test_budget_inside_skipped_stretch_raises(self):
        # The first DRAM round trip parks the only warp for ~hundreds of
        # cycles; a budget landing inside that stretch must still trip.
        wl = self._memory_bound()
        stats = _run(wl, BASELINE)
        assert stats.idle_cycles > 100 and stats.cycles > 40
        with pytest.raises(SimulationError, match="exceeded 40 cycles"):
            _run(wl, BASELINE, max_cycles=40)

    def test_budget_agrees_with_single_step(self):
        # For every sampled budget, fast-forward and single-step must
        # agree on completes-vs-raises (and on the stats when completing).
        wl = self._memory_bound()
        total = _run(wl, BASELINE).cycles
        for budget in (1, total // 4, total // 2, total - 2, total, total + 1):
            outcomes = []
            for gpu_cls in (GPU, _SingleStepGPU):
                try:
                    stats = _run(wl, BASELINE, gpu_cls=gpu_cls,
                                 max_cycles=budget)
                    outcomes.append(("done", stats.to_dict()))
                except SimulationError:
                    outcomes.append(("raised", None))
            assert outcomes[0] == outcomes[1], f"budget={budget}"
