"""Differential battery: functional emulator vs timing model.

Two independent implementations of every workload's execution exist in the
tree — the functional emulator (which computes real values) and the timing
model (which replays the emulator's traces through the pipelines).  These
tests pin down the seams between them for *every* workload in the suite:

* the baseline and LTO-inlined binaries of a workload must leave global
  memory in the same final architectural state (inlining is a pure
  performance transform — a divergence means a codegen or emulator bug);
* the timing model must issue exactly the dynamic instructions the
  emulator traced, under every ABI (baseline spill expansion and CARS
  renaming add micro-ops, never trace records).

Workload scope honours ``REPRO_WORKLOADS`` (all | smoke | CSV) like the
experiment harness, so CI can run the full matrix while a developer loop
can use the smoke subset.
"""

import pytest

from repro.core.techniques import BASELINE, CARS, LTO
from repro.harness.experiments import workload_names
from repro.harness._runner import run_workload
from repro.workloads import make_workload

pytestmark = pytest.mark.differential


@pytest.fixture(scope="module", params=workload_names())
def workload(request):
    """One compiled workload per parametrization, cached for the module."""
    return make_workload(request.param)


def test_lto_preserves_final_memory(workload):
    """Inlining must not change what the program computes."""
    base = workload.final_memory(inlined=False)
    inlined = workload.final_memory(inlined=True)
    assert base.equal_state(inlined), (
        f"{workload.name}: LTO binary diverged from baseline "
        f"({base.touched_pages()} vs {inlined.touched_pages()} pages touched)"
    )


def test_final_memory_is_deterministic(workload):
    """Re-tracing from scratch reproduces the same final state."""
    fresh = make_workload(workload.name)
    assert workload.final_memory().equal_state(fresh.final_memory())


# Ids name the timing core ("event", the event-driven GPU) with the
# technique, e.g. ``[FIB-event-cars]``.
@pytest.mark.parametrize("technique", [BASELINE, CARS, LTO],
                         ids=lambda t: f"event-{t.name}")
def test_timing_replays_every_traced_instruction(workload, technique):
    """Timing-model issue count == emulator dynamic instruction count."""
    traces = workload.traces(inlined=technique.use_inlined)
    dynamic = sum(t.dynamic_instructions for t in traces)
    result = run_workload(workload, technique)
    assert result.stats.warp_instructions == dynamic, (
        f"{workload.name}/{technique.name}: timing model issued "
        f"{result.stats.warp_instructions} warp instructions, emulator "
        f"traced {dynamic}"
    )
    # The ABI expansion can only add micro-ops on top of the trace.
    assert result.stats.micro_ops >= dynamic
    # And the run must have made progress unless the trace is empty.
    assert (result.stats.cycles > 0) == (dynamic > 0)
