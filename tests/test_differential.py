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
  renaming add micro-ops, never trace records);
* the emulator's output is pinned byte for byte: a digest of every trace
  record slot, every launch's metadata and the final global memory of
  both binaries must match ``tests/golden/trace_digests.json``
  (re-baseline an intentional change with ``--update-golden``).

Workload scope honours ``REPRO_WORKLOADS`` (all | smoke | CSV) like the
experiment harness, so CI can run the full matrix while a developer loop
can use the smoke subset.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.techniques import BASELINE, CARS, LTO
from repro.emu import GlobalMemory, TraceRecord
from repro.emu.memory import PAGE_WORDS
from repro.harness.experiments import workload_names
from repro.harness._runner import run_workload
from repro.workloads import make_workload

pytestmark = pytest.mark.differential

TRACE_DIGESTS = Path(__file__).parent / "golden" / "trace_digests.json"


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
    # make_workload memoizes; a fresh object has no cached traces.
    fresh = make_workload.__wrapped__(workload.name)
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


def _trace_digests(workload, inlined):
    """SHA-256 of one binary's records, launch metadata and final memory.

    Records hash every ``TraceRecord`` slot in trace order, warp by warp.
    Memory hashes only pages whose words differ from the default fill, so
    a page that was merely read (or compared) does not count as state.
    """
    records = hashlib.sha256()
    launches = hashlib.sha256()
    for trace in workload.traces(inlined=inlined):
        launches.update(repr((
            trace.kernel, trace.threads_per_block,
            trace.regs_per_warp_baseline, trace.shared_mem_bytes,
            trace.code_bytes,
            [(b.block_id, [w.warp_id for w in b.warps]) for b in trace.blocks],
        )).encode())
        for block in trace.blocks:
            for warp in block.warps:
                records.update(repr([
                    tuple(getattr(r, slot) for slot in TraceRecord.__slots__)
                    for r in warp.records
                ]).encode())
    memory = hashlib.sha256()
    gmem = workload.final_memory(inlined=inlined)
    pristine = GlobalMemory()
    for page_id in sorted(gmem._pages):
        base = page_id * PAGE_WORDS
        words = gmem.read_array(base, PAGE_WORDS)
        if not np.array_equal(words, pristine.read_array(base, PAGE_WORDS)):
            memory.update(repr(page_id).encode() + words.tobytes())
    return {
        "records": records.hexdigest(),
        "launches": launches.hexdigest(),
        "memory": memory.hexdigest(),
    }


def test_traces_match_golden_digests(workload, request):
    """The emulator's output is byte-identical to the pinned digests."""
    actual = {
        "baseline": _trace_digests(workload, inlined=False),
        "lto": _trace_digests(workload, inlined=True),
    }
    golden = (json.loads(TRACE_DIGESTS.read_text())
              if TRACE_DIGESTS.exists() else {})
    if request.config.getoption("--update-golden"):
        golden[workload.name] = actual
        TRACE_DIGESTS.write_text(
            json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    assert workload.name in golden, (
        f"no trace digests for {workload.name}; generate them with "
        f"`pytest {Path(__file__).name} --update-golden`"
    )
    drifted = [
        f"{binary}.{part}"
        for binary, parts in golden[workload.name].items()
        for part, digest in parts.items()
        if actual[binary][part] != digest
    ]
    assert not drifted, (
        f"{workload.name}: emulator output drifted in {', '.join(drifted)}"
    )
