"""One closed-loop pass in a fresh interpreter (started by ``run.py``).

Modes:

* ``setup`` — import the package and build the caller's objects, then
  exit: one more ``setup_s`` sample.
* ``cold_sweep`` — ``repro.api.Sweep`` of baseline and cars over the
  given workloads on a serial ``Executor`` and an empty store.
* ``tune`` — ``repro.api.Tuner`` over the default 12-policy grid.

Untraced, each cell is read back from the store ``REREADS`` times as
soon as the pass resolves it (store hits, timed apart from the pass).
With ``--trace 1`` the executor is :class:`layers.TracedExecutor`, the
report carries the spans, and each cell is read back once after the
timed portion.  Every read-back must match the cell byte for byte; CPI
conservation is checked on every cell.  The report goes to ``--out`` as
JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from calibration import REFERENCE_S, factor, probe
from stats import digest

#: Store-hit re-reads of each cell, each through a fresh ``Executor``,
#: made the moment the cold pass resolves the cell.  Spread through the
#: pass like this, hit timings see the same host as the cold cells.
REREADS = 5


def cell_id(request) -> str:
    return f"{request.workload}/{request.technique}/{request.config.fingerprint()[:12]}"


class Rereader:
    """Reads cells back from the store as store hits, timing each."""

    def __init__(self, store_root: str, times: int) -> None:
        from repro.api import Executor
        from repro.harness.executor import ResultStore

        self._fresh = lambda: Executor(jobs=1, store=ResultStore(store_root))
        self.times = times
        self.latencies = []
        self.reloaded = []  # (request, digest, was a store hit)

    def __call__(self, request) -> None:
        for _ in range(self.times):
            warm = self._fresh()
            start = time.perf_counter()
            result = warm.run_one(request)
            self.latencies.append(time.perf_counter() - start)
            self.reloaded.append(
                (request, digest(result.stats.to_dict()), warm.stats.store_hits == 1)
            )


class CellClock:
    """Progress callback: time between successive resolved requests.

    After each request it can re-read the cell (*reread*) and time the
    host probe (``calibrate``; one more probe runs at ``restart``), so
    ``probes[i]`` and ``probes[i + 1]`` bracket request ``i``.  That time
    is excluded from the requests and kept in ``excluded_s`` /
    ``excluded_cpu_s`` so the caller can take it out of the pass too.
    """

    def __init__(self, reread=None, calibrate: bool = False) -> None:
        self.order = []
        self.latencies = []
        self.probes = []
        self.reread = reread
        self.calibrate = calibrate
        self.excluded_s = 0.0
        self.excluded_cpu_s = 0.0
        self.mark = time.perf_counter()

    def restart(self) -> None:
        if self.calibrate:
            self.probes.append(probe())
        self.mark = time.perf_counter()

    def __call__(self, done, total, request, source) -> None:
        now = time.perf_counter()
        self.order.append(request)
        self.latencies.append(now - self.mark)
        if self.reread is not None or self.calibrate:
            cpu = time.process_time()
            if self.reread is not None:
                self.reread(request)
            if self.calibrate:
                self.probes.append(probe())
            self.excluded_cpu_s += time.process_time() - cpu
            after = time.perf_counter()
            self.excluded_s += after - now
            now = after
        self.mark = now


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["setup", "cold_sweep", "tune"], required=True)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--tune-seed", type=int, default=0)
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from repro.analysis.lint import lint_executions
    from repro.api import Executor, Sweep, Tuner
    from repro.harness.executor import ResultStore
    from repro.workloads import make_workload

    workloads = [w for w in args.workloads.split(",") if w]
    # Traced passes keep the timed portion free of re-reads; they read
    # each cell back once afterwards, for the store round-trip check only.
    rereader = Rereader(args.store, 1 if args.trace else REREADS)
    clock = CellClock(None if args.trace else rereader, calibrate=not args.trace)
    recorder = None
    if args.trace:
        from layers import SpanRecorder, TracedExecutor

        recorder = SpanRecorder()
        executor = TracedExecutor(args.store, recorder, progress=clock)
    else:
        executor = Executor(jobs=1, store=ResultStore(args.store), progress=clock)
    if args.mode == "tune":
        caller = Tuner(workloads=workloads, seed=args.tune_seed, executor=executor)
    elif args.mode == "cold_sweep":
        caller = Sweep(workloads=workloads, techniques=["baseline", "cars"], executor=executor)
    ready = time.monotonic()
    report = {"ready": ready, "setup_scale": factor([probe() for _ in range(3)])}
    if args.mode == "setup":
        with open(args.out, "w") as fh:
            json.dump(report, fh)
        return 0

    lint0 = lint_executions()
    cpu0 = time.process_time()
    clock.restart()
    start = time.perf_counter()
    if recorder is not None:
        with recorder.span("run"):
            if args.mode == "tune":
                with recorder.span("dse"):
                    outcome = caller.search()
            else:
                outcome = caller.run()
    elif args.mode == "tune":
        outcome = caller.search()
    else:
        outcome = caller.run()
    wall = time.perf_counter() - start - clock.excluded_s
    cpu = time.process_time() - cpu0 - clock.excluded_cpu_s
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    executor_stats = {
        k: v for k, v in executor.stats.as_dict().items() if k != "crash_log"
    }
    trace = recorder.snapshot() if recorder is not None else None
    requests = list(clock.order)
    executor.progress = None
    if args.trace:
        for request in requests:
            rereader(request)
    # Every request resolved so far sits in the memo: this reads results
    # back without simulating or touching the store.
    results = executor.run_many(requests)
    digests = {request: digest(results[request].stats.to_dict()) for request in requests}
    cells = []
    for request, latency in zip(requests, clock.latencies):
        stats = results[request].stats
        cells.append({
            "cell": cell_id(request),
            "workload": request.workload,
            "digest": digests[request],
            "winst": stats.warp_instructions,
            "cpi_ok": stats.cpi_total() == stats.cycles,
            "latency_s": latency,
        })
    # Each request (and its re-reads) in reference seconds, scaled by the
    # probes that bracket it; the pass total by the same time-weighted scale.
    scales = [
        REFERENCE_S / ((clock.probes[i] + clock.probes[i + 1]) / 2)
        for i in range(len(requests))
    ] if clock.calibrate else [1.0] * len(requests)
    for cell, scale in zip(cells, scales):
        cell["scale"] = scale
    report["scale"] = (
        sum(c["latency_s"] * c["scale"] for c in cells)
        / max(sum(c["latency_s"] for c in cells), 1e-9)
    )
    hit_scales = [scale for scale in scales for _ in range(rereader.times)]
    reload_mismatch = sum(
        1 for request, got, hit in rereader.reloaded
        if not hit or got != digests[request]
    )

    report.update({
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kb": peak_rss_kb,
        "cells": cells,
        "hit_latencies_s": rereader.latencies,
        "hit_scales": hit_scales if not args.trace else [],
        "reload_mismatch": reload_mismatch,
        "executor": executor_stats,
        "bottlenecks": {name: make_workload(name).bottleneck for name in workloads},
        "lint_runs": lint_executions() - lint0,
    })
    if args.mode == "tune":
        report["dse_cells"] = outcome.cells
        report["dse_grid"] = len(caller.policies) * len(caller.workloads)
    if trace is not None:
        report["trace"] = trace
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
