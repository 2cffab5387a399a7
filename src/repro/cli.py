"""Command-line interface.

    python -m repro list
    python -m repro techniques
    python -m repro analyze --workload MST [--json] [--validate]
    python -m repro analyze --all --json
    python -m repro lint --workload MST [--strict] [--json] [--stack-regs N]
    python -m repro lint --all --strict
    python -m repro run --workload MST --technique cars [--config ampere] [--jobs 2]
    python -m repro profile --workload MST [--technique baseline] [--trace out.jsonl]
    python -m repro bench [--check] [--json bench.json]
    python -m repro tune --workloads SSSP,MST --budget 50 [--json]
    python -m repro regen [output.md] [--jobs 4]
    python -m repro selfcheck [--seed 0]
    python -m repro serve [--host 127.0.0.1] [--port 8642] [--root DIR]
    python -m repro cache info
    python -m repro cache verify [--strict]
    python -m repro cache clear

Typed simulation failures exit with distinct codes (see README, "When a
run fails"): 2 generic, 3 deadlock/livelock, 4 max-cycles, 5 invariant
violation, 6 worker crash, 7 unknown technique name, 8 retired (not
reused), 9 service-layer failure, 10 deadline exceeded, 11 store
corruption (``repro cache verify`` found and quarantined bad entries).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis import lint_module, render_json, render_text
from .callgraph import analyze_kernel, build_call_graph
from .config import PRESETS
from .core.techniques import (
    TECHNIQUE_FAMILIES,
    TECHNIQUE_REGISTRY,
    list_technique_families,
    list_techniques,
    resolve_technique,
)
from .harness.executor import Executor, ExperimentRequest, ResultStore
from .resilience.errors import SimulationError, exit_code_for
from .workloads import WORKLOAD_NAMES, make_workload


def _cmd_list(_args) -> int:
    print("workloads (Table I):")
    for name in WORKLOAD_NAMES:
        workload = make_workload(name)
        print(f"  {name:14s} {workload.suite:10s} depth={workload.paper_call_depth:2d} "
              f"cpki={workload.paper_cpki:6.2f}  [{workload.bottleneck}]")
    print("\ntechniques:", ", ".join(list_techniques()), "+ best_swl")
    print("families  :", ", ".join(list_technique_families()))
    print("configs   :", ", ".join(sorted(PRESETS)))
    return 0


def _cmd_techniques(_args) -> int:
    """List every registered technique (live registry, plugins included)."""
    print("registered techniques:")
    for name in list_techniques():
        technique = TECHNIQUE_REGISTRY[name]
        notes = [f"abi={technique.abi}"]
        if technique.abi == "cars":
            notes.append(f"mode={technique.cars_mode}")
        if technique.use_inlined:
            notes.append("lto-inlined")
        if technique.config_fn is not None:
            notes.append("config-transform")
        if technique.requires_analysis:
            notes.append("needs call-graph analysis")
        print(f"  {name:12s} {', '.join(notes)}")
    print("\nparametric families (resolvable by name, e.g. in sweeps):")
    for prefix in sorted(TECHNIQUE_FAMILIES):
        print(f"  {TECHNIQUE_FAMILIES[prefix].pattern}")
    print("\npseudo-techniques: best_swl (sweeps swl_<n>, keeps the fastest)")
    return 0


def _print_analysis(name, workload, module, report) -> None:
    graph = build_call_graph(module)
    print(f"{name}: {len(module.functions)} functions, "
          f"{module.code_bytes} code bytes")
    for kernel in module.kernels():
        analysis = analyze_kernel(graph, kernel.name)
        info = report.kernels[kernel.name]
        depth = ("unbounded" if info.frame_depth_bound is None
                 else info.frame_depth_bound)
        demand = ("unbounded" if info.worst_demand is None
                  else info.worst_demand)
        print(f"  kernel {kernel.name}: fru={analysis.kernel_fru} "
              f"low={analysis.low_watermark} high={analysis.high_watermark} "
              f"cyclic={analysis.cyclic} ladder={analysis.allocation_levels()}")
        print(f"    frame depth <= {depth}, stacked registers <= {demand}, "
              f"{len(info.call_sites)} call site(s)")
        if info.unbounded_functions:
            print("    unbounded recursion: "
                  + ", ".join(info.unbounded_functions))
        for site in info.call_sites:
            worst = ("unbounded" if site.max_entry_regs is None
                     else site.max_entry_regs)
            print(f"    site {site.caller} -> {site.callee}: "
                  f"occupancy [{site.min_entry_regs}, {worst}] "
                  f"(frame {site.frame_regs})")
        for func in sorted(info.live_fru):
            declared = info.declared_fru[func]
            live = info.live_fru[func]
            note = f" (tightenable to {live})" if live < declared else ""
            print(f"    {func}: declared fru={declared}, "
                  f"live pressure {live}{note}")
        for scheme in sorted(info.predictions):
            pred = info.predictions[scheme]
            tfd = ("any" if pred.trap_free_depth is None
                   else pred.trap_free_depth)
            print(f"    scheme {scheme}: {pred.regs_per_warp} regs/warp, "
                  f"stack {pred.stack_capacity}, trap-free depth {tfd}, "
                  f"guaranteed trap-free {pred.guaranteed_trap_free}, "
                  f">= {pred.min_traps_per_call} trap(s)/call, "
                  f"{pred.spill_bytes_avoided} spill bytes avoided")


def _validate_analysis(workload, config) -> list:
    """Simulate each CARS scheme and diff predictions against observation.

    Returns violation strings (empty = the soundness contract held)."""
    from .analysis.interproc import (
        SCHEME_TECHNIQUES, ensure_module_analyzed, validate_against_stats,
    )
    from .core.techniques import resolve_technique
    from .harness._runner import run_workload

    launched = [launch.kernel for launch in workload.launches]
    failures = []
    for scheme in sorted(SCHEME_TECHNIQUES):
        technique = resolve_technique(SCHEME_TECHNIQUES[scheme])
        module = workload.module(technique.use_inlined)
        report = ensure_module_analyzed(module, workload.name)
        stats = run_workload(workload, technique, config=config).stats
        violations = validate_against_stats(report, scheme, launched, stats)
        status = "VIOLATED" if violations else "ok"
        print(f"  validate {scheme} ({technique.name}): "
              f"peak depth {stats.peak_stack_depth}, {stats.traps} trap(s), "
              f"{stats.calls} call(s) -- {status}")
        failures.extend(f"{workload.name}: {v}" for v in violations)
    return failures


def _cmd_analyze(args) -> int:
    """Interprocedural register-pressure analysis of workload binaries.

    ``--validate`` additionally simulates every CARS scheme and exits 1
    if any static prediction is violated by the observed counters.
    """
    import json as _json

    from .analysis.interproc import (
        INTERPROC_SCHEMA_VERSION, analyze_module_interproc,
    )

    names = WORKLOAD_NAMES if args.all else [args.workload]
    config = PRESETS[args.config]
    payloads = []
    failures = []
    for name in names:
        workload = make_workload(name)
        module = workload.module()
        report = analyze_module_interproc(module, name)
        if args.json:
            payloads.append(report.to_dict())
        else:
            _print_analysis(name, workload, module, report)
        if args.validate:
            failures.extend(_validate_analysis(workload, config))
    if args.json:
        print(_json.dumps(
            {"schema": INTERPROC_SCHEMA_VERSION, "reports": payloads},
            indent=2, sort_keys=True))
    if failures:
        print(f"\nPREDICTION VIOLATIONS ({len(failures)}):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args) -> int:
    """Lint compiled workloads; exit 0 clean, 1 on gate failures.

    Errors always fail the gate; warnings fail only under ``--strict``.
    Both the baseline and the LTO-inlined binary of each workload are
    checked, since the harness simulates both.
    """
    names = WORKLOAD_NAMES if args.all else [args.workload]
    reports = []
    for name in names:
        workload = make_workload(name)
        reports.append(
            lint_module(workload.module(), name, stack_regs=args.stack_regs))
        reports.append(
            lint_module(workload.module(inlined=True), f"{name}/lto",
                        stack_regs=args.stack_regs))
    print(render_json(reports) if args.json else render_text(reports))
    failed = [r.name for r in reports if not r.ok(strict=args.strict)]
    if failed:
        print(f"\nFAILED ({len(failed)}): {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_run(args) -> int:
    config = PRESETS[args.config]
    if args.technique != "best_swl":
        # Fail fast (exit code 7 with did-you-mean suggestions) instead of
        # reporting a name that can never resolve as an executor failure.
        resolve_technique(args.technique)
    executor = Executor(jobs=args.jobs)
    base_req = ExperimentRequest(args.workload, "baseline", config)
    run_req = ExperimentRequest(args.workload, args.technique, config)
    results = executor.run_many([base_req, run_req])
    baseline, result = results[base_req], results[run_req]
    stats = result.stats
    print(f"workload={args.workload} technique={args.technique} config={args.config}")
    print(f"  cycles            : {stats.cycles}")
    print(f"  speedup vs base   : {baseline.cycles / stats.cycles:.3f}x")
    print(f"  warp instructions : {stats.warp_instructions}")
    print(f"  IPC               : {stats.ipc():.3f}")
    print(f"  L1D accesses      : {stats.total_l1_accesses} "
          f"(spill share {stats.spill_fraction():.0%})")
    print(f"  MPKI              : {stats.mpki():.1f}")
    print(f"  traps             : {stats.traps} "
          f"(ctx switches {stats.context_switches})")
    print(f"  energy efficiency : "
          f"{result.energy_efficiency() / baseline.energy_efficiency():.3f}x baseline")
    return 0


def _cmd_profile(args) -> int:
    """CPI-stack profile of one (workload, technique) run.

    Always simulates fresh (the tracer and per-warp attribution are not
    part of the result store's payload), prints the stall-attribution
    table, and optionally dumps the bounded event trace as JSONL.
    """
    from .harness._runner import run_workload
    from .metrics.counters import STREAM_SPILL
    from .metrics.report import cpi_stack_report
    from .obs import MEM_BUCKETS, ObsSession

    config = PRESETS[args.config]
    obs = ObsSession(
        trace=bool(args.trace),
        trace_limit=args.trace_limit,
        per_warp=args.per_warp,
    )
    result = run_workload(
        make_workload(args.workload), resolve_technique(args.technique),
        config=config, obs=obs,
    )
    stats = result.stats
    print(f"workload={args.workload} technique={args.technique} "
          f"config={args.config}")
    print(cpi_stack_report(
        stats, title=f"CPI stack ({args.workload}/{args.technique})"), end="")
    mem_share = sum(stats.cpi_stack[b] for b in MEM_BUCKETS) / stats.cycles
    spill_loads = stats.l1_load_sectors[STREAM_SPILL]
    spill_stores = stats.l1_store_sectors[STREAM_SPILL]
    print(f"memory-stall share : {mem_share:.1%} of cycles")
    print(f"spill/fill L1D share: {stats.spill_fraction():.1%} of accesses "
          f"({spill_loads} load + {spill_stores} store sectors)")
    if stats.traps:
        print(f"CARS traps         : {stats.traps} "
              f"({stats.trap_fraction():.3%} of calls)")
    if args.per_warp:
        worst = sorted(
            stats.warp_stalls.items(),
            key=lambda item: -sum(item[1].values()),
        )[:args.top_warps]
        print(f"\nworst {len(worst)} warps by stall cycles:")
        for key, stalls in worst:
            top = ", ".join(
                f"{bucket}={cycles}"
                for bucket, cycles in stalls.most_common(3)
            )
            print(f"  {key:<16} {sum(stalls.values()):>10}  ({top})")
    if args.trace:
        obs.tracer.write_jsonl(args.trace)
        dropped = (f", {obs.tracer.dropped} dropped"
                   if obs.tracer.dropped else "")
        print(f"\nwrote {len(obs.tracer.records())} trace events to "
              f"{args.trace}{dropped}")
    return 0


#: (workload, technique) pairs timed by ``repro bench`` — one
#: compute-bound and one memory-bound workload, under both ABIs, so both
#: the SM fast path and the L1/DRAM event machinery are on the clock.
BENCH_PAIRS = (
    ("FIB", "baseline"),
    ("FIB", "cars"),
    ("Bert_LT", "baseline"),
    ("Bert_LT", "cars"),
)


def _bench_calibration(rounds: int = 3) -> float:
    """Best-of-N CPU seconds for a fixed integer spin loop.

    A machine-speed proxy: normalizing stored cycles/sec by the ratio of
    calibration times makes the committed baseline comparable across
    hosts (CI runners included).  All bench timings use
    ``time.process_time`` — CPU time, not wall-clock — so background load
    on the host cannot fail the gate.
    """
    import time

    best = float("inf")
    for _ in range(rounds):
        t0 = time.process_time()
        x = 0
        for i in range(2_000_000):
            x = (x * 1103515245 + 12345 + i) & 0xFFFFFFFF
        best = min(best, time.process_time() - t0)
    return best


def _best_normalized_round(rounds: int, timed_round) -> tuple:
    """Run *timed_round* *rounds* times between best-of-3 spins.

    *timed_round* returns ``(cpu_seconds, count)``.  A spin runs before
    each round and one after the last; each round is normalized by the
    mean of the two spins beside it, so host drift between rounds moves
    the spin with the round it scales.  Returns the best normalized
    round as ``(cpu_seconds, count, calibration)``, where *calibration*
    is that round's spin mean.
    """
    spins = [_bench_calibration()]
    measured = []
    for _ in range(rounds):
        measured.append(timed_round())
        spins.append(_bench_calibration())
    calibs = [(a + b) / 2 for a, b in zip(spins, spins[1:])]
    best = min(range(rounds), key=lambda i: measured[i][0] / calibs[i])
    return (*measured[best], calibs[best])


def _vs_baseline(baseline, key: str, count_field: str, count: int,
                 rate_field: str, rate: float, calib: float,
                 tolerance: float, failures: list) -> str:
    """Table suffix comparing one measurement with its ``BENCH_core.json`` entry.

    *rate* is normalized by the calibration of the session that recorded
    the entry (the entry's own ``calibration_sec``, else the file's).  A
    count that differs from the recorded one, or a normalized rate more
    than *tolerance* below ``rate_field``, is appended to *failures*.
    """
    if baseline is None or key not in baseline.get("workloads", {}):
        return ""
    ref = baseline["workloads"][key]
    ref_calib = ref.get("calibration_sec", baseline.get("calibration_sec"))
    ratio = rate * (calib / ref_calib if ref_calib else 1.0) / ref[rate_field]
    if ref.get(count_field) is not None and count != ref[count_field]:
        failures.append(
            f"{key}: measured {count} {count_field}, baseline recorded "
            f"{ref[count_field]} (simulated output drifted)"
        )
    if ratio < 1.0 - tolerance:
        failures.append(
            f"{key}: normalized throughput x{ratio:.2f} is below "
            f"the {1.0 - tolerance:.2f} gate"
        )
    return f"  vs baseline x{ratio:.2f}"


def _cmd_bench(args) -> int:
    """Simulator-throughput benchmark with a regression gate.

    Measures cycles/sec (best of ``--rounds`` after one warm-up run) for
    the :data:`BENCH_PAIRS` grid, and warp instructions per CPU second of
    the emulator stage (``Workload.traces`` of each pair's workload, best
    of ``--rounds``, each round on a freshly built and compiled workload).
    A best-of-3 spin runs before each timed round and one after the last
    (:func:`_best_normalized_round`): each round is normalized by the
    mean of the two spins beside it, and an entry reports its best
    normalized round with that round's spin mean as its calibration, so
    host drift over the run moves the spin with the round it scales.
    Prints a table against the committed ``BENCH_core.json``
    baseline, and with ``--check`` exits 1 when any calibration-normalized
    throughput regresses more than ``--tolerance`` below the baseline's
    ``after_cps``/``after_wips``, or a simulated count (``cycles``,
    ``warp_instructions``) differs from the recorded one.
    """
    import json
    import time
    from pathlib import Path

    from .harness._runner import run_workload

    config = PRESETS[args.config]
    baseline_path = Path(args.baseline)
    baseline = (
        json.loads(baseline_path.read_text()) if baseline_path.exists() else None
    )
    measured = {}
    failures = []
    for workload_name, technique_name in BENCH_PAIRS:
        workload = make_workload(workload_name)
        technique = resolve_technique(technique_name)
        workload.traces(inlined=technique.use_inlined)  # compile+trace once
        run_workload(workload, technique, config=config)  # warm caches/JIT-ish

        def core_round():
            t0 = time.process_time()
            result = run_workload(workload, technique, config=config)
            return time.process_time() - t0, result.cycles

        best, cycles, calib = _best_normalized_round(args.rounds, core_round)
        cps = cycles / best
        key = f"{workload_name}/{technique_name}"
        measured[key] = {"cycles": cycles, "cycles_per_sec": round(cps),
                         "calibration_sec": round(calib, 4)}
        print(f"  {key:<18} {cycles:>9} cycles  {cps:>12,.0f} cyc/s"
              f"  calib {calib:.3f}s"
              + _vs_baseline(baseline, key, "cycles", cycles, "after_cps", cps,
                             calib, args.tolerance, failures))

    for workload_name in dict.fromkeys(name for name, _ in BENCH_PAIRS):

        def trace_round():
            # make_workload memoizes; a fresh object has no cached traces.
            workload = make_workload.__wrapped__(workload_name)
            workload.module()  # compile outside the clock
            t0 = time.process_time()
            traces = workload.traces()
            elapsed = time.process_time() - t0
            return elapsed, sum(t.dynamic_instructions for t in traces)

        best, winst, calib = _best_normalized_round(args.rounds, trace_round)
        wips = winst / best
        key = f"{workload_name}/trace"
        measured[key] = {"warp_instructions": winst,
                         "warp_instructions_per_sec": round(wips),
                         "calibration_sec": round(calib, 4)}
        print(f"  {key:<18} {winst:>9} winsts  {wips:>12,.0f} winst/s"
              f"  calib {calib:.3f}s"
              + _vs_baseline(baseline, key, "warp_instructions", winst,
                             "after_wips", wips, calib, args.tolerance,
                             failures))

    if args.json:
        payload = {
            "schema": 1,
            "config": args.config,
            "results": measured,
        }
        Path(args.json).write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.json}")
    if args.check:
        if baseline is None:
            print(f"no baseline at {baseline_path}; nothing to check",
                  file=sys.stderr)
            return 1
        if failures:
            print("\nREGRESSIONS:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print("throughput gate: OK")
    return 0


def _cmd_tune(args) -> int:
    """Search CARS policy per workload class (``repro tune``).

    Runs :class:`repro.dse.Tuner` over the requested workloads, prints
    the best-policy-per-workload table (or the schema-versioned JSON
    payload with ``--json``).  Every cell goes through the result store,
    so a repeated invocation simulates nothing.
    """
    import json as _json

    from .dse import Tuner, default_policy_grid

    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    unknown = sorted(set(workloads) - set(WORKLOAD_NAMES))
    if unknown:
        print(f"error: unknown workload(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    grid_kwargs = {}
    if args.schemes:
        grid_kwargs["schemes"] = tuple(
            s.strip() for s in args.schemes.split(",") if s.strip())
    if args.schedulers:
        grid_kwargs["schedulers"] = tuple(
            s.strip() for s in args.schedulers.split(",") if s.strip())
    policies = default_policy_grid(**grid_kwargs) if grid_kwargs else None
    tuner = Tuner(
        workloads=workloads,
        policies=policies,
        budget=args.budget,
        seed=args.seed,
        base_config=PRESETS[args.config],
        executor=Executor(jobs=args.jobs),
    )
    report = tuner.search()
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0


def _cmd_regen(args) -> int:
    from .harness._regenerate import regenerate

    regenerate(args.output, jobs=args.jobs, quiet=args.quiet)
    return 0


def _cmd_selfcheck(args) -> int:
    """Fault-injection battery: one fault per class, assert the alarm.

    Exit 0 when every fault class was converted into its expected typed
    exception, 1 otherwise (see ``repro.resilience.selfcheck``).
    """
    from .resilience.selfcheck import render_report, run_selfcheck

    reports = run_selfcheck(seed=args.seed)
    print(render_report(reports))
    return 0 if all(r.ok for r in reports) else 1


def _cmd_serve(args) -> int:
    """Run the resilient simulation service (``repro serve``).

    Blocks until SIGTERM/SIGINT, then drains gracefully: in-flight
    launches checkpoint at their next idle boundary and every job's
    state is journaled, so a restarted service resumes where this one
    stopped (docs/architecture.md §15).
    """
    from .service import ServiceConfig
    from .service.http import serve

    config = ServiceConfig(
        root=args.root,
        store_root=args.store_dir or None,
        max_attempts=args.max_attempts,
    )
    serve(config, host=args.host, port=args.port)
    return 0


def _cmd_cache(args) -> int:
    """Inspect, fsck, or clear the content-addressed result store."""
    store = ResultStore(args.dir or None)
    if args.action == "info":
        info = store.info()
        print(f"root    : {info['root']}")
        print(f"schema  : v{info['schema']}")
        print(f"entries : {info['entries']}")
        print(f"bytes   : {info['bytes']}")
        return 0
    if args.action == "verify":
        from .resilience.errors import StoreCorruptionError

        report = store.verify(strict=False)
        print(f"root        : {report['root']}")
        print(f"checked     : {report['checked']}")
        print(f"ok          : {report['ok']}")
        print(f"stale       : {report['stale']} "
              f"(older schema; ignored, not corrupt)")
        print(f"tmp removed : {report['removed_tmp']}")
        print(f"quarantined : {len(report['quarantined'])}")
        for name in report["quarantined"]:
            print(f"  -> {store.quarantine_dir / name}")
        if report["quarantined"]:
            # Raised *after* the report so the log shows what moved;
            # main() maps this to the distinct exit code 11.
            raise StoreCorruptionError(
                f"{len(report['quarantined'])} corrupt store entr"
                f"{'y' if len(report['quarantined']) == 1 else 'ies'} "
                f"moved to {store.quarantine_dir}",
                quarantined=report["quarantined"],
            )
        if args.strict and report["stale"]:
            print(f"strict: {report['stale']} stale entries present",
                  file=sys.stderr)
            return 1
        print("store: clean")
        return 0
    removed = store.clear()
    print(f"removed {removed} entries from {store.root}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro", description="CARS (MICRO 2024) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, techniques, configs")

    sub.add_parser(
        "techniques",
        help="list registered techniques and parametric families")

    analyze = sub.add_parser(
        "analyze",
        help="interprocedural register-pressure analysis of a workload")
    analyze_scope = analyze.add_mutually_exclusive_group(required=True)
    analyze_scope.add_argument("--workload", choices=WORKLOAD_NAMES)
    analyze_scope.add_argument("--all", action="store_true",
                               help="analyze every Table I workload")
    analyze.add_argument("--json", action="store_true",
                         help="machine-readable analysis report")
    analyze.add_argument("--validate", action="store_true",
                         help="simulate each CARS scheme and exit 1 if any "
                              "static prediction is violated")
    analyze.add_argument("--config", default="volta", choices=sorted(PRESETS),
                         help="hardware preset for --validate runs")

    lint = sub.add_parser(
        "lint", help="ABI/stack-safety lint of compiled workload binaries")
    scope = lint.add_mutually_exclusive_group(required=True)
    scope.add_argument("--workload", choices=WORKLOAD_NAMES)
    scope.add_argument("--all", action="store_true",
                       help="lint every Table I workload")
    lint.add_argument("--strict", action="store_true",
                      help="treat warnings as gate failures")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable diagnostics")
    lint.add_argument("--stack-regs", type=int, default=None, metavar="N",
                      help="per-warp register allocation; arms the CARS405 "
                           "guaranteed-trap check against it")

    run = sub.add_parser("run", help="simulate one (workload, technique)")
    run.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    run.add_argument("--technique", default="cars", metavar="NAME",
                     help="a registered technique, a parametric family "
                          "name (swl_4, regdem_16, ...), or best_swl; "
                          "see `repro techniques`")
    run.add_argument("--config", default="volta", choices=sorted(PRESETS))
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes (results come from the store "
                          "when warm)")

    profile = sub.add_parser(
        "profile", help="CPI-stack stall attribution for one run")
    profile.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    profile.add_argument("--technique", default="baseline", metavar="NAME",
                         help="a registered technique or parametric family "
                              "name; see `repro techniques`")
    profile.add_argument("--config", default="volta", choices=sorted(PRESETS))
    profile.add_argument("--trace", default="", metavar="OUT.JSONL",
                         help="dump the bounded event trace as JSONL")
    profile.add_argument("--trace-limit", type=int, default=None, metavar="N",
                         help="ring-buffer capacity (newest N events kept)")
    profile.add_argument("--per-warp", action="store_true",
                         help="accumulate per-warp stall attribution")
    profile.add_argument("--top-warps", type=int, default=5, metavar="N",
                         help="warps to show with --per-warp")

    bench = sub.add_parser(
        "bench", help="simulator-throughput benchmark + regression gate")
    bench.add_argument("--config", default="volta", choices=sorted(PRESETS))
    bench.add_argument("--rounds", type=int, default=3, metavar="N",
                       help="timed repetitions per pair and trace stage "
                            "(best is kept)")
    bench.add_argument("--baseline", default="BENCH_core.json",
                       metavar="PATH",
                       help="committed throughput baseline to compare against")
    bench.add_argument("--check", action="store_true",
                       help="exit 1 on >tolerance regression vs the baseline")
    bench.add_argument("--tolerance", type=float, default=0.20,
                       metavar="FRAC",
                       help="allowed fractional throughput drop (default 0.20)")
    bench.add_argument("--json", default="", metavar="OUT.JSON",
                       help="write measured numbers as JSON (CI artifact)")

    tune = sub.add_parser(
        "tune", help="search CARS policy per workload class")
    tune.add_argument("--workloads", required=True, metavar="CSV",
                      help="comma-separated workload names (see `repro list`)")
    tune.add_argument("--budget", type=int, default=None, metavar="N",
                      help="cap on evaluated cells (store-warm cells count "
                           "toward it; rungs that no longer fit are skipped)")
    tune.add_argument("--seed", type=int, default=0,
                      help="rung-order shuffle seed (equal seeds give "
                           "byte-equal searches)")
    tune.add_argument("--config", default="volta", choices=sorted(PRESETS),
                      help="hardware preset the policies are applied to")
    tune.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes for each rung's grid")
    tune.add_argument("--schemes", default="", metavar="CSV",
                      help="watermark schemes to grid over (default: "
                           "dynamic,low,nxlow2,nxlow4,high)")
    tune.add_argument("--schedulers", default="", metavar="CSV",
                      help="warp schedulers to grid over (default: gto,lrr)")
    tune.add_argument("--json", action="store_true",
                      help="machine-readable report (schema-versioned)")

    regen = sub.add_parser("regen", help="regenerate EXPERIMENTS.md")
    regen.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    regen.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                       help="worker processes for the sweep")
    regen.add_argument("--quiet", "-q", action="store_true",
                       help="suppress per-run progress lines on stderr")

    selfcheck = sub.add_parser(
        "selfcheck",
        help="fault-injection battery: prove each guardrail fires")
    selfcheck.add_argument("--seed", type=int, default=0,
                           help="seed for fault-ordinal selection")

    serve = sub.add_parser(
        "serve",
        help="run the crash-safe simulation service (HTTP JSON API)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--root", default="service-state", metavar="DIR",
                       help="journal + resume-state directory")
    serve.add_argument("--store-dir", default="", metavar="DIR",
                       help="result store root (default: the shared "
                            "on-disk store, REPRO_CACHE_DIR)")
    serve.add_argument("--max-attempts", type=int, default=3, metavar="N",
                       help="attempts per job before it fails "
                            "(transient crashes only; deterministic "
                            "failures never retry)")

    cache = sub.add_parser(
        "cache",
        help="inspect/fsck/clear the content-addressed result store")
    cache.add_argument("action", choices=["info", "verify", "clear"])
    cache.add_argument("--strict", action="store_true",
                       help="verify: also fail (exit 1) on stale-schema "
                            "entries, not just corrupt ones")
    cache.add_argument("--dir", default="",
                       help="store root (default: REPRO_CACHE_DIR or "
                            "~/.cache/repro-cars)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "list": _cmd_list,
        "techniques": _cmd_techniques,
        "analyze": _cmd_analyze,
        "lint": _cmd_lint,
        "run": _cmd_run,
        "profile": _cmd_profile,
        "bench": _cmd_bench,
        "tune": _cmd_tune,
        "regen": _cmd_regen,
        "selfcheck": _cmd_selfcheck,
        "serve": _cmd_serve,
        "cache": _cmd_cache,
    }[args.command]
    try:
        return handler(args)
    except SimulationError as exc:
        # Typed simulator failures map to distinct exit codes (README's
        # "When a run fails") and print their diagnostic dump, so a wedged
        # run in CI leaves enough state behind to debug from the log.
        print(f"error: {exc}", file=sys.stderr)
        if exc.diagnostics is not None:
            print(exc.diagnostics.render(), file=sys.stderr)
        tb = getattr(exc, "worker_traceback", None)
        if tb:
            print(tb, file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
