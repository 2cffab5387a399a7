"""Per-figure/table experiment functions.

Every function regenerates the rows/series of one paper figure or table on
the scaled simulator.  Instead of simulating inline, each function builds a
declarative :class:`~repro.harness.executor.ExperimentPlan` naming every
(workload x technique x config) cell it needs and executes it through the
module's shared :class:`~repro.harness.executor.Executor` — so the many
figures that share the same sweeps (Figs 8/9/10/12/13/15, Tables II/III)
cost one simulation each, cells are computed in parallel when the executor
has ``jobs > 1``, and results persist in the content-addressed store (an
interrupted sweep resumes where it stopped).

Workload scope is controlled by ``REPRO_WORKLOADS`` (comma list, ``all``,
or ``smoke``).  The default executor is serial; ``repro regen --jobs N``
(:func:`configure_executor`) fans it out.  The benchmark suite and
``repro regen`` (:mod:`repro.harness._regenerate`) both go through these
functions.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..callgraph import analyze_kernel, build_call_graph
from ..cars.policy import PolicyMemory
from ..config import ampere, volta
from ..config.gpu_config import GPUConfig
from ..core.techniques import (
    ALL_HIT,
    BASELINE,
    CARS,
    IDEAL_VW,
    L1_HUGE,
    LTO,
    Technique,
    cars_nxlow,
)
from ..metrics.counters import STREAM_GLOBAL, STREAM_LOCAL, STREAM_SPILL
from ..power.model import DEFAULT_ENERGY_MODEL
from ..spill import REGDEM, RFCACHE
from ..workloads import WORKLOAD_NAMES, SMOKE_NAMES, make_workload
from .executor import Executor, ExperimentPlan, ExperimentRequest, ProgressFn, ResultStore
from ._runner import RunResult, geomean

#: Fig 8's studied techniques, in the paper's order.
FIG8_TECHNIQUES = ("ideal_vw", "l1_10mb", "best_swl", "cars")

#: The rival register-pressure arms compared by :func:`table_rivals`.
RIVAL_TECHNIQUES = ("cars", "regdem", "rfcache")

_EXECUTOR: Optional[Executor] = None


def workload_names() -> List[str]:
    """Workloads in scope (REPRO_WORKLOADS=all|smoke|CSV; default all)."""
    raw = os.environ.get("REPRO_WORKLOADS", "all").strip()
    if raw in ("", "all"):
        return list(WORKLOAD_NAMES)
    if raw == "smoke":
        return list(SMOKE_NAMES)
    names = [n.strip() for n in raw.split(",") if n.strip()]
    unknown = set(names) - set(WORKLOAD_NAMES)
    if unknown:
        raise KeyError(f"unknown workloads: {sorted(unknown)}")
    return names


# ---------------------------------------------------------------------------
# The shared executor
# ---------------------------------------------------------------------------


def get_executor() -> Executor:
    """The executor shared by every figure/table function (serial until
    :func:`configure_executor` replaces it)."""
    global _EXECUTOR
    if _EXECUTOR is None:
        _EXECUTOR = Executor()
    return _EXECUTOR


def configure_executor(
    *,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    progress: Optional[ProgressFn] = None,
) -> Executor:
    """Replace the shared executor (e.g. ``regenerate --jobs N``)."""
    global _EXECUTOR
    _EXECUTOR = Executor(jobs=jobs, store=store, progress=progress)
    return _EXECUTOR


def clear_cache() -> None:
    """Drop all in-memory run results (not the on-disk store)."""
    if _EXECUTOR is not None:
        _EXECUTOR.clear_memo()


def _plan() -> ExperimentPlan:
    return ExperimentPlan(get_executor())


TechniqueLike = Union[Technique, str]


def _sweep(
    names: Sequence[str],
    techniques: Sequence[TechniqueLike] = (),
    *,
    best_swl: bool = False,
    config: Optional[GPUConfig] = None,
) -> None:
    """Execute the (names x techniques) grid, deduplicated, via one plan.

    The grid is declared as a :class:`repro.dse.Space` and compiled to a
    plan — the same path ``repro tune`` and user-written explorations
    take — so dedup and store keying have exactly one implementation.
    """
    from ..dse import Space

    arms: List[TechniqueLike] = list(techniques)
    if best_swl:
        arms.append("best_swl")
    if not names or not arms:
        return
    space = (
        Space()
        .add_parameter("workload", list(names))
        .add_parameter("technique", arms)
    )
    if config is not None:
        space.add_function("config", lambda cfg: cfg, params={"cfg": config})
    plan = _plan()
    plan.add_space(space)
    plan.execute()


def _run(
    name: str, technique: TechniqueLike, config: Optional[GPUConfig] = None
) -> RunResult:
    """One cell; a memo hit when a plan already covered it."""
    tech = technique if isinstance(technique, str) else technique.name
    return get_executor().run_one(ExperimentRequest(
        name, tech, config if config is not None else volta()
    ))


def _run_best_swl(name: str, config: Optional[GPUConfig] = None) -> RunResult:
    return get_executor().run_one(ExperimentRequest(
        name, "best_swl", config if config is not None else volta()
    ))


def _speedup(name: str, technique: TechniqueLike) -> float:
    return _run(name, technique).speedup_over(_run(name, BASELINE))


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


def fig1_trend() -> List[Tuple[int, int, int]]:
    """Fig 1: (year, SLOC, device functions) survey series."""
    from ..workloads.fig1_data import series

    return series()


def fig2_baseline_access_mix(names: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, float]]:
    """Fig 2: baseline L1D access mix (spills/fills vs other locals vs
    globals), per workload plus the suite average."""
    names = list(names) if names is not None else workload_names()
    _sweep(names, (BASELINE,))
    rows: Dict[str, Dict[str, float]] = {}
    for name in names:
        rows[name] = _run(name, BASELINE).stats.access_breakdown()
    rows["average"] = {
        stream: sum(rows[n][stream] for n in names) / len(names)
        for stream in (STREAM_SPILL, STREAM_LOCAL, STREAM_GLOBAL)
    }
    return rows


def fig4_callgraph_example() -> Dict[str, int]:
    """Fig 4: the paper's call-graph numbers, computed by our analysis."""
    from ..callgraph.graph import CallGraph
    from ..callgraph.analysis import analyze_kernel as _analyze

    # FRUs chosen to match the numbers quoted in the paper's text:
    # Low-watermark = 20 (kernel) + 10 (largest FRU) = 30, and the bold
    # High-watermark chain k -> f2 -> f4 -> f5 -> f6 sums to 56.
    graph = CallGraph()
    graph.edges = {
        "kernel": {"f1", "f2"},
        "f1": {"f3"},
        "f2": {"f3", "f4"},
        "f3": set(),
        "f4": {"f5"},
        "f5": {"f6"},
        "f6": set(),
    }
    graph.fru = {
        "kernel": 20, "f1": 8, "f2": 10, "f3": 9, "f4": 10, "f5": 9, "f6": 7,
    }
    graph.kernels = ("kernel",)
    analysis = _analyze(graph, "kernel")
    return {
        "low_watermark": analysis.low_watermark,
        "high_watermark": analysis.high_watermark,
        "2xlow_watermark": analysis.nxlow_watermark(2),
    }


def fig5_policy_demo() -> Dict[str, object]:
    """Fig 5: drive the state machine and report its decisions."""
    from ..cars.policy import DynamicReservationPolicy

    memory = PolicyMemory()
    levels = [30, 40, 56]
    policy = DynamicReservationPolicy("demo", levels, num_sms=4, memory=memory)
    seeds = [policy.level_for_new_block(sm) for sm in range(4)]
    policy.record_block(0, 0, runtime=3000)  # Low block finishes, slow
    policy.record_block(3, 2, runtime=1800)  # High block finishes, faster
    adjusted = [policy.level_for_new_block(sm) for sm in range(4)]
    best = policy.finalize()
    reseeded = DynamicReservationPolicy("demo", levels, 4, memory)
    next_launch = [reseeded.level_for_new_block(sm) for sm in range(4)]
    return {
        "seeds": seeds,
        "after_measurement": adjusted,
        "remembered_best": best,
        "next_launch_seeds": next_launch,
    }


def fig6_wraparound_demo(capacity: int = 20, frus: Sequence[int] = (8, 8, 8, 8)) -> Dict[str, int]:
    """Fig 6: circular-stack behaviour on a deep chain."""
    from ..cars.register_stack import WarpRegisterStack

    stack = WarpRegisterStack(capacity)
    spilled = sum(sum(c for _, c in stack.call(fru)) for fru in frus)
    filled = 0
    while stack.depth:
        fill = stack.ret()
        if fill is not None:
            filled += fill[1]
    return {"spilled_regs": spilled, "filled_regs": filled}


def fig8_performance(names: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, float]]:
    """Fig 8 (headline): speedups of IdealVW / 10MB-L1 / Best-SWL / CARS
    over the baseline, plus the geomean row."""
    names = list(names) if names is not None else workload_names()
    _sweep(names, (BASELINE, IDEAL_VW, L1_HUGE, CARS), best_swl=True)
    rows: Dict[str, Dict[str, float]] = {}
    for name in names:
        rows[name] = {
            "ideal_vw": _speedup(name, IDEAL_VW),
            "l1_10mb": _speedup(name, L1_HUGE),
            "best_swl": _run_best_swl(name).speedup_over(_run(name, BASELINE)),
            "cars": _speedup(name, CARS),
        }
    rows["geomean"] = {
        tech: geomean([rows[n][tech] for n in names]) for tech in FIG8_TECHNIQUES
    }
    return rows


def fig9_access_reduction(names: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, float]]:
    """Fig 9: L1D accesses under CARS vs baseline, by stream (normalized
    to the workload's baseline total)."""
    names = list(names) if names is not None else workload_names()
    _sweep(names, (BASELINE, CARS))
    rows: Dict[str, Dict[str, float]] = {}
    for name in names:
        base = _run(name, BASELINE).stats
        cars = _run(name, CARS).stats
        total = max(1, base.total_l1_accesses)
        rows[name] = {
            "baseline_spill": base.l1_accesses[STREAM_SPILL] / total,
            "baseline_local": base.l1_accesses[STREAM_LOCAL] / total,
            "baseline_global": base.l1_accesses[STREAM_GLOBAL] / total,
            "cars_spill": cars.l1_accesses[STREAM_SPILL] / total,
            "cars_local": cars.l1_accesses[STREAM_LOCAL] / total,
            "cars_global": cars.l1_accesses[STREAM_GLOBAL] / total,
        }
    return rows


def fig10_allhit(names: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, float]]:
    """Fig 10: ALL-HIT vs CARS speedups."""
    names = list(names) if names is not None else workload_names()
    _sweep(names, (BASELINE, ALL_HIT, CARS))
    rows = {
        name: {"all_hit": _speedup(name, ALL_HIT), "cars": _speedup(name, CARS)}
        for name in names
    }
    rows["geomean"] = {
        "all_hit": geomean([rows[n]["all_hit"] for n in names]),
        "cars": geomean([rows[n]["cars"] for n in names]),
    }
    return rows


def fig11_bandwidth_timeline(name: str = "PTA") -> Dict[str, object]:
    """Fig 11: global/local L1 bandwidth over time, baseline vs CARS."""
    _sweep([name], (BASELINE, CARS))
    base = _run(name, BASELINE)
    cars = _run(name, CARS)
    return {
        "baseline_series": base.stats.global_bandwidth_timeline(),
        "cars_series": cars.stats.global_bandwidth_timeline(),
        "baseline_avg_global_bw": base.stats.average_global_bandwidth(),
        "cars_avg_global_bw": cars.stats.average_global_bandwidth(),
    }


def fig12_mpki(names: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, float]]:
    """Fig 12: L1D MPKI for baseline and CARS, plus the mean reduction."""
    names = list(names) if names is not None else workload_names()
    _sweep(names, (BASELINE, CARS))
    rows: Dict[str, Dict[str, float]] = {}
    for name in names:
        rows[name] = {
            "baseline": _run(name, BASELINE).stats.mpki(),
            "cars": _run(name, CARS).stats.mpki(),
        }
    reductions = [
        1 - rows[n]["cars"] / rows[n]["baseline"]
        for n in names
        if rows[n]["baseline"] > 0
    ]
    rows["average_reduction"] = {
        "baseline": 0.0,
        "cars": sum(reductions) / len(reductions) if reductions else 0.0,
    }
    return rows


def fig13_instruction_mix(names: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, float]]:
    """Fig 13: issued-instruction mix, normalized to the baseline total."""
    names = list(names) if names is not None else workload_names()
    _sweep(names, (BASELINE, CARS))
    groups = {
        "alu": ("ALU", "FPU", "SFU", "SMEM"),
        "global": ("GLOBAL_LD", "GLOBAL_ST"),
        "spill": ("SPILL_LD", "SPILL_ST"),
        "local": ("LOCAL_LD", "LOCAL_ST"),
        "ctrl": ("BRANCH", "CALL", "RET", "BAR", "EXIT"),
        "stack": ("STACK",),
    }
    rows: Dict[str, Dict[str, float]] = {}
    for name in names:
        base = _run(name, BASELINE).stats.instruction_mix()
        cars = _run(name, CARS).stats.instruction_mix()
        total = max(1, sum(base.values()))
        row = {}
        for label, kinds in groups.items():
            row[f"baseline_{label}"] = sum(base.get(k, 0) for k in kinds) / total
            row[f"cars_{label}"] = sum(cars.get(k, 0) for k in kinds) / total
        rows[name] = row
    return rows


def fig14_pta_allocation() -> Dict[str, Dict[str, float]]:
    """Fig 14: per-PTA-kernel speedups of the allocation mechanisms.

    This study simulates each kernel launch in isolation, below the
    workload granularity the executor addresses, so it drives the timing
    model directly rather than submitting plan requests.
    """
    workload = make_workload("PTA")
    mechanisms = {
        "low": Technique("cars_low", abi="cars", cars_mode="low"),
        "nxlow2": cars_nxlow(2),
        "high": Technique("cars_high", abi="cars", cars_mode="high"),
        "dynamic": CARS,
    }
    cfg = volta()
    module = workload.module()
    graph = build_call_graph(module)
    # Per-kernel runs: simulate each launch in isolation per mechanism.
    from ..core.gpu import GPU
    from ..metrics.counters import SimStats

    rows: Dict[str, Dict[str, float]] = {}
    traces = workload.traces()
    seen = set()
    base_cycles: Dict[str, int] = {}
    for trace in traces:
        if trace.kernel in seen:
            continue
        seen.add(trace.kernel)
        stats = SimStats()
        ctx = BASELINE.make_context(trace, cfg, stats)
        GPU(cfg, ctx, stats).run(trace)
        base_cycles[trace.kernel] = stats.cycles
        rows[trace.kernel] = {}
    seen.clear()
    for trace in traces:
        if trace.kernel in seen:
            continue
        seen.add(trace.kernel)
        analysis = analyze_kernel(graph, trace.kernel)
        for label, technique in mechanisms.items():
            stats = SimStats()
            ctx = technique.make_context(trace, cfg, stats, analysis)
            GPU(cfg, ctx, stats).run(trace)
            rows[trace.kernel][label] = base_cycles[trace.kernel] / stats.cycles
            if label == "high":
                rows[trace.kernel]["high_context_switches"] = stats.context_switches
    return rows


def fig15_energy(names: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, float]]:
    """Fig 15: energy efficiency normalized to the baseline."""
    names = list(names) if names is not None else workload_names()
    _sweep(names, (BASELINE, IDEAL_VW, L1_HUGE, CARS), best_swl=True)
    model = DEFAULT_ENERGY_MODEL
    techniques = {
        "ideal_vw": IDEAL_VW,
        "l1_10mb": L1_HUGE,
        "cars": CARS,
    }
    rows: Dict[str, Dict[str, float]] = {}
    for name in names:
        base_eff = _run(name, BASELINE).energy_efficiency(model)
        row = {
            label: _run(name, tech).energy_efficiency(model) / base_eff
            for label, tech in techniques.items()
        }
        row["best_swl"] = _run_best_swl(name).energy_efficiency(model) / base_eff
        rows[name] = row
    rows["geomean"] = {
        label: geomean([rows[n][label] for n in names])
        for label in ("ideal_vw", "l1_10mb", "best_swl", "cars")
    }
    return rows


def fig16_lto(names: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, float]]:
    """Fig 16: fully-inlined (LTO) vs CARS speedups."""
    names = list(names) if names is not None else workload_names()
    _sweep(names, (BASELINE, LTO, CARS))
    rows = {
        name: {"lto": _speedup(name, LTO), "cars": _speedup(name, CARS)}
        for name in names
    }
    rows["geomean"] = {
        "lto": geomean([rows[n]["lto"] for n in names]),
        "cars": geomean([rows[n]["cars"] for n in names]),
    }
    return rows


def fig17_port_scaling(
    names: Optional[Sequence[str]] = None, factors: Sequence[int] = (2, 4, 8)
) -> Dict[str, Dict[str, float]]:
    """Fig 17: baseline and CARS under scaled L1 bandwidth, all normalized
    to the 1x baseline."""
    names = list(names) if names is not None else workload_names()
    base_ports = volta().l1.ports
    port_configs = [volta().with_l1_ports(base_ports * f) for f in factors]
    plan = _plan()
    for name in names:
        plan.add(name, BASELINE)
        plan.add(name, CARS)
        for cfg in port_configs:
            plan.add(name, BASELINE, config=cfg)
            plan.add(name, CARS, config=cfg)
    plan.execute()
    rows: Dict[str, Dict[str, float]] = {}
    for name in names:
        base_1x = _run(name, BASELINE).cycles
        row = {"cars_1x": base_1x / _run(name, CARS).cycles}
        for factor, cfg in zip(factors, port_configs):
            row[f"baseline_{factor}x"] = base_1x / _run(name, BASELINE, cfg).cycles
            row[f"cars_{factor}x"] = base_1x / _run(name, CARS, cfg).cycles
        rows[name] = row
    keys = list(next(iter(rows.values())).keys())
    rows["geomean"] = {k: geomean([rows[n][k] for n in names]) for k in keys}
    return rows


def fig18_ampere(names: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, float]]:
    """Fig 18: CARS speedup on the Ampere (RTX 3070-like) configuration."""
    names = list(names) if names is not None else workload_names()
    cfg = ampere()
    _sweep(names, (BASELINE, CARS), config=cfg)
    rows: Dict[str, Dict[str, float]] = {}
    for name in names:
        base = _run(name, BASELINE, cfg)
        cars = _run(name, CARS, cfg)
        rows[name] = {"cars": cars.speedup_over(base)}
    rows["geomean"] = {"cars": geomean([rows[n]["cars"] for n in names])}
    return rows


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def table1_workloads(names: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, float]]:
    """Table I: measured call depth and CPKI vs the paper's values."""
    names = list(names) if names is not None else workload_names()
    rows = {}
    for name in names:
        workload = make_workload(name)
        rows[name] = {
            "suite": workload.suite,
            "paper_depth": workload.paper_call_depth,
            "measured_depth": workload.measured_call_depth(),
            "paper_cpki": workload.paper_cpki,
            "measured_cpki": workload.measured_cpki(),
        }
    return rows


def table2_speedup_factors(names: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, str]]:
    """Table II: diagnose each workload's main CARS speedup factor from the
    idealized-configuration responses (the paper's Section VI-A logic)."""
    names = list(names) if names is not None else workload_names()
    _sweep(names, (BASELINE, CARS, L1_HUGE, ALL_HIT))
    rows: Dict[str, Dict[str, str]] = {}
    for name in names:
        cars = _speedup(name, CARS)
        l1 = _speedup(name, L1_HUGE)
        all_hit = _speedup(name, ALL_HIT)
        base_stats = _run(name, BASELINE).stats
        spill_frac = base_stats.spill_fraction()
        blocks = {(blk.sm_id, blk.block_id) for blk in base_stats.blocks}
        if cars < 1.04 and spill_frac < 0.25:
            # Few spills to begin with: CARS is (correctly) neutral.
            diagnosis = "Low total local memory access count"
        elif len(blocks) <= volta().num_sms and cars > 1.04:
            # ~1 block per SM: not enough warps to hide latency.
            diagnosis = "Low occupancy"
        elif spill_frac >= 0.7 or all_hit >= l1 * 0.98:
            # ALL-HIT (which only removes spill *misses*) explains the gain
            # as well as unlimited capacity does -> the bottleneck is the
            # spill traffic itself, not the cache size.
            diagnosis = "L1D bandwidth contention"
        elif l1 > 1.2:
            diagnosis = "L1D capacity and contention"
        elif l1 > 1.08:
            diagnosis = "L1D capacity"
        else:
            diagnosis = "L1D bandwidth contention"
        rows[name] = {
            "diagnosed": diagnosis,
            "paper": _PAPER_TABLE2.get(name, ""),
        }
    return rows


_PAPER_TABLE2 = {
    "PTA": "L1D bandwidth contention",
    "DMR": "L1D capacity and contention",
    "MST": "L1D capacity and contention",
    "SSSP": "L1D bandwidth contention",
    "CFD": "L1D capacity and contention",
    "TRAF": "L1D bandwidth contention",
    "GOL": "L1D capacity and contention",
    "NBD": "L1D bandwidth contention",
    "COLI": "L1D bandwidth contention",
    "STUT": "L1D capacity and contention",
    "RAY": "L1D bandwidth contention",
    "LULESH": "Low total local memory access count",
    "FIB": "L1D bandwidth contention",
    "Bert_LT": "L1D capacity",
    "Bert_AtScore": "Low occupancy",
    "Bert_AtOp": "Low occupancy",
    "Bert_FC": "L1D capacity",
    "Resnet_FP": "L1D capacity and contention",
    "Resnet_WG": "L1D capacity",
    "SVR": "L1D bandwidth contention",
    "KMEAN": "L1D bandwidth contention",
    "RF": "L1D bandwidth contention",
}


def table3_trap_stats(names: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, float]]:
    """Table III: trap-handler frequency and severity under CARS (only
    workloads that actually trapped appear, as in the paper)."""
    names = list(names) if names is not None else workload_names()
    _sweep(names, (CARS,))
    rows: Dict[str, Dict[str, float]] = {}
    for name in names:
        stats = _run(name, CARS).stats
        if stats.traps == 0 and stats.context_switches == 0:
            continue
        rows[name] = {
            "trap_fraction": stats.trap_fraction(),
            "bytes_per_call": stats.bytes_spilled_per_call(),
            "context_switches": stats.context_switches,
        }
    return rows


def table_rivals(names: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, float]]:
    """Rival register-pressure arms: CARS vs RegDem vs register-file cache.

    Per workload: speedup over the baseline ABI and the spill share of
    L1D accesses under each arm (the traffic the mechanism was supposed
    to remove), plus the register-file cache's hit rate.  The geomean
    row summarizes the speedups, as Fig 8 does for the idealized arms.
    """
    names = list(names) if names is not None else workload_names()
    _sweep(names, (BASELINE, CARS, REGDEM, RFCACHE))
    rows: Dict[str, Dict[str, float]] = {}
    for name in names:
        row: Dict[str, float] = {}
        for technique in (CARS, REGDEM, RFCACHE):
            stats = _run(name, technique).stats
            row[f"{technique.name}_speedup"] = _speedup(name, technique)
            row[f"{technique.name}_spill_share"] = stats.spill_fraction()
        row["rfcache_hit_rate"] = _run(name, RFCACHE).stats.rfcache_hit_rate()
        rows[name] = row
    rows["geomean"] = {
        f"{tech}_speedup": geomean(
            [rows[n][f"{tech}_speedup"] for n in names]
        )
        for tech in RIVAL_TECHNIQUES
    }
    return rows
