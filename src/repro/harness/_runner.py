"""Experiment runner: (workload x technique) -> statistics.

Mirrors the paper's methodology: every technique replays the same traces
on the same (scaled) hardware configuration; results are normalized to the
baseline run on that configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..analysis import ensure_module_linted
from ..analysis.interproc import ensure_module_analyzed
from ..callgraph import CallGraph, analyze_kernel, build_call_graph
from ..cars.policy import PolicyMemory
from ..config.gpu_config import GPUConfig
from ..config import volta
from ..core.gpu import GPU
from ..core.techniques import BASELINE, LaunchContext, Technique, swl
from ..emu.trace import KernelTrace
from ..metrics.counters import SimStats
from ..obs import ObsSession
from ..power.model import DEFAULT_ENERGY_MODEL, EnergyModel
from ..workloads.spec import Workload

#: SWL warp counts the paper sweeps for Best-SWL.
SWL_SWEEP = (1, 2, 3, 4, 8, 16)


@dataclass
class RunResult:
    """Outcome of one (workload, technique) simulation."""

    workload: str
    technique: str
    config: GPUConfig
    stats: SimStats
    #: Static-feature block from the interprocedural analysis (cached by
    #: module digest alongside the lint gate); empty for results restored
    #: from a pre-v3 store.
    interproc: Dict[str, Any] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    def speedup_over(self, baseline: "RunResult") -> float:
        """``baseline.cycles / self.cycles``; zero cycles fail loudly.

        A zero-cycle run means the simulation produced nothing — silently
        returning 0.0 here used to skew downstream geomeans instead of
        flagging the broken run.
        """
        if self.cycles == 0 or baseline.cycles == 0:
            raise ValueError(
                f"speedup undefined: zero-cycle run "
                f"({self.workload}/{self.technique}: {self.cycles} cycles, "
                f"{baseline.workload}/{baseline.technique}: "
                f"{baseline.cycles} cycles)"
            )
        return baseline.cycles / self.cycles

    def energy(self, model: EnergyModel = DEFAULT_ENERGY_MODEL) -> float:
        return model.energy(self.stats, self.config)

    def energy_efficiency(self, model: EnergyModel = DEFAULT_ENERGY_MODEL) -> float:
        return model.efficiency(self.stats, self.config)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (the result store's serialization): no pickled
        class layouts, so stored results survive refactors of this class."""
        return {
            "workload": self.workload,
            "technique": self.technique,
            "config": self.config.to_dict(),
            "stats": self.stats.to_dict(),
            "interproc": self.interproc,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        return cls(
            workload=data["workload"],
            technique=data["technique"],
            config=GPUConfig.from_dict(data["config"]),
            stats=SimStats.from_dict(data["stats"]),
            interproc=data.get("interproc", {}),
        )


@dataclass
class PreparedRun:
    """A (workload, technique) pair lint-gated, analyzed and traced, ready
    to simulate.  :func:`run_workload` and the service's resumable runner
    both simulate from one, so the two cannot drift apart."""

    workload: Workload
    technique: Technique
    config: GPUConfig  # technique-adjusted
    interproc: Dict[str, Any]
    traces: List[KernelTrace]
    graph: Optional[CallGraph]

    def launch(self, trace: KernelTrace, stats: SimStats, memory: PolicyMemory,
               *, obs: Optional[ObsSession] = None, checkpoint=None) -> LaunchContext:
        """Simulate one kernel launch into *stats*; returns its context."""
        graph = self.graph
        analysis = analyze_kernel(graph, trace.kernel) if graph is not None else None
        ctx = self.technique.make_context(trace, self.config, stats, analysis, memory)
        GPU(self.config, ctx, stats, obs=obs).run(trace, checkpoint=checkpoint)
        return ctx

    def result(self, stats: SimStats) -> RunResult:
        return RunResult(self.workload.name, self.technique.name, self.config,
                         stats, self.interproc)


def prepare_run(
    workload: Workload, technique: Technique, config: Optional[GPUConfig] = None
) -> PreparedRun:
    """Everything before the first simulated cycle of *workload* under
    *technique* on *config* (default :func:`~repro.config.volta`)."""
    cfg = technique.adjust_config(config if config is not None else volta())
    module = workload.module(inlined=technique.use_inlined)
    # Refuse to simulate binaries that fail the ABI/stack-safety lint:
    # a PUSH/POP imbalance or SSY mismatch would corrupt the simulated
    # register stack and produce garbage figures rather than a crash.
    ensure_module_linted(module, workload.name)
    # The interprocedural static features ride along on every result;
    # like the lint gate, the analysis is cached by module digest.
    interproc = ensure_module_analyzed(module, workload.name).summary()
    traces = workload.traces(inlined=technique.use_inlined)
    graph = build_call_graph(module) if technique.requires_analysis else None
    return PreparedRun(workload, technique, cfg, interproc, traces, graph)


def run_workload(
    workload: Workload,
    technique: Technique,
    *,
    config: Optional[GPUConfig] = None,
    policy_memory: Optional[PolicyMemory] = None,
    obs: Optional["ObsSession"] = None,
) -> RunResult:
    """Simulate every kernel launch of *workload* under *technique*.

    *obs* (an :class:`repro.obs.ObsSession`) opts into the event tracer
    and per-warp stall attribution; the CPI stack itself is always on.
    """
    prepared = prepare_run(workload, technique, config)
    memory = policy_memory if policy_memory is not None else PolicyMemory()
    total = SimStats()
    for trace in prepared.traces:
        kernel_stats = SimStats()
        prepared.launch(trace, kernel_stats, memory, obs=obs)
        total.merge_kernel(kernel_stats)
    return prepared.result(total)


def run_best_swl(
    workload: Workload,
    *,
    config: Optional[GPUConfig] = None,
    sweep: Sequence[int] = SWL_SWEEP,
) -> RunResult:
    """The paper's Best-SWL: sweep warp limits, keep the fastest.

    Candidates above ``config.max_warps_per_sm`` are skipped; a sweep
    with no candidate left raises :class:`ValueError`.
    """
    best: Optional[RunResult] = None
    cfg = config if config is not None else volta()
    for limit in sweep:
        if limit > cfg.max_warps_per_sm:
            continue
        result = run_workload(workload, swl(limit), config=cfg)
        if best is None or result.cycles < best.cycles:
            best = result
    if best is None:
        raise ValueError(
            f"best_swl sweep {tuple(sweep)} has no warp limit within "
            f"max_warps_per_sm={cfg.max_warps_per_sm}"
        )
    return RunResult(
        best.workload, "best_swl", best.config, best.stats, best.interproc)


def run_baseline(
    workload: Workload, *, config: Optional[GPUConfig] = None
) -> RunResult:
    """Simulate *workload* under the baseline ABI."""
    return run_workload(workload, BASELINE, config=config)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's summary statistic).

    Non-positive values and empty input raise :class:`ValueError`: they can
    only come from a broken run (see :meth:`RunResult.speedup_over`), and
    silently dropping them used to skew the paper-facing geomean rows.
    """
    values = list(values)
    if not values:
        raise ValueError("geomean of an empty sequence")
    bad = [v for v in values if v <= 0]
    if bad:
        raise ValueError(f"geomean requires positive values, got {bad}")
    return math.exp(sum(math.log(v) for v in values) / len(values))
