"""Stable public API for the CARS reproduction.

This module is the supported entry point for programmatic use.  Everything
else under ``repro.*`` is implementation detail and may move between
releases; the names exported here (see ``__all__``) are kept stable:

* :class:`Simulation` — one (workload × technique × config) run:
  construct, :meth:`Simulation.run`, read :class:`SimStats` (and the full
  :class:`RunResult` on ``.result``).
* :class:`Sweep` — a batch of simulations over the workload × technique
  grid, deduplicated and served through the parallel executor with its
  content-addressed result store; :meth:`Sweep.report` renders the
  cycles/speedup table.
* :class:`Batch` — one (workload × technique) under N configurations,
  all members sharing one resolved workload (its compiled module and
  emulator traces are built once).
* Design-space exploration: :class:`Space` (declarative parameter grid
  with derived columns and pruning, compiling to deduplicated
  :class:`ExperimentPlan` cells — see
  :meth:`ExperimentPlan.from_space`), :func:`explore` (compile, execute,
  join results back onto the rows), and :class:`Tuner` (per-workload-
  class CARS policy search over :class:`CarsPolicy` grids with
  successive-halving pruning; CLI twin: ``repro tune``).  Plan-level
  progress/resume is exposed via :meth:`ExperimentPlan.progress`
  (a :class:`PlanProgress`).
* The blessed types those return or accept: :class:`RunResult`,
  :class:`SimStats`, :class:`GPUConfig` (plus the :func:`volta` /
  :func:`ampere` presets), :class:`Executor` / :class:`ExperimentPlan`
  (the batch layer ``Sweep`` accepts), and the technique plugin surface:
  :class:`Technique`, :class:`AbiModel`, :func:`list_techniques`,
  :func:`resolve_technique`, :func:`register_technique`,
  :func:`register_technique_family`, :func:`register_abi_model`, and
  :data:`TECHNIQUE_REGISTRY` (read-only view of the fixed names).
* The failure taxonomy every run can raise: :class:`SimulationError` and
  its subclasses :class:`DeadlockError`, :class:`MaxCyclesError`,
  :class:`InvariantViolation`, :class:`WorkerCrashError`,
  :class:`UnknownTechniqueError` — catch the base class around any
  ``run()`` that might wedge; ``exc.diagnostics`` (when present) renders
  a per-warp state dump.
* The service surface (``repro serve``): :func:`submit_plan` submits an
  :class:`ExperimentPlan` (or any iterable of requests) to a running
  service and returns :class:`JobHandle` objects whose ``result()``
  blocks on the remote job; :class:`JobState` enumerates the journaled
  lifecycle, and :class:`ServiceError` (plus its typed subclasses, e.g.
  deadline or draining failures) is what remote submission can raise —
  the HTTP error body round-trips back into the same class the server
  raised.  See docs/architecture.md §15.

Quick start::

    from repro.api import Simulation

    stats = Simulation(workload="MST", technique="cars").run()
    print(stats.cycles, stats.mpki())

Sweeps::

    from repro.api import Sweep

    sweep = Sweep(workloads=["MST", "SSSP"], techniques=["baseline", "cars"])
    results = sweep.run()
    print(sweep.report())
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from .config.gpu_config import GPUConfig, ampere, volta
from .core.techniques import (
    AbiModel,
    TECHNIQUE_REGISTRY,
    Technique,
    list_techniques,
    register_abi_model,
    register_technique,
    register_technique_family,
    resolve_technique,
)
from .dse import (
    CarsPolicy,
    DEFAULT_POLICY,
    Space,
    SpaceError,
    TuneReport,
    Tuner,
    explore,
)
from .harness.executor import Executor, ExperimentPlan, PlanProgress
from .harness._runner import (
    RunResult,
    SWL_SWEEP,
    geomean,
    run_best_swl,
    run_workload,
)
from .harness.tables import format_table
from .metrics.counters import SimStats
from .resilience.errors import (
    DeadlockError,
    InvariantViolation,
    MaxCyclesError,
    ServiceError,
    SimulationError,
    UnknownTechniqueError,
    WorkerCrashError,
)
from .service import JobHandle, JobState, submit_plan
from .analysis.interproc import InterprocReport, analyze_module_interproc
from .workloads import Workload, make_workload
from .workloads.suite import SMOKE_NAMES, WORKLOAD_NAMES

__all__ = [
    # the facade objects
    "Simulation",
    "Sweep",
    "Batch",
    # design-space exploration
    "Space",
    "SpaceError",
    "Tuner",
    "CarsPolicy",
    "DEFAULT_POLICY",
    "TuneReport",
    "explore",
    # blessed result / config / batch types
    "RunResult",
    "SimStats",
    "GPUConfig",
    "Executor",
    "ExperimentPlan",
    "PlanProgress",
    # the technique plugin surface
    "Technique",
    "AbiModel",
    "TECHNIQUE_REGISTRY",
    "list_techniques",
    "resolve_technique",
    "register_technique",
    "register_technique_family",
    "register_abi_model",
    # the failure taxonomy
    "SimulationError",
    "DeadlockError",
    "MaxCyclesError",
    "InvariantViolation",
    "WorkerCrashError",
    "UnknownTechniqueError",
    # the service surface (repro serve)
    "submit_plan",
    "JobHandle",
    "JobState",
    "ServiceError",
    # conveniences those types are used with
    "volta",
    "ampere",
    "geomean",
    "WORKLOAD_NAMES",
    "SMOKE_NAMES",
    # static analysis
    "InterprocReport",
    "analyze_workload",
]

#: Accepted by ``technique=``: a registry name or a Technique object.
TechniqueLike = Union[str, Technique]
#: Accepted by ``workload=``: a suite name or a built Workload.
WorkloadLike = Union[str, Workload]


def _resolve_workload(workload: WorkloadLike) -> Workload:
    if isinstance(workload, str):
        return make_workload(workload)
    return workload


def analyze_workload(
    *, workload: WorkloadLike, inlined: bool = False
) -> InterprocReport:
    """Interprocedural register-pressure analysis of a workload binary.

    All arguments are keyword-only (like the rest of the facade).  Pure
    static computation (no simulation): per-kernel frame-depth and
    register-demand bounds, call-site occupancy intervals,
    liveness-tightened FRUs, and per-scheme predictions for every
    capacity-limited arm (CARS watermarks, RegDem arena, register-file
    cache).  Pass ``inlined=True`` to analyze the LTO binary the
    ``lto``/``cars`` techniques simulate.
    """
    resolved = _resolve_workload(workload)
    return analyze_module_interproc(resolved.module(inlined), resolved.name)


class Simulation:
    """One workload simulated under one technique and configuration.

    All constructor arguments are keyword-only.

    Args:
        workload: a suite workload name (see :data:`WORKLOAD_NAMES`) or a
            :class:`~repro.workloads.spec.Workload` you built yourself.
        technique: a :data:`TECHNIQUE_REGISTRY` name (``"baseline"``,
            ``"cars"``, ``"swl_4"``, …), a ``Technique`` object, or
            ``"best_swl"`` for the paper's swept static warp limiter.
        config: a :class:`GPUConfig`; defaults to the Volta-like preset.
        sweep: warp-limit candidates, only meaningful with
            ``technique="best_swl"`` (default: the paper's sweep).
        obs: an optional :class:`repro.obs.ObsSession` for event tracing
            and per-warp stall attribution.
        policy_memory: an optional
            :class:`~repro.cars.policy.PolicyMemory` carried across
            launches (the CARS dynamic policy's cross-launch state).

    ``run()`` simulates to completion and returns the merged
    :class:`SimStats`; the surrounding :class:`RunResult` (config echo,
    energy model, speedup helpers) is kept on :attr:`result`.
    """

    def __init__(
        self,
        *,
        workload: WorkloadLike,
        technique: TechniqueLike = "baseline",
        config: Optional[GPUConfig] = None,
        sweep: Sequence[int] = SWL_SWEEP,
        obs=None,
        policy_memory=None,
    ) -> None:
        self.workload = _resolve_workload(workload)
        self.technique = technique
        self.config = config
        self.sweep = tuple(sweep)
        self.obs = obs
        self.policy_memory = policy_memory
        self.result: Optional[RunResult] = None

    def run(self) -> SimStats:
        """Simulate (once); returns the run's :class:`SimStats`."""
        if self.result is None:
            if self.technique == "best_swl":
                self.result = run_best_swl(
                    self.workload, config=self.config, sweep=self.sweep
                )
            else:
                technique = (
                    resolve_technique(self.technique)
                    if isinstance(self.technique, str)
                    else self.technique
                )
                self.result = run_workload(
                    self.workload,
                    technique,
                    config=self.config,
                    obs=self.obs,
                    policy_memory=self.policy_memory,
                )
        return self.result.stats

    @property
    def stats(self) -> SimStats:
        """The stats, running the simulation on first access."""
        return self.run()


class Sweep:
    """A (workloads × techniques) grid run through the executor.

    All constructor arguments are keyword-only.

    Args:
        workloads: suite workload names (the executor's result store is
            content-addressed by name, so ad-hoc ``Workload`` objects are
            not accepted here — wrap those in :class:`Simulation`).
        techniques: technique names / objects; ``"best_swl"`` is allowed.
        config: shared :class:`GPUConfig` for every cell (default Volta).
        jobs: worker processes (default 1 = serial, deterministic).
        executor: bring your own :class:`Executor` (overrides ``jobs``).

    ``run()`` executes the plan — deduplicated, memoized, store-backed —
    and returns ``{(workload, technique): RunResult}``.  ``report()``
    renders a per-workload table of cycles plus speedup over the first
    technique in ``techniques``.
    """

    def __init__(
        self,
        *,
        workloads: Sequence[str],
        techniques: Sequence[TechniqueLike] = ("baseline", "cars"),
        config: Optional[GPUConfig] = None,
        jobs: int = 1,
        executor: Optional[Executor] = None,
    ) -> None:
        unknown = [w for w in workloads if w not in WORKLOAD_NAMES]
        if unknown:
            raise KeyError(f"unknown workloads: {unknown}")
        self.workloads = list(workloads)
        self.techniques: List[str] = [
            t if isinstance(t, str) else t.name for t in techniques
        ]
        for name in self.techniques:
            if name != "best_swl":
                # Fail at construction (UnknownTechniqueError with
                # suggestions) rather than deep inside a worker pool.
                resolve_technique(name)
        self.config = config if config is not None else volta()
        self.executor = executor if executor is not None else Executor(jobs=jobs)
        self._results: Optional[Dict[Tuple[str, str], RunResult]] = None

    def plan(self) -> ExperimentPlan:
        """The deduplicated request batch this sweep will execute."""
        plan = ExperimentPlan(self.executor)
        for workload in self.workloads:
            for technique in self.techniques:
                if technique == "best_swl":
                    plan.add_best_swl(workload, config=self.config)
                else:
                    plan.add(workload, technique, config=self.config)
        return plan

    def run(self) -> Dict[Tuple[str, str], RunResult]:
        """Execute (once); returns ``{(workload, technique): RunResult}``."""
        if self._results is None:
            by_request = self.plan().execute()
            results: Dict[Tuple[str, str], RunResult] = {}
            for request, result in by_request.items():
                results[(request.workload, request.technique)] = result
            self._results = results
        return self._results

    def report(self) -> str:
        """Cycles per cell plus speedup over the first technique."""
        results = self.run()
        baseline_name = self.techniques[0]
        rows: Dict[str, Dict[str, float]] = {}
        for workload in self.workloads:
            row: Dict[str, float] = {}
            base = results[(workload, baseline_name)]
            for technique in self.techniques:
                result = results[(workload, technique)]
                row[f"{technique}_cycles"] = float(result.cycles)
                if technique != baseline_name:
                    row[f"{technique}_speedup"] = (
                        base.cycles / result.cycles if result.cycles else 0.0
                    )
            rows[workload] = row
        return format_table(rows)


class Batch:
    """One workload × one technique simulated under N configurations.

    Every member runs through :func:`run_workload` on one resolved
    :class:`~repro.workloads.spec.Workload`, which caches its compiled
    module and emulator traces; the lint gate and interprocedural
    analysis are cached by module digest.  Results are positionally
    aligned with ``configs`` and equal, member for member, what N
    independent :class:`Simulation` runs would produce (each member gets
    its own fresh policy memory).

    All constructor arguments are keyword-only.

    Args:
        workload: a suite workload name or a built ``Workload``.
        technique: a :data:`TECHNIQUE_REGISTRY` name or ``Technique``
            object (``"best_swl"`` is not batchable — it is itself a
            sweep; use :class:`Simulation`).
        configs: the :class:`GPUConfig` members to simulate.
    """

    def __init__(
        self,
        *,
        workload: WorkloadLike,
        technique: TechniqueLike = "baseline",
        configs: Sequence[GPUConfig],
    ) -> None:
        if technique == "best_swl":
            raise ValueError(
                "best_swl is itself a sweep and cannot be batched; "
                "use Simulation(technique='best_swl') per config"
            )
        self.workload = _resolve_workload(workload)
        self.technique = (
            resolve_technique(technique)
            if isinstance(technique, str)
            else technique
        )
        self.configs = list(configs)
        if not self.configs:
            raise ValueError("Batch requires at least one config")
        self.results: Optional[List[RunResult]] = None

    def run(self) -> List[RunResult]:
        """Simulate (once); returns results aligned with ``configs``."""
        if self.results is None:
            self.results = [
                run_workload(self.workload, self.technique, config=config)
                for config in self.configs
            ]
        return self.results
