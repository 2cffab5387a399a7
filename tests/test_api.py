"""The stable public facade (:mod:`repro.api`) and its surface contract.

Covers the facade objects (``Simulation`` / ``Sweep`` / ``Batch``),
their agreement with the underlying runner, and the surface audit: the
``__all__`` list matches the documented surface, every blessed symbol
resolves with a docstring, facade entry points are keyword-only, and
the PR-4 deprecation shims (``repro.harness.runner``, library imports
of ``repro.harness.regenerate``, lazy ``repro.harness.run_workload``
attributes) stay removed.
"""

import importlib
import inspect
import subprocess
import sys

import pytest

from repro.api import (
    SMOKE_NAMES,
    TECHNIQUE_REGISTRY,
    WORKLOAD_NAMES,
    Batch,
    RunResult,
    Simulation,
    SimStats,
    Sweep,
    volta,
)
from repro.core.techniques import CARS
from repro.harness._runner import run_workload
from repro.workloads import make_workload


class TestSimulation:
    def test_by_name_matches_runner(self):
        sim = Simulation(workload="SSSP", technique="cars")
        stats = sim.run()
        direct = run_workload(make_workload("SSSP"), CARS)
        assert isinstance(stats, SimStats)
        assert stats.cycles == direct.cycles
        assert isinstance(sim.result, RunResult)
        assert sim.result.stats is stats

    def test_technique_object_and_workload_object(self):
        wl = make_workload("SSSP")
        sim = Simulation(workload=wl, technique=CARS)
        assert sim.run().cycles == run_workload(wl, CARS).cycles

    def test_run_is_memoized(self):
        sim = Simulation(workload="SSSP", technique="baseline")
        assert sim.run() is sim.run()
        assert sim.stats is sim.result.stats

    def test_best_swl(self):
        sim = Simulation(workload="SSSP", technique="best_swl",
                         sweep=(1, 2))
        stats = sim.run()
        assert stats.cycles > 0
        assert sim.result.technique == "best_swl"
        assert "swl" in sim.result.config.name  # the winning limit's config

    @pytest.mark.parametrize("sweep", [(999,), ()])
    def test_best_swl_without_a_fitting_candidate(self, sweep):
        sim = Simulation(workload="FIB", technique="best_swl", sweep=sweep)
        with pytest.raises(ValueError, match="max_warps_per_sm") as excinfo:
            sim.run()
        assert str(sweep) in str(excinfo.value)

    def test_config_passes_through(self):
        cfg = volta()
        sim = Simulation(workload="SSSP", technique="baseline", config=cfg)
        assert sim.run().cycles == run_workload(
            make_workload("SSSP"), TECHNIQUE_REGISTRY["baseline"],
            config=cfg,
        ).cycles

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            Simulation(workload="NOPE").run()

    def test_unknown_technique_rejected(self):
        with pytest.raises(KeyError):
            Simulation(workload="SSSP", technique="warp-drive").run()

    def test_positional_arguments_rejected(self):
        with pytest.raises(TypeError):
            Simulation("SSSP", "cars")

    def test_unknown_backend_rejected_eagerly(self):
        # One timing core: ``backend=`` is not a keyword, and is refused
        # at construction rather than at run().
        with pytest.raises(TypeError, match="backend"):
            Simulation(workload="SSSP", backend="event")


class TestBatch:
    def test_members_align_with_configs(self):
        configs = [volta(), volta().with_warp_limit(2)]
        results = Batch(workload="SSSP", technique="baseline",
                        configs=configs).run()
        assert [r.config for r in results] == configs
        single = run_workload(
            make_workload("SSSP"), TECHNIQUE_REGISTRY["baseline"],
            config=configs[0],
        )
        assert results[0].stats.to_dict() == single.stats.to_dict()

    def test_run_is_memoized(self):
        batch = Batch(workload="SSSP", configs=[volta()])
        assert batch.run() is batch.run()

    def test_best_swl_rejected(self):
        with pytest.raises(ValueError, match="best_swl"):
            Batch(workload="SSSP", technique="best_swl", configs=[volta()])

    def test_empty_configs_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Batch(workload="SSSP", configs=[])

    def test_unknown_backend_rejected_eagerly(self):
        with pytest.raises(TypeError, match="backend"):
            Batch(workload="SSSP", configs=[volta()], backend="event")

    def test_batch_equals_individual_runs(self):
        """One Batch over N configs == N independent runs, member for
        member (each gets its own fresh policy memory)."""
        workload = make_workload("FIB")
        configs = [volta(), volta().with_warp_limit(4), volta().with_force_hit()]
        batched = Batch(workload=workload, technique=CARS,
                        configs=configs).run()
        assert len(batched) == len(configs)
        for config, from_batch in zip(configs, batched):
            single = run_workload(workload, CARS, config=config)
            assert from_batch.stats.to_dict() == single.stats.to_dict()
            assert from_batch.config == single.config


class TestSweep:
    def test_grid_and_report(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        sweep = Sweep(workloads=["SSSP"], techniques=["baseline", "cars"])
        results = sweep.run()
        assert set(results) == {("SSSP", "baseline"), ("SSSP", "cars")}
        assert results is sweep.run()  # memoized
        report = sweep.report()
        assert "SSSP" in report
        assert "cars_speedup" in report

    def test_plan_is_deduplicated_grid(self):
        sweep = Sweep(workloads=["SSSP", "FIB"],
                      techniques=["baseline", "cars"])
        assert len(sweep.plan().requests) == 4

    def test_unknown_workload_rejected_eagerly(self):
        with pytest.raises(KeyError):
            Sweep(workloads=["SSSP", "NOPE"])

    def test_unknown_backend_rejected_eagerly(self):
        with pytest.raises(TypeError, match="backend"):
            Sweep(workloads=["SSSP"], backend="event")

    def test_names_are_exported(self):
        assert set(SMOKE_NAMES) <= set(WORKLOAD_NAMES)


#: The documented facade surface (README "Stable API"): the test pins it
#: so adding/removing a blessed name forces a deliberate doc update.
DOCUMENTED_SURFACE = (
    # the facade objects
    "Simulation", "Sweep", "Batch",
    # design-space exploration
    "Space", "SpaceError", "Tuner", "CarsPolicy", "DEFAULT_POLICY",
    "TuneReport", "explore",
    # blessed result / config / batch types
    "RunResult", "SimStats", "GPUConfig", "Executor", "ExperimentPlan",
    "PlanProgress",
    # the technique plugin surface
    "Technique", "AbiModel", "TECHNIQUE_REGISTRY", "list_techniques",
    "resolve_technique", "register_technique", "register_technique_family",
    "register_abi_model",
    # the failure taxonomy
    "SimulationError", "DeadlockError", "MaxCyclesError",
    "InvariantViolation", "WorkerCrashError", "UnknownTechniqueError",
    # the service surface (repro serve)
    "submit_plan", "JobHandle", "JobState", "ServiceError",
    # conveniences those types are used with
    "volta", "ampere", "geomean", "WORKLOAD_NAMES", "SMOKE_NAMES",
    # static analysis
    "InterprocReport", "analyze_workload",
)

#: Entry points that must stay keyword-only: anything that *launches*
#: work (simulation, search, analysis) from the facade.
KEYWORD_ONLY_ENTRY_POINTS = (
    "Simulation", "Sweep", "Batch", "Tuner", "explore", "analyze_workload",
)


class TestSurface:
    def test_all_matches_documented_surface(self):
        import repro.api as api

        assert len(api.__all__) == len(set(api.__all__)), "duplicate names"
        assert sorted(api.__all__) == sorted(DOCUMENTED_SURFACE)

    def test_every_blessed_symbol_resolves_with_docstring(self):
        import repro.api as api

        for name in api.__all__:
            obj = getattr(api, name)  # raises if __all__ overpromises
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert (obj.__doc__ or "").strip(), f"{name} lacks a docstring"

    def test_entry_points_are_keyword_only(self):
        import repro.api as api

        for name in KEYWORD_ONLY_ENTRY_POINTS:
            signature = inspect.signature(getattr(api, name))
            positional = [
                p.name for p in signature.parameters.values()
                if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
                and p.name not in ("self", "cls")
            ]
            assert not positional, f"{name} accepts positional {positional}"

    def test_submit_plan_is_keyword_only_after_plan(self):
        # The one positional is the plan itself; everything configuring
        # *where/how* it is submitted must be named.
        from repro.api import submit_plan

        signature = inspect.signature(submit_plan)
        positional = [
            p.name for p in signature.parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
        assert positional == ["plan"]

    def test_service_error_taxonomy_is_typed(self):
        from repro.api import ServiceError, SimulationError
        from repro.service.errors import error_for_code

        assert issubclass(ServiceError, SimulationError)
        rebuilt = error_for_code("rate_limited", "slow down")
        assert isinstance(rebuilt, ServiceError)
        assert rebuilt.code == "rate_limited"

    def test_job_state_round_trips_as_string(self):
        from repro.api import JobState

        for state in JobState:
            assert JobState(str(state)) is state

    def test_plan_from_space_is_keyword_only(self):
        from repro.api import ExperimentPlan

        signature = inspect.signature(ExperimentPlan.from_space)
        kinds = {p.name: p.kind for p in signature.parameters.values()}
        assert kinds["space"] == inspect.Parameter.KEYWORD_ONLY
        assert kinds["executor"] == inspect.Parameter.KEYWORD_ONLY

    def test_removed_shims_stay_removed(self):
        for name in ("repro.harness.runner", "repro.harness.regenerate"):
            sys.modules.pop(name, None)
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(name)
        import repro.harness as harness

        assert not hasattr(harness, "run_workload")
        assert not hasattr(harness, "run_best_swl")
        assert not hasattr(harness, "run_baseline")

    def test_facade_and_harness_import_warning_free(self):
        code = (
            "import warnings\n"
            "warnings.simplefilter('error', DeprecationWarning)\n"
            "import repro.api\n"
            "import repro.harness\n"
            "import repro.dse\n"
            "from repro.harness import RunResult, SWL_SWEEP, geomean\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)
