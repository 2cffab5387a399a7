"""Fault-injection battery: every injected fault class must be detected
as its matching typed exception, with a usable diagnostic dump attached.

This is the meta-validation half of the resilience layer: a drill for
each guardrail (structural deadlock check, watchdog, register-stack
invariants, CPI-stack conservation) proving it actually fires — plus the
timing-invisibility property that arming the hooks without any fault
changes no simulated number.
"""

import pickle

import pytest

from repro.core.techniques import CARS_LOW
from repro.resilience import (
    CorruptStack,
    DeadlockError,
    DelayFill,
    DropFill,
    DropIdleCharge,
    FaultPlan,
    InvariantViolation,
    MaxCyclesError,
    SimulationError,
    StarveMSHR,
    Watchdog,
    WorkerCrashError,
    exit_code_for,
    inject_faults,
    seeded_plan,
)
from repro.resilience.errors import (
    _EXIT_BY_CLASS,
    DeadlineExceededError,
    ServiceError,
    StoreCorruptionError,
    UnknownTechniqueError,
)
from repro.resilience.selfcheck import run_selfcheck

from tests.resilience_util import chained_load_workload, run_once


@pytest.fixture(scope="module")
def workload():
    return chained_load_workload()


@pytest.fixture(scope="module")
def clean_run(workload):
    """Counting run: event ordinals + the reference stats, one sim."""
    with inject_faults() as session:
        _, stats = run_once(workload, CARS_LOW)
    return session.counters, stats


class TestTimingInvisibility:
    def test_counting_session_changes_nothing(self, workload, clean_run):
        # Hooks armed (empty plan) vs hooks absent: byte-identical stats.
        _, bare = run_once(workload, CARS_LOW)
        assert bare.to_dict() == clean_run[1].to_dict()

    def test_watchdog_changes_nothing(self, workload, clean_run):
        # Window above any legitimate zero-retirement stretch (a DRAM
        # chain idles a few hundred cycles) but far below the default.
        _, watched = run_once(workload, CARS_LOW,
                              watchdog=Watchdog(window=4_096))
        assert watched.to_dict() == clean_run[1].to_dict()

    def test_counters_observed(self, clean_run):
        counters = clean_run[0]
        assert counters["fills"] > 0
        assert counters["stack_calls"] > 0
        assert counters["idle_charges"] > 0


class TestDropFill:
    def test_structural_deadlock_with_dump(self, workload, clean_run):
        index = clean_run[0]["fills"] // 2
        with inject_faults(FaultPlan.of(DropFill(index))) as session:
            with pytest.raises(DeadlockError) as info:
                run_once(workload, CARS_LOW)
        assert session.triggered  # the drop actually happened
        dump = info.value.diagnostics
        assert dump is not None
        assert dump.warps  # per-warp state present
        assert dump.blocks_remaining > 0
        # The wedged warp's memory state is visible in the census.
        assert "l1_mshrs" in dump.mem
        rendered = dump.render()
        assert "diagnostic dump" in rendered
        assert "NEVER" in rendered or "load_pending" in rendered
        # to_dict is JSON-able plain data.
        assert dump.to_dict()["reason"] == dump.reason


class TestDelayFill:
    def test_completes_slower_conservation_intact(self, workload, clean_run):
        index = clean_run[0]["fills"] // 3
        with inject_faults(FaultPlan.of(DelayFill(index, delay=300))) as s:
            _, stats = run_once(workload, CARS_LOW)
        assert s.triggered
        # Slower (or equal), and GPU.run's conservation check passed.
        assert stats.cycles >= clean_run[1].cycles

    def test_delay_validation(self):
        with pytest.raises(ValueError):
            inject_faults(FaultPlan.of(DelayFill(0, delay=0))).__enter__()


class TestCorruptStack:
    @pytest.mark.parametrize("mode", ["rsp_skew", "resident_overflow"])
    def test_invariant_violation(self, workload, mode):
        with inject_faults(FaultPlan.of(CorruptStack(0, mode=mode))) as s:
            with pytest.raises(InvariantViolation):
                run_once(workload, CARS_LOW)
        assert s.triggered

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            inject_faults(FaultPlan.of(CorruptStack(0, mode="nope"))).__enter__()


class TestStarveMSHR:
    def test_watchdog_catches_livelock(self, workload):
        watchdog = Watchdog(window=2_000)
        with inject_faults(FaultPlan.of(StarveMSHR(start=0))) as s:
            with pytest.raises(DeadlockError) as info:
                run_once(workload, CARS_LOW, watchdog=watchdog)
        assert s.triggered
        assert "no forward progress" in str(info.value)
        dump = info.value.diagnostics
        assert dump is not None and dump.warps
        assert dump.stall_trail  # the watchdog trail rode along


class TestDropIdleCharge:
    def test_conservation_check_fires(self, workload, clean_run):
        index = clean_run[0]["idle_charges"] // 2
        with inject_faults(FaultPlan.of(DropIdleCharge(index))) as s:
            with pytest.raises(InvariantViolation) as info:
                run_once(workload, CARS_LOW)
        assert s.triggered
        assert "accounting leak" in str(info.value)
        assert info.value.diagnostics is not None


class TestSeededPlans:
    def test_deterministic(self, clean_run):
        counters = clean_run[0]
        assert seeded_plan(7, counters) == seeded_plan(7, counters)
        assert seeded_plan(7, counters) != seeded_plan(8, counters)

    def test_zero_count_classes_omitted(self):
        plans = seeded_plan(0, {"fills": 0, "stack_calls": 0,
                                "idle_charges": 0})
        assert set(plans) == {"starve_mshr"}  # cycle-based, always present

    def test_full_selfcheck_battery(self):
        reports = run_selfcheck(seed=0)
        assert len(reports) == 5
        failed = [r for r in reports if not r.ok]
        assert not failed, [(r.fault_class, r.outcome, r.detail)
                            for r in failed]


class TestWatchdogUnit:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            Watchdog(window=0)

    def test_progress_resets_the_clock(self, workload):
        # A window smaller than the run's longest stall-free span would
        # fire spuriously if retirement progress did not reset it: the
        # timing-invisibility test above already ran window=64 to
        # completion.  Here: the trail keeps only the newest entries.
        watchdog = Watchdog(window=10_000)
        run_once(workload, CARS_LOW, watchdog=watchdog)
        assert len(watchdog.trail) <= 32


class TestExceptionTaxonomy:
    def test_exit_codes(self):
        # Literal numbers on purpose: scripts match on them, so a code
        # never moves.  8 is retired and stays unused.
        codes = {
            SimulationError: 2,
            DeadlockError: 3,
            MaxCyclesError: 4,
            InvariantViolation: 5,
            WorkerCrashError: 6,
            UnknownTechniqueError: 7,
            ServiceError: 9,
            DeadlineExceededError: 10,
            StoreCorruptionError: 11,
        }
        assert set(codes) == {cls for cls, _ in _EXIT_BY_CLASS} | {
            SimulationError}, "a typed failure class has no pinned code"
        for cls, code in codes.items():
            assert exit_code_for(cls("x")) == code, cls.__name__
        assert 8 not in codes.values()
        assert exit_code_for(ValueError("x")) == 1

    def test_hierarchy(self):
        for cls in (DeadlockError, MaxCyclesError, InvariantViolation,
                    WorkerCrashError):
            assert issubclass(cls, SimulationError)
        assert issubclass(SimulationError, RuntimeError)

    def test_pickle_round_trip(self):
        exc = WorkerCrashError("boom", worker_traceback="tb-text")
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.args == ("boom",)
        assert clone.worker_traceback == "tb-text"
        assert isinstance(clone, WorkerCrashError)
