"""Guardrail self-check: inject one fault per class, expect the right alarm.

``python -m repro selfcheck`` (and the CI smoke job) run a miniature
meta-validation battery: a small CARS workload whose every fill event is
load-bearing (chained loads feeding a deep call chain) is simulated once
under an empty fault plan to count event ordinals, then once per fault
class with a seeded single-fault plan.  Each run must end in the *exact*
typed exception its fault class maps to — or, for the delay control,
complete with conservation intact:

* ``drop_fill`` → :class:`~repro.resilience.errors.DeadlockError` with a
  non-empty diagnostic dump (the structural no-future-events check);
* ``delay_fill`` → completion, at least as many cycles as the clean run
  (proves delays propagate without tripping a false alarm);
* ``corrupt_stack`` → :class:`~repro.resilience.errors.InvariantViolation`
  (``WarpRegisterStack.check_invariants``);
* ``starve_mshr`` → :class:`~repro.resilience.errors.DeadlockError` from
  the zero-retirement watchdog (a replay livelock, not a deadlock);
* ``drop_idle_charge`` → :class:`~repro.resilience.errors.InvariantViolation`
  from the CPI-stack conservation check in ``GPU.run``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..callgraph import analyze_kernel, build_call_graph
from ..config import volta
from ..core.gpu import GPU
from ..core.techniques import CARS_LOW
from ..frontend import builder as b
from ..metrics.counters import SimStats
from ..workloads import KernelLaunch, Workload
from .errors import DeadlockError, InvariantViolation, SimulationError
from .faults import FaultPlan, StarveMSHR, inject_faults, seeded_plan
from .watchdog import Watchdog

#: Fault classes the battery exercises, in report order.
SELFCHECK_CLASSES = (
    "drop_fill",
    "delay_fill",
    "corrupt_stack",
    "starve_mshr",
    "drop_idle_charge",
)

#: Small watchdog window for the starvation case: the injected livelock
#: replays every cycle, so a few thousand zero-retirement cycles is proof.
_STARVE_WINDOW = 5_000

_MAX_CYCLES = 2_000_000


@dataclass
class CheckReport:
    """Outcome of one fault-class probe."""

    fault_class: str
    fault: str
    expected: str
    outcome: str
    ok: bool
    detail: str = ""


def guardrail_workload() -> Workload:
    """Deep CARS calls + chained loads: every fill event is load-bearing.

    Each load's destination feeds the next instruction, so dropping *any*
    fill wedges its warp — the battery's fault positions can be seeded
    anywhere in the observed ordinal range.
    """
    prog = b.program()
    depth = 4
    for level in range(1, depth):
        b.device(prog, f"f{level}", ["x"],
                 [b.ret(b.call(f"f{level + 1}", b.v("x") + level))],
                 reg_pressure=8)
    b.device(prog, f"f{depth}", ["x"], [b.ret(b.v("x") * 2 + 1)],
             reg_pressure=8)
    b.kernel(prog, "main", ["out"], [
        b.let("i", b.gid()),
        b.let("a", b.load(b.v("out") + (b.v("i") * 131 & 8191))),
        b.let("r", b.call("f1", b.v("a"))),
        b.let("c", b.load(b.v("out") + (b.v("r") * 17 & 8191))),
        b.store(b.v("out") + b.v("i"), b.v("c")),
    ])
    return Workload(name="selfcheck", suite="t", program=prog,
                    launches=[KernelLaunch("main", 2, 32, (1 << 20,))])


def _run_guarded(
    workload: Workload,
    *,
    watchdog: Optional[Watchdog] = None,
    max_cycles: int = _MAX_CYCLES,
) -> SimStats:
    """One CARS_LOW launch of *workload* on a fresh GPU."""
    technique = CARS_LOW
    cfg = technique.adjust_config(volta())
    trace = workload.traces(inlined=technique.use_inlined)[0]
    stats = SimStats()
    analysis = analyze_kernel(build_call_graph(workload.module()), trace.kernel)
    ctx = technique.make_context(trace, cfg, stats, analysis)
    gpu = GPU(cfg, ctx, stats)
    gpu.run(trace, max_cycles=max_cycles, watchdog=watchdog)
    return stats


def run_selfcheck(seed: int = 0) -> List[CheckReport]:
    """Run the full battery; one report per fault class."""
    workload = guardrail_workload()
    with inject_faults() as counting:
        clean = _run_guarded(workload)
    plans = seeded_plan(seed, counting.counters, SELFCHECK_CLASSES)
    reports: List[CheckReport] = []
    for name in SELFCHECK_CLASSES:
        plan = plans.get(name)
        if plan is None:
            reports.append(CheckReport(
                fault_class=name, fault="(no event of this class observed)",
                expected="n/a", outcome="skipped", ok=False,
                detail="counting run produced no target events",
            ))
            continue
        reports.append(_probe(workload, name, plan, clean))
    return reports


def _probe(
    workload: Workload, name: str, plan: FaultPlan, clean: SimStats
) -> CheckReport:
    fault = plan.faults[0]
    watchdog = None
    if isinstance(fault, StarveMSHR):
        watchdog = Watchdog(window=_STARVE_WINDOW)
    expected = {
        "drop_fill": "DeadlockError",
        "delay_fill": "completes (>= clean cycles)",
        "corrupt_stack": "InvariantViolation",
        "starve_mshr": "DeadlockError (watchdog)",
        "drop_idle_charge": "InvariantViolation",
    }[name]
    try:
        with inject_faults(plan) as session:
            stats = _run_guarded(workload, watchdog=watchdog)
    except SimulationError as exc:
        outcome = type(exc).__name__
        dump = exc.diagnostics
        if name in ("drop_fill", "starve_mshr"):
            ok = isinstance(exc, DeadlockError)
            detail = ""
            if ok and (dump is None or not dump.warps):
                ok = False
                detail = "deadlock raised without a diagnostic dump"
            elif ok:
                detail = f"dump covers {len(dump.warps)} warps"
        elif name in ("corrupt_stack", "drop_idle_charge"):
            ok = isinstance(exc, InvariantViolation)
            detail = str(exc)
        else:
            ok = False
            detail = f"unexpected failure: {exc}"
        return CheckReport(
            fault_class=name, fault=repr(fault), expected=expected,
            outcome=outcome, ok=ok, detail=detail,
        )
    if name == "delay_fill":
        ok = bool(session.triggered) and stats.cycles >= clean.cycles
        return CheckReport(
            fault_class=name, fault=repr(fault), expected=expected,
            outcome=f"completed in {stats.cycles} cycles",
            ok=ok,
            detail=f"clean run took {clean.cycles} cycles",
        )
    return CheckReport(
        fault_class=name, fault=repr(fault), expected=expected,
        outcome=f"completed in {stats.cycles} cycles", ok=False,
        detail="fault was not detected by any guardrail",
    )


def render_report(reports: List[CheckReport]) -> str:
    lines = ["guardrail self-check:"]
    for report in reports:
        mark = "OK  " if report.ok else "FAIL"
        lines.append(
            f"  [{mark}] {report.fault_class:<18} {report.fault}"
        )
        lines.append(
            f"         expected {report.expected}; got {report.outcome}"
            + (f" ({report.detail})" if report.detail else "")
        )
    passed = sum(1 for r in reports if r.ok)
    lines.append(f"{passed}/{len(reports)} fault classes detected correctly")
    return "\n".join(lines)
