"""Context-sensitive interprocedural register-pressure analysis.

Where :mod:`repro.callgraph` stops at one scalar per kernel (the paper's
MaxStackDepth), this module walks the call graph *with* the CFG/dataflow
layer underneath and computes, per kernel:

* **Stack-occupancy intervals** at every call site — the best-case
  (Dijkstra over positive frame weights: cycles cannot lower a minimum)
  and worst-case (longest path over the SCC condensation) register-stack
  occupancy on entry to the callee's frame.  Recursion is handled by the
  paper's one-iteration rule (Section III-C) generalized to *annotated
  bounds*: a strongly connected component whose members all declare a
  ``recursion_bound`` contributes at most ``sum(bound_f)`` frames and
  ``sum(bound_f * fru_f)`` registers; an unannotated cycle makes the
  worst case unbounded (reported, never silently truncated).

* **Live callee-saved pressure** — liveness (non-conservative calls) over
  each device function tightens the declared PUSH-range FRU down to the
  registers actually live across some call plus the saved-RFP slot.

* **Per-scheme predictions** for the CARS allocation levels (Low /
  NxLow / High watermarks) *and* the rival plugin arms (``regdem``'s
  shared-memory arena, ``rfcache``'s register-file cache, ``regcomp``'s
  compressed static allocation with zero stack capacity): the *demand
  curve* ``W*(d)`` (worst register demand of any call chain of at most
  ``d`` frames) yields a guaranteed-trap-free depth per capacity, a
  static frame-depth bound that must dominate the simulator's observed
  peak stack depth, a sound trap *lower* bound (a call whose frame
  exceeds the whole capacity always overflows), and a closed-form
  estimate of spill bytes avoided versus the baseline ABI.  ``traps``
  is the generic ABI-overflow event count (CARS traps, RegDem arena
  overflows, rfcache evictions), so the same bounds apply to every arm;
  for the pushed-only arms the per-frame resident cost excludes the
  saved-RFP slot (only pushed registers occupy arena/cache slots),
  which keeps the lower bound sound.

Soundness contract (enforced by the property battery in
``tests/test_interproc.py`` and by ``repro analyze --validate``): for any
execution,

* ``frame_depth_bound`` (when finite) >= observed peak frame depth;
* ``guaranteed_trap_free`` implies zero observed traps;
* ``min_traps_per_call * calls`` <= observed traps;
* observed peak depth <= ``trap_free_depth`` implies zero observed traps.

The analysis is pure static computation over the linked module; results
are cached by :meth:`repro.isa.program.Module.content_digest` (the same
key the lint registry uses) via :func:`ensure_module_analyzed`.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..callgraph import CallGraph, KernelStackAnalysis, analyze_kernel, build_call_graph
from ..config.gpu_config import GPUConfig
from ..isa.opcodes import is_call
from ..isa.program import Function, Module
from .cfg import build_cfg
from .dataflow import Liveness, per_instruction_liveness, solve

#: Version of the ``to_dict`` / ``--json`` payload (golden-tested).
#: v2 added the ``regdem`` / ``rfcache`` scheme predictions; v3 added
#: ``regcomp`` (static register compression, arXiv 2006.05693).
INTERPROC_SCHEMA_VERSION = 3

#: Bytes of baseline spill-store traffic per pushed register: 4 B x 32 lanes.
_BYTES_PER_REG = 4 * 32

#: The canonical schemes predictions are emitted for: the CARS
#: allocation levels (``cars_low`` / ``cars_nxlow2`` / ``cars_high`` pin
#: exactly these) plus the rival plugin arms at their default knobs.
SCHEME_KEYS = ("low", "nxlow2", "high", "regdem", "rfcache", "regcomp")


@dataclass(frozen=True)
class CallSiteInterval:
    """Static stack-occupancy interval for one call-graph edge.

    Occupancy counts device-function frame registers resident on the
    register stack *including the callee's own frame* — i.e. the RSP
    depth just after the call completes, assuming nothing was evicted.
    """

    caller: str
    callee: str
    frame_regs: int  # the callee's frame size (its FRU)
    min_entry_regs: int
    max_entry_regs: Optional[int]  # None when recursion is unbounded

    def to_dict(self) -> Dict[str, Any]:
        return {
            "caller": self.caller,
            "callee": self.callee,
            "frame_regs": self.frame_regs,
            "min_entry_regs": self.min_entry_regs,
            "max_entry_regs": self.max_entry_regs,
        }


@dataclass(frozen=True)
class SchemePrediction:
    """Closed-form prediction for one CARS allocation level."""

    scheme: str
    regs_per_warp: int
    stack_capacity: int
    #: Deepest frame count guaranteed not to trap (None = any depth).
    trap_free_depth: Optional[int]
    guaranteed_trap_free: bool
    #: Sound lower bound on traps per dynamic call (0 or 1).
    min_traps_per_call: int
    #: Closed form: 128 B x pushed registers of the one-iteration worst
    #: chain that stay resident at this capacity (write traffic the
    #: baseline ABI would emit per traversal of that chain).
    spill_bytes_avoided: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "regs_per_warp": self.regs_per_warp,
            "stack_capacity": self.stack_capacity,
            "trap_free_depth": self.trap_free_depth,
            "guaranteed_trap_free": self.guaranteed_trap_free,
            "min_traps_per_call": self.min_traps_per_call,
            "spill_bytes_avoided": self.spill_bytes_avoided,
        }


@dataclass(frozen=True)
class KernelInterproc:
    """Everything the interprocedural analysis knows about one kernel."""

    kernel: str
    kernel_fru: int
    #: Static bound on simultaneous device-function frames (None =
    #: unbounded recursion reachable).  Must dominate the simulator's
    #: observed peak stack depth.
    frame_depth_bound: Optional[int]
    #: Static bound on total frame registers ever stacked (None likewise).
    worst_demand: Optional[int]
    cyclic: bool
    #: Reachable recursive functions lacking a recursion_bound annotation.
    unbounded_functions: Tuple[str, ...]
    #: Cumulative demand curve: ``demand_curve[d-1]`` = worst register
    #: demand over chains of at most ``d`` frames (truncated once it
    #: exceeds every scheme's capacity, or at the frame-depth bound).
    demand_curve: Tuple[int, ...]
    call_sites: Tuple[CallSiteInterval, ...]
    #: Liveness-tightened FRU per reachable device function.
    live_fru: Dict[str, int]
    declared_fru: Dict[str, int]
    predictions: Dict[str, SchemePrediction]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kernel": self.kernel,
            "kernel_fru": self.kernel_fru,
            "frame_depth_bound": self.frame_depth_bound,
            "worst_demand": self.worst_demand,
            "cyclic": self.cyclic,
            "unbounded_functions": list(self.unbounded_functions),
            "demand_curve": list(self.demand_curve),
            "call_sites": [site.to_dict() for site in self.call_sites],
            "live_fru": dict(sorted(self.live_fru.items())),
            "declared_fru": dict(sorted(self.declared_fru.items())),
            "predictions": {
                key: self.predictions[key].to_dict()
                for key in sorted(self.predictions)
            },
        }

    def trap_free_depth_for(self, capacity: int) -> Optional[int]:
        """Deepest frame count d with ``W*(d) <= capacity``.

        ``None`` means unlimited: either no chain exists at all or every
        possible chain fits (the curve ended below the capacity).
        """
        depth = 0
        for demand in self.demand_curve:
            if demand > capacity:
                return depth
            depth += 1
        if self.frame_depth_bound is not None and depth >= self.frame_depth_bound:
            return None  # every reachable depth fits
        if not self.demand_curve:
            return None  # call-free kernel
        # The curve was truncated while still under capacity only when it
        # already covered every capacity of interest; be conservative.
        return depth


@dataclass(frozen=True)
class InterprocReport:
    """Per-module interprocedural analysis (one entry per kernel)."""

    name: str
    module_digest: str
    kernels: Dict[str, KernelInterproc]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": INTERPROC_SCHEMA_VERSION,
            "name": self.name,
            "module_digest": self.module_digest,
            "kernels": {
                key: self.kernels[key].to_dict() for key in sorted(self.kernels)
            },
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> Dict[str, Any]:
        """Compact static-feature block attached to ``RunResult``."""
        features: Dict[str, Any] = {"schema": INTERPROC_SCHEMA_VERSION}
        for kernel in sorted(self.kernels):
            info = self.kernels[kernel]
            features[kernel] = {
                "frame_depth_bound": info.frame_depth_bound,
                "worst_demand": info.worst_demand,
                "cyclic": info.cyclic,
                "call_sites": len(info.call_sites),
                "live_fru_total": sum(info.live_fru.values()),
                "declared_fru_total": sum(info.declared_fru.values()),
                "predictions": {
                    key: {
                        "stack_capacity": pred.stack_capacity,
                        "trap_free_depth": pred.trap_free_depth,
                        "guaranteed_trap_free": pred.guaranteed_trap_free,
                        "min_traps_per_call": pred.min_traps_per_call,
                    }
                    for key, pred in sorted(info.predictions.items())
                },
            }
        return features


# ---------------------------------------------------------------------------
# Core computations
# ---------------------------------------------------------------------------


def _component_weight(
    graph: CallGraph,
    component: FrozenSet[str],
    kernel: str,
    cyclic: bool,
) -> Optional[Tuple[int, int]]:
    """(frames, registers) a chain can accumulate inside *component*.

    None when the component recurses without a declared bound.  The
    kernel's own activation contributes no stacked frame (its frame is
    the statically allocated base allotment, not a stack entry).
    """
    frames = 0
    regs = 0
    for name in sorted(component):
        if cyclic:
            bound = graph.recursion_bounds.get(name)
            if bound is None:
                return None
            count = max(0, bound)
        else:
            count = 1
        if name == kernel:
            # The root activation is not a stack frame; re-activations
            # (kernel-level recursion) would be.
            count = max(0, count - 1) if cyclic else 0
        frames += count
        regs += count * graph.fru.get(name, 0)
    return frames, regs


@dataclass(frozen=True)
class _CondensationBounds:
    """Longest-path results over the SCC condensation from one kernel."""

    frame_depth_bound: Optional[int]
    worst_demand: Optional[int]
    #: Per node: worst chain registers up to and including the node's
    #: component (None = unbounded on some path to it).
    arrive_regs: Dict[str, Optional[int]]
    unbounded_functions: Tuple[str, ...]


def _condensation_bounds(
    graph: CallGraph, kernel: str, reachable: FrozenSet[str]
) -> _CondensationBounds:
    components = [c & reachable for c in graph.sccs() if c & reachable]
    comp_of: Dict[str, int] = {}
    for i, members in enumerate(components):
        for name in members:
            comp_of[name] = i
    on_cycle = graph.cycle_nodes()
    weights: List[Optional[Tuple[int, int]]] = [
        _component_weight(
            graph, members, kernel, not on_cycle.isdisjoint(members)
        )
        for members in components
    ]
    unbounded = tuple(
        sorted(
            name
            for i, members in enumerate(components)
            if weights[i] is None
            for name in members
            if graph.recursion_bounds.get(name) is None
        )
    )

    # graph.sccs() yields components callees-first; process callers last
    # so each component's successors are already final.  arrive[i] is the
    # worst (frames, regs) of any condensation path from the kernel's
    # component through component i inclusive; None = not on a path from
    # the kernel, 'inf' = a path through an unbounded component.
    n = len(components)
    arrive: List[Optional[Tuple[Optional[int], Optional[int]]]] = [None] * n
    kernel_comp = comp_of[kernel]
    succs: List[set] = [set() for _ in range(n)]
    for caller in reachable:
        for callee in graph.callees(caller):
            if callee in comp_of and comp_of[callee] != comp_of[caller]:
                succs[comp_of[caller]].add(comp_of[callee])

    def merge(
        current: Optional[Tuple[Optional[int], Optional[int]]],
        frames: Optional[int],
        regs: Optional[int],
    ) -> Tuple[Optional[int], Optional[int]]:
        if current is None:
            return frames, regs
        cur_frames, cur_regs = current
        best_frames = (
            None
            if frames is None or cur_frames is None
            else max(cur_frames, frames)
        )
        best_regs = (
            None if regs is None or cur_regs is None else max(cur_regs, regs)
        )
        return best_frames, best_regs

    def add(
        base: Tuple[Optional[int], Optional[int]],
        weight: Optional[Tuple[int, int]],
    ) -> Tuple[Optional[int], Optional[int]]:
        if weight is None:
            return None, None
        frames, regs = base
        return (
            None if frames is None else frames + weight[0],
            None if regs is None else regs + weight[1],
        )

    # Topological order over the condensation: reverse of sccs() order.
    order = list(range(n - 1, -1, -1))
    position = {comp: pos for pos, comp in enumerate(order)}
    arrive[kernel_comp] = add((0, 0), weights[kernel_comp])
    for comp in order:
        state = arrive[comp]
        if state is None:
            continue
        for succ in succs[comp]:
            assert position[succ] > position[comp], "condensation not a DAG"
            arrive[succ] = merge(arrive[succ], *add(state, weights[succ]))

    best_frames: Optional[int] = 0
    best_regs: Optional[int] = 0
    for state in arrive:
        if state is None:
            continue
        frames, regs = state
        if best_frames is not None:
            best_frames = None if frames is None else max(best_frames, frames)
        if best_regs is not None:
            best_regs = None if regs is None else max(best_regs, regs)

    arrive_regs: Dict[str, Optional[int]] = {}
    for name in reachable:
        state = arrive[comp_of[name]]
        arrive_regs[name] = None if state is None else state[1]
    return _CondensationBounds(
        frame_depth_bound=best_frames,
        worst_demand=best_regs,
        arrive_regs=arrive_regs,
        unbounded_functions=unbounded,
    )


def _demand_curve(
    graph: CallGraph,
    kernel: str,
    max_depth: int,
) -> List[int]:
    """Cumulative worst-case demand ``W*(d)`` for d = 1..max_depth.

    ``W*(d)`` over-approximates the register demand of any call chain of
    at most ``d`` frames (walks may revisit recursive functions more
    often than their declared bounds allow — sound for an upper bound).
    The list is truncated when no deeper chain exists.
    """
    curve: List[int] = []
    best = 0
    frontier: Dict[str, int] = {kernel: 0}
    for _ in range(max_depth):
        nxt: Dict[str, int] = {}
        for node, regs in frontier.items():
            for callee in graph.callees(node):
                value = regs + graph.fru.get(callee, 0)
                if nxt.get(callee, -1) < value:
                    nxt[callee] = value
        if not nxt:
            break
        best = max(best, max(nxt.values()))
        curve.append(best)
        frontier = nxt
    return curve


def _min_entry_regs(
    graph: CallGraph, kernel: str, reachable: FrozenSet[str]
) -> Dict[str, int]:
    """Minimum stacked registers on entry to each function (Dijkstra).

    Frame weights are positive, so cycles can never lower a minimum —
    the shortest acyclic chain is the true best case.
    """
    dist: Dict[str, int] = {kernel: 0}
    heap: List[Tuple[int, str]] = [(0, kernel)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, d):
            continue
        for callee in graph.callees(node):
            nd = d + graph.fru.get(callee, 0)
            if callee not in dist or nd < dist[callee]:
                dist[callee] = nd
                heapq.heappush(heap, (nd, callee))
    return {name: dist[name] for name in reachable if name in dist}


def _live_fru(func: Function) -> int:
    """Liveness-tightened FRU: registers live across some call, plus RFP.

    A function whose pushed registers are all dead across its calls (or
    that makes no calls at all) only ever needs its saved-RFP slot
    resident — the declared FRU can be tightened to that.
    """
    if not func.callee_saved:
        return 1
    start, count = func.callee_saved
    block = frozenset(range(start, start + count))
    cfg = build_cfg(func)
    _, live_out = per_instruction_liveness(
        cfg, solve(Liveness(conservative_calls=False), cfg)
    )
    worst = 0
    for idx, inst in enumerate(func.instructions):
        if not is_call(inst.op):
            continue
        live_saved = len(block & live_out[idx])
        if live_saved > worst:
            worst = live_saved
    return worst + 1


def _call_site_intervals(
    graph: CallGraph,
    kernel: str,
    reachable: FrozenSet[str],
    min_entry: Dict[str, int],
    arrive_regs: Dict[str, Optional[int]],
) -> Tuple[CallSiteInterval, ...]:
    comp_of: Dict[str, int] = {}
    for i, members in enumerate(graph.sccs()):
        for name in members:
            comp_of[name] = i
    sites: List[CallSiteInterval] = []
    for caller in sorted(reachable):
        for callee in sorted(graph.callees(caller)):
            frame = graph.fru.get(callee, 0)
            base = min_entry.get(caller)
            if base is None:
                continue  # unreachable caller (defensive)
            worst_caller = arrive_regs.get(caller)
            if worst_caller is None:
                worst: Optional[int] = None
            elif comp_of.get(callee) == comp_of.get(caller):
                # Recursive edge: the caller's arrival bound already
                # accounts for every bounded activation of the component,
                # including the callee's frame.
                worst = worst_caller
            else:
                worst = worst_caller + frame
            sites.append(
                CallSiteInterval(
                    caller=caller,
                    callee=callee,
                    frame_regs=frame,
                    min_entry_regs=base + frame,
                    max_entry_regs=worst,
                )
            )
    return tuple(sites)


def _scheme_prediction(
    scheme: str,
    regs_per_warp: int,
    base: KernelStackAnalysis,
    info_frame_bound: Optional[int],
    info_worst_demand: Optional[int],
    curve: Sequence[int],
    min_frame: Optional[int],
    chain_regs: int,
    chain_frames: int,
    pushed_only: bool = False,
    capacity: Optional[int] = None,
) -> SchemePrediction:
    # Stack capacity defaults to whatever the allocation leaves above the
    # kernel's own frame; schemes with no register stack at all (regcomp
    # compresses the static allocation but spills every call boundary to
    # memory, exactly like the baseline ABI) override it explicitly —
    # deriving it from ``regs_per_warp`` would invent stack space out of
    # the *compressed* footprint.
    if capacity is None:
        capacity = max(0, regs_per_warp - base.kernel_fru)
    # trap_free_depth from the cumulative curve.
    depth: Optional[int] = 0
    for demand in curve:
        if demand > capacity:
            break
        depth = (depth or 0) + 1
    if not base.has_calls:
        depth = None
    elif depth == len(curve):
        # The curve ended (acyclic, fully enumerated) or was truncated at
        # the frame bound with everything fitting.
        if info_worst_demand is not None and info_worst_demand <= capacity:
            depth = None
    guaranteed = (
        not base.has_calls
        or (info_worst_demand is not None and info_worst_demand <= capacity)
    )
    # Every dynamic call traps when even the smallest reachable frame
    # exceeds the whole capacity.  Pushed-only arms (RegDem arena,
    # register-file cache) never hold the saved-RFP slot, so their
    # per-frame resident cost is one register smaller — using the full
    # FRU here would overstate the lower bound and break soundness.
    min_rate = 0
    min_resident = None
    if min_frame is not None:
        min_resident = min_frame - 1 if pushed_only else min_frame
    if base.has_calls and min_resident is not None and min_resident > capacity:
        min_rate = 1
    resident = min(capacity, chain_regs)
    avoided = max(0, resident - min(chain_frames, resident)) * _BYTES_PER_REG
    return SchemePrediction(
        scheme=scheme,
        regs_per_warp=regs_per_warp,
        stack_capacity=capacity,
        trap_free_depth=depth,
        guaranteed_trap_free=guaranteed,
        min_traps_per_call=min_rate,
        spill_bytes_avoided=avoided,
    )


def analyze_kernel_interproc(
    module: Module, graph: CallGraph, kernel: str
) -> KernelInterproc:
    """Full interprocedural analysis for one kernel root."""
    base = analyze_kernel(graph, kernel)
    reachable = frozenset(graph.reachable(kernel))
    bounds = _condensation_bounds(graph, kernel, reachable)
    # Every scheme's capacity in register slots: the CARS watermarks
    # come from the call-graph analysis itself; the plugin arms use the
    # default config knobs (exactly what the ``regdem`` / ``rfcache``
    # techniques simulate, so ``--validate`` compares like with like).
    defaults = GPUConfig()
    arena_regs = defaults.regdem_smem_bytes_per_warp // _BYTES_PER_REG
    # Static register compression shrinks the scheduler-visible footprint
    # to a percentage of the kernel frame but holds *no* stack space:
    # every call boundary still spills to memory, so its capacity is
    # pinned to 0 rather than derived from the (compressed) allocation.
    regcomp_regs = max(
        1, -(-base.kernel_fru * defaults.regcomp_ratio_pct // 100)
    )
    # scheme -> (scheduler-visible regs/warp, pushed_only, capacity
    # override; None derives capacity from the allocation).
    schemes: Dict[str, Tuple[int, bool, Optional[int]]] = {
        "low": (base.low_watermark, False, None),
        "nxlow2": (base.nxlow_watermark(2), False, None),
        "high": (base.high_watermark, False, None),
        "regdem": (base.kernel_fru + arena_regs, True, None),
        "rfcache": (base.kernel_fru + defaults.rfcache_regs, True, None),
        "regcomp": (regcomp_regs, True, 0),
    }
    capacity_hi = max(
        max(0, regs - base.kernel_fru) if cap is None else cap
        for regs, _, cap in schemes.values()
    )
    max_depth = capacity_hi + 1
    if bounds.frame_depth_bound is not None:
        max_depth = min(max_depth, bounds.frame_depth_bound)
    curve = _demand_curve(graph, kernel, max_depth)
    min_entry = _min_entry_regs(graph, kernel, reachable)
    sites = _call_site_intervals(
        graph, kernel, reachable, min_entry, bounds.arrive_regs
    )
    devices = sorted(reachable - {kernel})
    live_fru = {
        name: _live_fru(module.function(name))
        for name in devices
        if name in module.functions
    }
    declared_fru = {name: graph.fru.get(name, 0) for name in devices}
    min_frame = min(
        (graph.fru.get(site.callee, 0) for site in sites), default=None
    )
    chain_regs = max(0, base.max_stack_depth - base.kernel_fru)
    chain_frames = graph.max_call_depth(kernel)
    return KernelInterproc(
        kernel=kernel,
        kernel_fru=base.kernel_fru,
        frame_depth_bound=bounds.frame_depth_bound,
        worst_demand=bounds.worst_demand,
        cyclic=base.cyclic,
        unbounded_functions=bounds.unbounded_functions,
        demand_curve=tuple(curve),
        call_sites=sites,
        live_fru=live_fru,
        declared_fru=declared_fru,
        predictions={
            scheme: _scheme_prediction(
                scheme,
                regs,
                base,
                bounds.frame_depth_bound,
                bounds.worst_demand,
                curve,
                min_frame,
                chain_regs,
                chain_frames,
                pushed_only=pushed_only,
                capacity=capacity,
            )
            for scheme, (regs, pushed_only, capacity) in schemes.items()
        },
    )


def analyze_module_interproc(module: Module, name: str = "module") -> InterprocReport:
    """Run the interprocedural analysis for every kernel of *module*."""
    graph = build_call_graph(module)
    kernels = {
        func.name: analyze_kernel_interproc(module, graph, func.name)
        for func in module.kernels()
    }
    return InterprocReport(
        name=name, module_digest=module.content_digest(), kernels=kernels
    )


# ---------------------------------------------------------------------------
# Digest-keyed registry (the harness attaches this to every RunResult)
# ---------------------------------------------------------------------------

_ANALYSIS_CACHE: Dict[str, InterprocReport] = {}
_analysis_executions = 0


def analysis_executions() -> int:
    """How many times the full analysis actually ran (cache misses)."""
    return _analysis_executions


def clear_analysis_cache() -> None:
    global _analysis_executions
    _ANALYSIS_CACHE.clear()
    _analysis_executions = 0


def ensure_module_analyzed(module: Module, name: str = "module") -> InterprocReport:
    """Analyze *module* once per content digest (shared across runs)."""
    global _analysis_executions
    digest = module.content_digest()
    report = _ANALYSIS_CACHE.get(digest)
    if report is None:
        report = analyze_module_interproc(module, name)
        _ANALYSIS_CACHE[digest] = report
        _analysis_executions += 1
    return report


# ---------------------------------------------------------------------------
# Prediction-vs-simulation validation (repro analyze --validate)
# ---------------------------------------------------------------------------

#: scheme key -> technique name that pins exactly that capacity.
SCHEME_TECHNIQUES = {
    "low": "cars_low",
    "nxlow2": "cars_nxlow2",
    "high": "cars_high",
    "regdem": "regdem",
    "rfcache": "rfcache",
    "regcomp": "regcomp",
}


def validate_against_stats(
    report: InterprocReport,
    scheme: str,
    launched_kernels: Sequence[str],
    stats: Any,
) -> List[str]:
    """Check the soundness contract against one simulated run.

    *stats* is a :class:`repro.metrics.counters.SimStats` (typed as Any
    to keep this package free of a metrics dependency).  Returns a list
    of human-readable violations — empty means the predictions were
    sound for this run.
    """
    kernels = [report.kernels[k] for k in launched_kernels]
    preds = [info.predictions[scheme] for info in kernels]
    violations: List[str] = []

    depth_bounds = [info.frame_depth_bound for info in kernels]
    if all(bound is not None for bound in depth_bounds):
        bound = max(b for b in depth_bounds if b is not None) if depth_bounds else 0
        if stats.peak_stack_depth > bound:
            violations.append(
                f"{scheme}: observed peak stack depth "
                f"{stats.peak_stack_depth} exceeds the static frame-depth "
                f"bound {bound}"
            )

    if preds and all(p.guaranteed_trap_free for p in preds) and stats.traps:
        violations.append(
            f"{scheme}: predicted guaranteed-trap-free but observed "
            f"{stats.traps} trap(s)"
        )

    if preds:
        min_rate = min(p.min_traps_per_call for p in preds)
        if min_rate * stats.calls > stats.traps:
            violations.append(
                f"{scheme}: trap lower bound {min_rate * stats.calls} "
                f"(rate {min_rate}/call x {stats.calls} calls) exceeds "
                f"observed {stats.traps} trap(s)"
            )

    within_trap_free = all(
        p.trap_free_depth is None or stats.peak_stack_depth <= p.trap_free_depth
        for p in preds
    )
    if preds and within_trap_free and stats.traps:
        depths = [p.trap_free_depth for p in preds]
        violations.append(
            f"{scheme}: observed peak depth {stats.peak_stack_depth} is "
            f"within the trap-free depth {depths} yet {stats.traps} "
            f"trap(s) occurred"
        )
    return violations
