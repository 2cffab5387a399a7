"""Lint passes: ABI and stack-safety checking over the CFG + dataflow layer.

Where :mod:`repro.isa.validator` enforces *structural* invariants (operand
shapes, label resolution, register bounds), the linter proves *path*
properties: every diagnostic here is justified along actual control-flow
paths, replacing the validator's straight-line approximations.  The rule
set (see :data:`repro.analysis.diagnostics.CODES`):

* CARS101/102 — uninitialized register / predicate reads (reaching defs
  with entry pseudo-definitions);
* CARS103     — dead stores (conservative-call liveness);
* CARS104     — unreachable code (CFG reachability; compiler-emitted
  reconvergence SYNC/NOP padding is exempt);
* CARS201     — caller-saved values live across a call (strict-call
  liveness: the callee may clobber them);
* CARS202/203 — callee-saved writes outside the declared block / not
  covered by a PUSH on every inbound path (must-analysis);
* CARS204/205 — PUSH/POP balance along all paths, ABI range base;
* CARS301/302 — SYNC outside any SSY scope, divergent CBRA outside any
  SSY scope, and inconsistent scope depth at merges;
* CARS401/402 — cross-checks of PUSH demand against the call graph's
  MaxStackDepth and each function's declared FRU/callee-saved metadata;
* CARS403/404/405 — interprocedural rules riding on
  :mod:`repro.analysis.interproc`: unannotated recursion, FRU declared
  looser than the computed PUSH pressure, and (given a concrete
  ``stack_regs`` allocation) call sites statically guaranteed to trap.

Each function's worst-case PUSH depth is solved once and read by
CARS401, 402 and 404.  CARS401 builds the module's call graph once and
weighs both of its sides with the call graph's one walk
(:meth:`~repro.callgraph.CallGraph.heaviest_chain`).  CARS403/405 read
the digest-cached report of :func:`~repro.analysis.interproc.ensure_module_analyzed`,
so linting a module and simulating it share one interprocedural pass.

Use :func:`lint_function` / :func:`lint_module` directly, or
:func:`ensure_module_linted` as the harness gate (raises
:class:`LintError` so a miscompiled workload fails loudly instead of
producing silently wrong numbers).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from ..callgraph import build_call_graph, max_stack_depth
from ..isa.instructions import CALLEE_SAVED_BASE, Instruction
from ..isa.opcodes import OpClass, Opcode, is_call
from ..isa.program import Function, IsaError, Module
from ..frontend import abi
from .cfg import CFG, BasicBlock, build_cfg
from .dataflow import (
    CALLER_SAVED,
    DataflowProblem,
    Liveness,
    ReachingDefinitions,
    UNINIT_DEF,
    is_pred_loc,
    loc_name,
    per_instruction_liveness,
    per_instruction_reaching,
    pred_loc,
    solve,
)
from .diagnostics import Diagnostic, LintReport, error, warning
from .interproc import ensure_module_analyzed


def _push_range(inst: "Instruction") -> Tuple[int, int]:
    """The (start, count) range of a PUSH/POP (validated non-None by the
    ISA layer; this narrows the Optional for the checks below)."""
    assert inst.push_regs is not None
    return inst.push_regs


class LintError(IsaError):
    """Raised by the harness gate when a module has lint errors."""

    def __init__(self, report: LintReport) -> None:
        lines = [d.render() for d in report.errors()]
        super().__init__(
            f"{report.name}: {len(lines)} lint error(s)\n  " + "\n  ".join(lines)
        )
        self.report = report


# ---------------------------------------------------------------------------
# CARS101 / CARS102: uninitialized reads


def _checked_uses(func: Function, idx: int) -> FrozenSet[int]:
    """Locations whose value instruction *idx* genuinely consumes.

    PUSH range reads (saving the caller's values is the point) and the
    conservative call/RET effects are excluded — only explicit operands
    are held to the initialized-before-use rule.
    """
    inst = func.instructions[idx]
    uses = set(inst.srcs)
    if inst.psrc is not None:
        uses.add(pred_loc(inst.psrc))
    return frozenset(uses)


def _check_uninitialized(cfg: CFG) -> List[Diagnostic]:
    func = cfg.func
    reach_in = per_instruction_reaching(cfg, solve(ReachingDefinitions(), cfg))
    reachable = cfg.reachable_blocks()
    diags: List[Diagnostic] = []
    for block in cfg.blocks:
        if block.index not in reachable:
            continue
        for idx in range(block.start, block.end):
            maybe_uninit = {s[0] for s in reach_in[idx] if s[1] == UNINIT_DEF}
            for loc in sorted(_checked_uses(func, idx) & maybe_uninit):
                code = "CARS102" if is_pred_loc(loc) else "CARS101"
                diags.append(error(
                    code, func.name,
                    f"{loc_name(loc)} may be read before it is written "
                    f"({func.instructions[idx].op.value})", idx))
    return diags


# ---------------------------------------------------------------------------
# CARS103: dead stores

#: Opcodes whose only effect is their register/predicate result.
_PURE_CLASSES = (OpClass.ALU, OpClass.FPU, OpClass.SFU)


def _check_dead_stores(cfg: CFG) -> List[Diagnostic]:
    func = cfg.func
    _, live_out = per_instruction_liveness(
        cfg, solve(Liveness(conservative_calls=True), cfg))
    reachable = cfg.reachable_blocks()
    diags: List[Diagnostic] = []
    for block in cfg.blocks:
        if block.index not in reachable:
            continue
        for idx in range(block.start, block.end):
            inst = func.instructions[idx]
            if inst.op_class not in _PURE_CLASSES:
                continue
            # Plain register copies are exempt: the frontend uniformly
            # emits parameter/return glue MOVs that are dead by
            # construction when a parameter goes unused.  Dead *work*
            # (arithmetic, loads of constants, selects) is what we flag.
            if inst.op is Opcode.MOV:
                continue
            for reg in inst.dst:
                # The ABI return slot's reader is the (unknown) caller.
                if reg == abi.RETURN_REG:
                    continue
                if reg not in live_out[idx]:
                    diags.append(warning(
                        "CARS103", func.name,
                        f"value written to R{reg} by {inst.op.value} "
                        f"is never read", idx))
            if inst.pdst is not None and pred_loc(inst.pdst) not in live_out[idx]:
                diags.append(warning(
                    "CARS103", func.name,
                    f"predicate P{inst.pdst} set by {inst.op.value} "
                    f"is never read", idx))
    return diags


# ---------------------------------------------------------------------------
# CARS104: unreachable code


def _check_unreachable(cfg: CFG) -> List[Diagnostic]:
    reachable = cfg.reachable_blocks()
    diags: List[Diagnostic] = []
    for block in cfg.blocks:
        if block.index in reachable:
            continue
        insts = cfg.instructions(block)
        # Structured lowering leaves reconvergence SYNCs (and NOP padding)
        # behind branches that always leave the scope; those are benign.
        if all(i.op in (Opcode.SYNC, Opcode.NOP) for i in insts):
            continue
        diags.append(warning(
            "CARS104", cfg.func.name,
            f"unreachable code ({len(insts)} instruction(s) starting with "
            f"{insts[0].op.value})", block.start))
    return diags


# ---------------------------------------------------------------------------
# CARS201: caller-saved registers live across calls


def _check_caller_saved_across_calls(cfg: CFG) -> List[Diagnostic]:
    func = cfg.func
    live_in, live_out = per_instruction_liveness(
        cfg, solve(Liveness(conservative_calls=False), cfg))
    reachable = cfg.reachable_blocks()
    diags: List[Diagnostic] = []
    for block in cfg.blocks:
        if block.index not in reachable:
            continue
        for idx in range(block.start, block.end):
            inst = func.instructions[idx]
            if not is_call(inst.op):
                continue
            # Live out of the call *and* into it: the value flows across
            # (RETURN_REG is produced by the call itself, so it is exempt).
            crossing = live_out[idx] & live_in[idx] & CALLER_SAVED
            for reg in sorted(crossing - {abi.RETURN_REG}):
                diags.append(error(
                    "CARS201", func.name,
                    f"caller-saved R{reg} is live across {inst.op.value} "
                    f"(the callee may clobber it)", idx))
    return diags


# ---------------------------------------------------------------------------
# CARS202 / CARS203: callee-saved write discipline (must-pushed analysis)


#: Must-pushed lattice value: pushed-register set, ``None`` = unreached.
_Pushed = Optional[FrozenSet[int]]


class _MustPushed(DataflowProblem[_Pushed]):
    """Forward must-analysis: registers covered by a PUSH on *every* path.

    The value is a frozenset of pushed registers, with None as the
    unreached top.
    """

    FORWARD = True

    def boundary(self, cfg: CFG) -> _Pushed:
        return frozenset()

    def top(self, cfg: CFG) -> _Pushed:
        return None

    def meet(self, a: _Pushed, b: _Pushed) -> _Pushed:
        if a is None:
            return b
        if b is None:
            return a
        return a & b

    def transfer(self, cfg: CFG, block: BasicBlock, value: _Pushed) -> _Pushed:
        if value is None:
            return None
        pushed = set(value)
        for inst in cfg.instructions(block):
            if inst.op is Opcode.PUSH:
                start, count = _push_range(inst)
                pushed.update(range(start, start + count))
            elif inst.op is Opcode.POP:
                start, count = _push_range(inst)
                pushed.difference_update(range(start, start + count))
        return frozenset(pushed)


def _check_callee_saved_writes(cfg: CFG) -> List[Diagnostic]:
    func = cfg.func
    if func.is_kernel:
        return []  # kernels have no caller to preserve registers for
    declared = func.callee_saved
    solution = solve(_MustPushed(), cfg)
    reachable = cfg.reachable_blocks()
    diags: List[Diagnostic] = []
    for block in cfg.blocks:
        if block.index not in reachable:
            continue
        pushed_in = solution.block_in(block.index)
        pushed = set(pushed_in) if pushed_in is not None else set()
        for idx in range(block.start, block.end):
            inst = func.instructions[idx]
            if inst.op is Opcode.PUSH:
                start, count = _push_range(inst)
                pushed.update(range(start, start + count))
                continue
            if inst.op is Opcode.POP:
                start, count = _push_range(inst)
                pushed.difference_update(range(start, start + count))
                continue
            for reg in inst.dst:
                if reg < CALLEE_SAVED_BASE:
                    continue
                if declared is None or not (
                        declared[0] <= reg < declared[0] + declared[1]):
                    block_text = (
                        f"declared block R{declared[0]}.."
                        f"R{declared[0] + declared[1] - 1}"
                        if declared else "no declared block")
                    diags.append(error(
                        "CARS202", func.name,
                        f"write to callee-saved R{reg} outside the "
                        f"{block_text}", idx))
                elif reg not in pushed:
                    diags.append(error(
                        "CARS203", func.name,
                        f"write to callee-saved R{reg} is not covered by a "
                        f"PUSH on every path", idx))
    return diags


# ---------------------------------------------------------------------------
# CARS204 / CARS205: PUSH/POP balance along all paths

class _Conflict:
    """Lattice sentinel: paths disagree on the value below this point."""


_CONFLICT = _Conflict()

#: Abstract PUSH stack: tuple of (base, count) ranges; ``None`` =
#: unreached; :class:`_Conflict` = paths disagree.
_PushRanges = Tuple[Tuple[int, int], ...]
_Stack = Union[None, _Conflict, _PushRanges]


class _PushStack(DataflowProblem[_Stack]):
    """Forward analysis of the abstract PUSH stack (tuple of ranges)."""

    FORWARD = True

    def boundary(self, cfg: CFG) -> _Stack:
        return ()

    def top(self, cfg: CFG) -> _Stack:
        return None  # unreached

    def meet(self, a: _Stack, b: _Stack) -> _Stack:
        if a is None:
            return b
        if b is None:
            return a
        return a if a == b else _CONFLICT

    def transfer(self, cfg: CFG, block: BasicBlock, value: _Stack) -> _Stack:
        if value is None or isinstance(value, _Conflict):
            return value
        stack = list(value)
        for inst in cfg.instructions(block):
            if inst.op is Opcode.PUSH:
                stack.append(_push_range(inst))
            elif inst.op is Opcode.POP:
                if not stack or stack[-1] != inst.push_regs:
                    return _CONFLICT
                stack.pop()
        return tuple(stack)


def _stack_regs(stack: _PushRanges) -> int:
    return sum(count for _, count in stack)


def _check_push_pop_balance(cfg: CFG) -> List[Diagnostic]:
    func = cfg.func
    diags: List[Diagnostic] = []
    for idx, inst in enumerate(func.instructions):
        if inst.op in (Opcode.PUSH, Opcode.POP) and inst.push_regs:
            start, _count = inst.push_regs
            if start < CALLEE_SAVED_BASE:
                diags.append(error(
                    "CARS205", func.name,
                    f"{inst.op.value} range starts at R{start}, below the "
                    f"callee-saved ABI base R{CALLEE_SAVED_BASE}", idx))

    solution = solve(_PushStack(), cfg)
    reachable = cfg.reachable_blocks()
    for block in cfg.blocks:
        if block.index not in reachable:
            continue
        stack_in = solution.block_in(block.index)
        if isinstance(stack_in, _Conflict):
            # Report only at the merge frontier, not down the cascade.
            feeders = [solution.block_out(p) for p in block.preds]
            if any(f is not None and not isinstance(f, _Conflict)
                   for f in feeders):
                diags.append(error(
                    "CARS204", func.name,
                    "control-flow paths reach this point with different "
                    "PUSH stack depths", block.start))
            continue
        stack = list(stack_in) if stack_in is not None else []
        for idx in range(block.start, block.end):
            inst = func.instructions[idx]
            if inst.op is Opcode.PUSH:
                stack.append(_push_range(inst))
            elif inst.op is Opcode.POP:
                if not stack:
                    diags.append(error(
                        "CARS204", func.name,
                        "POP with no matching PUSH on some path", idx))
                    break
                if stack[-1] != inst.push_regs:
                    start, count = stack[-1]
                    diags.append(error(
                        "CARS204", func.name,
                        f"POP range does not match the pushed "
                        f"[R{start}..R{start + count - 1}]", idx))
                    break
                stack.pop()
            elif inst.op in (Opcode.RET, Opcode.EXIT) and stack:
                diags.append(error(
                    "CARS204", func.name,
                    f"{inst.op.value} with {_stack_regs(tuple(stack))} "
                    f"register(s) still pushed", idx))
    return diags


# ---------------------------------------------------------------------------
# CARS301 / CARS302: SSY/SYNC pairing along all paths


#: Open-SSY-scope stack: tuple of reconvergence indices; ``None`` =
#: unreached; :class:`_Conflict` = paths disagree on the depth.
_Scopes = Union[None, _Conflict, Tuple[int, ...]]


class _SsyScopes(DataflowProblem[_Scopes]):
    """Forward analysis of the open-SSY-scope stack (tuple of targets)."""

    FORWARD = True

    def boundary(self, cfg: CFG) -> _Scopes:
        return ()

    def top(self, cfg: CFG) -> _Scopes:
        return None

    def meet(self, a: _Scopes, b: _Scopes) -> _Scopes:
        if a is None:
            return b
        if b is None:
            return a
        return a if a == b else _CONFLICT

    def transfer(self, cfg: CFG, block: BasicBlock, value: _Scopes) -> _Scopes:
        if value is None or isinstance(value, _Conflict):
            return value
        scopes = list(value)
        for idx in range(block.start, block.end):
            while scopes and scopes[-1] == idx:
                scopes.pop()  # execution reached the reconvergence point
            inst = cfg.func.instructions[idx]
            if inst.op is Opcode.SSY:
                scopes.append(cfg.func.label_index(inst.target))
        return tuple(scopes)


def _check_ssy_sync(cfg: CFG) -> List[Diagnostic]:
    func = cfg.func
    solution = solve(_SsyScopes(), cfg)
    reachable = cfg.reachable_blocks()
    diags: List[Diagnostic] = []
    for block in cfg.blocks:
        if block.index not in reachable:
            continue
        scopes_in = solution.block_in(block.index)
        if isinstance(scopes_in, _Conflict):
            feeders = [solution.block_out(p) for p in block.preds]
            if any(f is not None and not isinstance(f, _Conflict)
                   for f in feeders):
                diags.append(error(
                    "CARS301", func.name,
                    "control-flow paths reach this point with different "
                    "SSY scope depths", block.start))
            continue
        scopes = list(scopes_in) if scopes_in is not None else []
        for idx in range(block.start, block.end):
            while scopes and scopes[-1] == idx:
                scopes.pop()
            inst = func.instructions[idx]
            if inst.op is Opcode.SSY:
                scopes.append(func.label_index(inst.target))
            elif inst.op is Opcode.SYNC and not scopes:
                diags.append(error(
                    "CARS301", func.name,
                    "SYNC without an enclosing SSY scope", idx))
            elif inst.op is Opcode.CBRA and not scopes:
                diags.append(error(
                    "CARS302", func.name,
                    "divergent CBRA outside any SSY scope (lanes could "
                    "never reconverge)", idx))
    return diags


# ---------------------------------------------------------------------------
# CARS401 / CARS402: cross-module stack accounting


def _max_push_depth(cfg: CFG) -> int:
    """Worst-case registers this function holds pushed at any point."""
    solution = solve(_PushStack(), cfg)
    reachable = cfg.reachable_blocks()
    worst = 0
    for block in cfg.blocks:
        if block.index not in reachable:
            continue
        stack_in = solution.block_in(block.index)
        if stack_in is None or isinstance(stack_in, _Conflict):
            continue  # imbalance is CARS204's finding, not ours
        stack = list(stack_in)
        for inst in cfg.instructions(block):
            if inst.op is Opcode.PUSH:
                stack.append(_push_range(inst))
                worst = max(worst, _stack_regs(tuple(stack)))
            elif inst.op is Opcode.POP and stack:
                stack.pop()
    return worst


def _check_function_metadata(cfg: CFG, push_depth: int) -> List[Diagnostic]:
    """CARS402: declared callee-saved/FRU metadata must cover the code."""
    func = cfg.func
    diags: List[Diagnostic] = []
    if func.is_kernel:
        return diags
    declared = func.callee_saved
    if declared is not None and declared[1] > 0:
        covering = any(
            inst.op is Opcode.PUSH and inst.push_regs is not None
            and inst.push_regs[0] <= declared[0]
            and inst.push_regs[0] + inst.push_regs[1]
            >= declared[0] + declared[1]
            for inst in func.instructions)
        if not covering:
            diags.append(error(
                "CARS402", func.name,
                f"declared callee-saved block R{declared[0]}.."
                f"R{declared[0] + declared[1] - 1} has no covering PUSH"))
    # A device function's FRU must account for everything it pushes plus
    # the saved-RFP slot; otherwise the call-graph analysis under-reserves.
    if push_depth and push_depth + 1 > func.fru:
        diags.append(error(
            "CARS402", func.name,
            f"pushes up to {push_depth} register(s) but declares "
            f"fru={func.fru} (needs >= {push_depth + 1})"))
    return diags


def _check_fru_slack(cfg: CFG, push_depth: int) -> List[Diagnostic]:
    """CARS404: declared FRU looser than the computed register pressure.

    The dual of CARS402's under-declaration check: a device function
    whose declared FRU exceeds its worst-case PUSH pressure plus the
    saved-RFP slot over-reserves register-stack space on every
    activation, lowering CARS's trap-free call depth for no benefit.
    (Registers that are *pushed* are never slack, even when dead across
    every call — the PUSH protects the caller's value, and deliberate
    pressure padding is expressed through the PUSH range; the
    liveness-tightened bound is reported by ``repro analyze`` instead.)
    """
    func = cfg.func
    if func.is_kernel:
        return []
    slack = func.fru - (push_depth + 1)
    if slack > 0:
        return [warning(
            "CARS404", func.name,
            f"declares fru={func.fru} but worst-case PUSH pressure is "
            f"{push_depth} register(s) (+1 for the saved RFP): "
            f"{slack} stack register(s) over-reserved per activation")]
    return []


def _check_stack_accounting(
    module: Module, push_depths: Dict[str, int]
) -> List[Diagnostic]:
    """CARS401: per-kernel PUSH demand vs the call graph's MaxStackDepth.

    Both sides are the one-iteration walk, under two weights: each
    function's worst PUSH depth, and its declared FRU.
    """
    diags: List[Diagnostic] = []
    graph = build_call_graph(module)
    for kernel in module.kernels():
        limit = max_stack_depth(graph, kernel.name)
        demand = kernel.fru + graph.heaviest_chain(kernel.name, push_depths)
        if demand > limit:
            diags.append(error(
                "CARS401", kernel.name,
                f"worst-case PUSH demand of {demand} register(s) exceeds "
                f"MaxStackDepth={limit}; the register stack would be "
                f"under-provisioned"))
    return diags


# ---------------------------------------------------------------------------
# CARS403 / CARS405: interprocedural diagnostics (recursion bounds and
# statically-guaranteed traps)


def _check_interprocedural(
    module: Module, name: str, stack_regs: Optional[int]
) -> List[Diagnostic]:
    """CARS403 for every reachable unannotated recursive function; CARS405
    (only when a concrete per-warp allocation is given) for call sites
    whose *best-case* entry occupancy already exceeds the register stack —
    every execution reaching such a site is guaranteed to trap.

    Both read the digest-cached module report the harness attaches to
    every run, so a module's interprocedural pass runs once.
    """
    report = ensure_module_analyzed(module, name)
    diags: List[Diagnostic] = []
    flagged: Set[str] = set()
    for kernel in module.kernels():
        info = report.kernels[kernel.name]
        for fname in info.unbounded_functions:
            if fname in flagged:
                continue
            flagged.add(fname)
            diags.append(warning(
                "CARS403", fname,
                "recursive with no declared recursion bound: worst-case "
                "register-stack demand is unbounded (the one-iteration "
                "rule was applied; annotate recursion_bound to bound it)"))
        if stack_regs is None:
            continue
        capacity = max(0, stack_regs - info.kernel_fru)
        for site in info.call_sites:
            if site.min_entry_regs > capacity:
                diags.append(error(
                    "CARS405", site.caller,
                    f"call to {site.callee} needs at least "
                    f"{site.min_entry_regs} stacked register(s) on every "
                    f"execution, but a {stack_regs}-register warp "
                    f"allocation leaves a stack of {capacity} (kernel "
                    f"{kernel.name} keeps {info.kernel_fru}): every such "
                    f"call is guaranteed to trap"))
    return diags


# ---------------------------------------------------------------------------
# Entry points

_FUNCTION_PASSES = (
    _check_uninitialized,
    _check_dead_stores,
    _check_unreachable,
    _check_caller_saved_across_calls,
    _check_callee_saved_writes,
    _check_push_pop_balance,
    _check_ssy_sync,
)


def _lint_cfg(cfg: CFG, push_depth: int) -> List[Diagnostic]:
    """Every per-function pass over *cfg*.  CARS402/404 read
    *push_depth*, the function's worst-case PUSH depth, which
    :func:`lint_module` also hands to CARS401."""
    diags: List[Diagnostic] = []
    for lint_pass in _FUNCTION_PASSES:
        diags.extend(lint_pass(cfg))
    diags.extend(_check_function_metadata(cfg, push_depth))
    diags.extend(_check_fru_slack(cfg, push_depth))
    return diags


def lint_function(func: Function) -> List[Diagnostic]:
    """Run every per-function lint pass over *func*."""
    cfg = build_cfg(func)
    return _lint_cfg(cfg, _max_push_depth(cfg))


def lint_module(
    module: Module,
    name: str = "module",
    stack_regs: Optional[int] = None,
) -> LintReport:
    """Run all per-function and cross-module lint passes over *module*.

    *stack_regs* (a concrete per-warp register allocation) arms the
    CARS405 guaranteed-trap check; without it the rule is vacuous (the
    allocation is a runtime policy choice, not a module property).
    """
    diags: List[Diagnostic] = []
    push_depths: Dict[str, int] = {}
    for func in module.functions.values():
        cfg = build_cfg(func)
        push_depths[func.name] = _max_push_depth(cfg)
        diags.extend(_lint_cfg(cfg, push_depths[func.name]))
    diags.extend(_check_stack_accounting(module, push_depths))
    diags.extend(_check_interprocedural(module, name, stack_regs))
    return LintReport(name=name, diagnostics=diags)


# Reports for the default (no stack_regs) gate, keyed by module content
# digest — shared across every run of byte-identical modules.
_LINT_CACHE: Dict[str, LintReport] = {}
_lint_executions = 0


def lint_executions() -> int:
    """How many times :func:`ensure_module_linted` actually linted
    (cache misses) — observability hook for the caching tests."""
    return _lint_executions


def clear_lint_cache() -> None:
    global _lint_executions
    _LINT_CACHE.clear()
    _lint_executions = 0


def ensure_module_linted(module: Module, name: str = "module") -> LintReport:
    """Lint *module* once per content digest and raise on errors.

    The harness calls this before every simulation so a miscompiled
    workload fails loudly instead of producing silently wrong numbers.
    The cache is keyed by :meth:`Module.content_digest`, so rebuilding
    the same workload (separate :class:`Module` instances, identical
    bytes) never re-lints.
    """
    global _lint_executions
    digest = module.content_digest()
    report = _LINT_CACHE.get(digest)
    if report is None:
        report = lint_module(module, name)
        _LINT_CACHE[digest] = report
        _lint_executions += 1
    if report.errors():
        raise LintError(report)
    return report
