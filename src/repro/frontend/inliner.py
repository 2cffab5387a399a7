"""AST-level full inliner — the LTO baseline of Fig 16.

``inline_program`` clones every inlinable device-function body into its call
sites, transitively, producing a program whose kernels make no runtime calls
(matching the paper's fully-inlined/LTO configuration).  Functions are *not*
inlinable when they are recursive (directly or through a cycle) or when they
are targets of an indirect call (their address is taken); such calls remain,
exactly as a real link-time optimizer would leave them.

Inlining requires the callee to be in "single-exit" form: any Return must be
the final statement of the body (the lowering produced by
:mod:`repro.workloads` and the examples satisfies this).  A callee with an
early return is treated as non-inlinable.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Set, Tuple

from ..callgraph.graph import CallGraph
from .ast import (
    BinOp,
    CallExpr,
    Cmp,
    Const,
    DslError,
    Expr,
    ExprStmt,
    FloatOp,
    For,
    FunctionDef,
    If,
    IndirectCallExpr,
    Let,
    LoadGlobal,
    LoadShared,
    Mad,
    Mufu,
    ProgramDef,
    Return,
    Select,
    Stmt,
    StoreGlobal,
    StoreLocal,
    StoreShared,
    Var,
    While,
)


def _callees_of(body) -> Set[str]:
    """All direct-call targets appearing anywhere in *body*."""
    found: Set[str] = set()

    def walk_expr(node: Expr) -> None:
        if isinstance(node, CallExpr):
            found.add(node.func)
            for a in node.args:
                walk_expr(a)
        elif isinstance(node, IndirectCallExpr):
            walk_expr(node.selector)
            for a in node.args:
                walk_expr(a)
        elif isinstance(node, (BinOp, FloatOp)):
            walk_expr(node.left)
            walk_expr(node.right)
        elif isinstance(node, Cmp):
            walk_expr(node.left)
            walk_expr(node.right)
        elif isinstance(node, Mad):
            walk_expr(node.a)
            walk_expr(node.b)
            walk_expr(node.c)
        elif isinstance(node, Mufu):
            walk_expr(node.arg)
        elif isinstance(node, Select):
            walk_expr(node.cond)
            walk_expr(node.if_true)
            walk_expr(node.if_false)
        elif isinstance(node, (LoadGlobal, LoadShared)):
            walk_expr(node.addr)

    def walk_stmt(stmt: Stmt) -> None:
        if isinstance(stmt, Let):
            walk_expr(stmt.value)
        elif isinstance(stmt, (StoreGlobal, StoreShared)):
            walk_expr(stmt.addr)
            walk_expr(stmt.value)
        elif isinstance(stmt, StoreLocal):
            walk_expr(stmt.value)
        elif isinstance(stmt, ExprStmt):
            walk_expr(stmt.expr)
        elif isinstance(stmt, Return):
            if stmt.value is not None:
                walk_expr(stmt.value)
        elif isinstance(stmt, If):
            walk_expr(stmt.cond)
            for s in stmt.then_body:
                walk_stmt(s)
            for s in stmt.else_body:
                walk_stmt(s)
        elif isinstance(stmt, While):
            walk_expr(stmt.cond)
            for s in stmt.body:
                walk_stmt(s)
        elif isinstance(stmt, For):
            walk_expr(stmt.start)
            walk_expr(stmt.stop)
            walk_expr(stmt.step)
            for s in stmt.body:
                walk_stmt(s)

    for stmt in body:
        walk_stmt(stmt)
    return found


def _has_early_return(body) -> bool:
    """True when a Return appears anywhere but as the final statement."""

    def nested_return(stmts) -> bool:
        for stmt in stmts:
            if isinstance(stmt, Return):
                return True
            if isinstance(stmt, If):
                if nested_return(stmt.then_body) or nested_return(stmt.else_body):
                    return True
            if isinstance(stmt, While) and nested_return(stmt.body):
                return True
            if isinstance(stmt, For) and nested_return(stmt.body):
                return True
        return False

    if not body:
        return False
    *head, tail = body
    if nested_return(head):
        return True
    if isinstance(tail, (If, While, For)):
        return nested_return([tail])
    return False


def _indirect_targets(program: ProgramDef) -> Set[str]:
    taken: Set[str] = set()

    def walk_expr(node: Expr) -> None:
        if isinstance(node, IndirectCallExpr):
            taken.update(node.candidates)
        for child in _expr_children(node):
            walk_expr(child)

    for func in program.functions:
        for stmt in _all_stmts(func.body):
            for expr in _stmt_exprs(stmt):
                walk_expr(expr)
    return taken


def _expr_children(node: Expr) -> Tuple[Expr, ...]:
    if isinstance(node, (BinOp, FloatOp, Cmp)):
        return (node.left, node.right)
    if isinstance(node, Mad):
        return (node.a, node.b, node.c)
    if isinstance(node, Mufu):
        return (node.arg,)
    if isinstance(node, Select):
        return (node.cond, node.if_true, node.if_false)
    if isinstance(node, (LoadGlobal, LoadShared)):
        return (node.addr,)
    if isinstance(node, CallExpr):
        return tuple(node.args)
    if isinstance(node, IndirectCallExpr):
        return (node.selector,) + tuple(node.args)
    return ()


def _all_stmts(body):
    for stmt in body:
        yield stmt
        if isinstance(stmt, If):
            yield from _all_stmts(stmt.then_body)
            yield from _all_stmts(stmt.else_body)
        elif isinstance(stmt, (While, For)):
            yield from _all_stmts(stmt.body)


def _stmt_exprs(stmt: Stmt) -> Tuple[Expr, ...]:
    if isinstance(stmt, Let):
        return (stmt.value,)
    if isinstance(stmt, (StoreGlobal, StoreShared)):
        return (stmt.addr, stmt.value)
    if isinstance(stmt, StoreLocal):
        return (stmt.value,)
    if isinstance(stmt, ExprStmt):
        return (stmt.expr,)
    if isinstance(stmt, Return) and stmt.value is not None:
        return (stmt.value,)
    if isinstance(stmt, If):
        return (stmt.cond,)
    if isinstance(stmt, While):
        return (stmt.cond,)
    if isinstance(stmt, For):
        return (stmt.start, stmt.stop, stmt.step)
    return ()


def _recursive_functions(program: ProgramDef) -> FrozenSet[str]:
    """Functions on a call-graph cycle (directly or mutually recursive)."""
    edges = {f.name: _callees_of(f.body) for f in program.functions}
    return CallGraph(edges=edges).cycle_nodes()


class _Inliner:
    def __init__(self, program: ProgramDef) -> None:
        self.program = program
        self.counter = itertools.count()
        recursive = _recursive_functions(program)
        indirect = _indirect_targets(program)
        self.not_inlinable = recursive | indirect | {
            f.name for f in program.functions if _has_early_return(f.body)
        }

    def can_inline(self, name: str) -> bool:
        return name not in self.not_inlinable

    # The core transform: rewrite a statement list so that every CallExpr to
    # an inlinable function is replaced by the callee's (renamed) body.
    def rewrite_body(self, body) -> List[Stmt]:
        out: List[Stmt] = []
        for stmt in body:
            out.extend(self.rewrite_stmt(stmt))
        return out

    def rewrite_stmt(self, stmt: Stmt) -> List[Stmt]:
        pre: List[Stmt] = []
        if isinstance(stmt, Let):
            value = self.rewrite_expr(stmt.value, pre)
            return pre + [Let(stmt.name, value)]
        if isinstance(stmt, StoreGlobal):
            addr = self.rewrite_expr(stmt.addr, pre)
            value = self.rewrite_expr(stmt.value, pre)
            return pre + [StoreGlobal(addr, value, stmt.offset)]
        if isinstance(stmt, StoreShared):
            addr = self.rewrite_expr(stmt.addr, pre)
            value = self.rewrite_expr(stmt.value, pre)
            return pre + [StoreShared(addr, value, stmt.offset)]
        if isinstance(stmt, StoreLocal):
            value = self.rewrite_expr(stmt.value, pre)
            return pre + [StoreLocal(stmt.offset, value)]
        if isinstance(stmt, ExprStmt):
            expr = self.rewrite_expr(stmt.expr, pre)
            if isinstance(expr, Var) and not isinstance(stmt.expr, Var):
                return pre  # the call became inlined statements
            return pre + [ExprStmt(expr)]
        if isinstance(stmt, Return):
            if stmt.value is None:
                return [stmt]
            value = self.rewrite_expr(stmt.value, pre)
            return pre + [Return(value)]
        if isinstance(stmt, If):
            cond = self.rewrite_cmp(stmt.cond, pre)
            then_body = tuple(self.rewrite_body(stmt.then_body))
            else_body = tuple(self.rewrite_body(stmt.else_body))
            return pre + [If(cond, then_body, else_body)]
        if isinstance(stmt, While):
            # Calls inside loop conditions would need per-iteration
            # re-evaluation; hoisting is only valid for call-free conditions.
            cond = self.rewrite_cmp(stmt.cond, pre)
            if pre:
                raise DslError("cannot inline a call inside a while-condition")
            return [While(cond, tuple(self.rewrite_body(stmt.body)))]
        if isinstance(stmt, For):
            start = self.rewrite_expr(stmt.start, pre)
            stop = self.rewrite_expr(stmt.stop, pre)
            step = self.rewrite_expr(stmt.step, pre)
            return pre + [
                For(stmt.var, start, stop, step, tuple(self.rewrite_body(stmt.body)))
            ]
        return [stmt]

    def rewrite_cmp(self, cond: Cmp, pre: List[Stmt]) -> Cmp:
        return Cmp(
            cond.op,
            self.rewrite_expr(cond.left, pre),
            self.rewrite_expr(cond.right, pre),
        )

    def rewrite_expr(self, node: Expr, pre: List[Stmt]) -> Expr:
        if isinstance(node, CallExpr):
            args = tuple(self.rewrite_expr(a, pre) for a in node.args)
            if not self.can_inline(node.func):
                return CallExpr(node.func, args)
            return self.inline_call(node.func, args, pre)
        if isinstance(node, IndirectCallExpr):
            return IndirectCallExpr(
                node.candidates,
                self.rewrite_expr(node.selector, pre),
                tuple(self.rewrite_expr(a, pre) for a in node.args),
            )
        if isinstance(node, BinOp):
            return BinOp(
                node.op,
                self.rewrite_expr(node.left, pre),
                self.rewrite_expr(node.right, pre),
            )
        if isinstance(node, FloatOp):
            return FloatOp(
                node.op,
                self.rewrite_expr(node.left, pre),
                self.rewrite_expr(node.right, pre),
            )
        if isinstance(node, Cmp):
            return self.rewrite_cmp(node, pre)
        if isinstance(node, Mad):
            return Mad(
                self.rewrite_expr(node.a, pre),
                self.rewrite_expr(node.b, pre),
                self.rewrite_expr(node.c, pre),
                node.float_flavour,
            )
        if isinstance(node, Mufu):
            return Mufu(node.fn, self.rewrite_expr(node.arg, pre))
        if isinstance(node, Select):
            return Select(
                self.rewrite_cmp(node.cond, pre),
                self.rewrite_expr(node.if_true, pre),
                self.rewrite_expr(node.if_false, pre),
            )
        if isinstance(node, LoadGlobal):
            return LoadGlobal(self.rewrite_expr(node.addr, pre), node.offset)
        if isinstance(node, LoadShared):
            return LoadShared(self.rewrite_expr(node.addr, pre), node.offset)
        return node

    def inline_call(self, name: str, args: Tuple[Expr, ...], pre: List[Stmt]) -> Expr:
        callee = self.program.get(name)
        instance = next(self.counter)
        prefix = f"__inl{instance}_{name}_"

        rename: Dict[str, str] = {p: prefix + p for p in callee.params}
        for i, param in enumerate(callee.params):
            pre.append(Let(rename[param], args[i]))

        result_var = prefix + "__ret"
        body = self.rewrite_body(callee.body)  # inline transitively first
        renamed = [_rename_stmt(s, rename, prefix, result_var) for s in body]
        pre.extend(renamed)
        return Var(result_var)


def _rename_expr(node: Expr, rename: Dict[str, str], prefix: str) -> Expr:
    if isinstance(node, Var):
        return Var(rename.setdefault(node.name, prefix + node.name))
    if isinstance(node, BinOp):
        return BinOp(
            node.op,
            _rename_expr(node.left, rename, prefix),
            _rename_expr(node.right, rename, prefix),
        )
    if isinstance(node, FloatOp):
        return FloatOp(
            node.op,
            _rename_expr(node.left, rename, prefix),
            _rename_expr(node.right, rename, prefix),
        )
    if isinstance(node, Cmp):
        return Cmp(
            node.op,
            _rename_expr(node.left, rename, prefix),
            _rename_expr(node.right, rename, prefix),
        )
    if isinstance(node, Mad):
        return Mad(
            _rename_expr(node.a, rename, prefix),
            _rename_expr(node.b, rename, prefix),
            _rename_expr(node.c, rename, prefix),
            node.float_flavour,
        )
    if isinstance(node, Mufu):
        return Mufu(node.fn, _rename_expr(node.arg, rename, prefix))
    if isinstance(node, Select):
        return Select(
            _rename_expr(node.cond, rename, prefix),
            _rename_expr(node.if_true, rename, prefix),
            _rename_expr(node.if_false, rename, prefix),
        )
    if isinstance(node, LoadGlobal):
        return LoadGlobal(_rename_expr(node.addr, rename, prefix), node.offset)
    if isinstance(node, LoadShared):
        return LoadShared(_rename_expr(node.addr, rename, prefix), node.offset)
    if isinstance(node, CallExpr):
        return CallExpr(
            node.func, tuple(_rename_expr(a, rename, prefix) for a in node.args)
        )
    if isinstance(node, IndirectCallExpr):
        return IndirectCallExpr(
            node.candidates,
            _rename_expr(node.selector, rename, prefix),
            tuple(_rename_expr(a, rename, prefix) for a in node.args),
        )
    return node


def _rename_stmt(
    stmt: Stmt, rename: Dict[str, str], prefix: str, result_var: str
) -> Stmt:
    if isinstance(stmt, Let):
        value = _rename_expr(stmt.value, rename, prefix)
        return Let(rename.setdefault(stmt.name, prefix + stmt.name), value)
    if isinstance(stmt, StoreGlobal):
        return StoreGlobal(
            _rename_expr(stmt.addr, rename, prefix),
            _rename_expr(stmt.value, rename, prefix),
            stmt.offset,
        )
    if isinstance(stmt, StoreShared):
        return StoreShared(
            _rename_expr(stmt.addr, rename, prefix),
            _rename_expr(stmt.value, rename, prefix),
            stmt.offset,
        )
    if isinstance(stmt, StoreLocal):
        return StoreLocal(stmt.offset, _rename_expr(stmt.value, rename, prefix))
    if isinstance(stmt, ExprStmt):
        return ExprStmt(_rename_expr(stmt.expr, rename, prefix))
    if isinstance(stmt, Return):
        value = (
            _rename_expr(stmt.value, rename, prefix)
            if stmt.value is not None
            else Const(0)
        )
        return Let(result_var, value)
    if isinstance(stmt, If):
        return If(
            _rename_expr(stmt.cond, rename, prefix),
            tuple(_rename_stmt(s, rename, prefix, result_var) for s in stmt.then_body),
            tuple(_rename_stmt(s, rename, prefix, result_var) for s in stmt.else_body),
        )
    if isinstance(stmt, While):
        return While(
            _rename_expr(stmt.cond, rename, prefix),
            tuple(_rename_stmt(s, rename, prefix, result_var) for s in stmt.body),
        )
    if isinstance(stmt, For):
        return For(
            rename.setdefault(stmt.var, prefix + stmt.var),
            _rename_expr(stmt.start, rename, prefix),
            _rename_expr(stmt.stop, rename, prefix),
            _rename_expr(stmt.step, rename, prefix),
            tuple(_rename_stmt(s, rename, prefix, result_var) for s in stmt.body),
        )
    return stmt


def inline_program(program: ProgramDef) -> ProgramDef:
    """Fully inline a program (the LTO configuration of Fig 16).

    Kernels keep their names; device functions that remain call targets
    (recursive / address-taken / early-return) are retained, all others are
    dropped from the output program.
    """
    inliner = _Inliner(program)
    out = ProgramDef()
    still_needed: Set[str] = set()
    new_kernels: List[FunctionDef] = []
    for func in program.functions:
        if not func.is_kernel and func.name not in inliner.not_inlinable:
            continue
        body = inliner.rewrite_body(func.body)
        new_func = FunctionDef(
            name=func.name,
            params=list(func.params),
            body=body,
            is_kernel=func.is_kernel,
            shared_mem_bytes=func.shared_mem_bytes,
            reg_pressure=func.reg_pressure,
            recursion_bound=func.recursion_bound,
        )
        new_kernels.append(new_func)
        still_needed |= _callees_of(body)
    # Retain transitively-needed non-inlinable functions.
    for func in new_kernels:
        out.add(func)
    frontier = set(still_needed) - {f.name for f in out.functions}
    while frontier:
        name = frontier.pop()
        func = program.get(name)
        body = inliner.rewrite_body(func.body)
        out.add(
            FunctionDef(
                name=func.name,
                params=list(func.params),
                body=body,
                is_kernel=False,
                reg_pressure=func.reg_pressure,
                recursion_bound=func.recursion_bound,
            )
        )
        frontier |= _callees_of(body) - {f.name for f in out.functions}
    return out
