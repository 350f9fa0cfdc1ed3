"""Algebraic simplification and constant folding.

Runs after task-mapping lowering: the index arithmetic produced by lowering
(``(w // 8) % 8 * 1 + 0`` and friends) folds down to the clean expressions a
human would write, which keeps generated CUDA readable and speeds up the
interpreter.  Rules are standard and conservative:

* constant folding of all scalar operators;
* ``x + 0``, ``x - 0``, ``x * 1``, ``x * 0``, ``x // 1``, ``x % 1``, ``0 // x``;
* ``(x % m)`` dropped when ``0 <= x < m`` is provable from loop bounds;
* ``(x // d)`` dropped (to 0) when ``0 <= x < d`` is provable;
* ``if`` with constant condition; selects with constant condition;
* ``&&``/``||`` with constant operands.

Ranges come from the :class:`~repro.ir.intervals.IntervalEnv` the
analyzer uses too: loop variables, launch dimensions and spatial
de-linearization patterns (``expr % m`` lies in ``[0, m - 1]``).

Lowering shares index sub-trees, so one pass rewrites, and ranges, each
distinct expression object once (:class:`~repro.ir.functor.MemoRewriter`).
Both memos are dropped when a variable whose range or constant value an
earlier lookup read is bound to a different one.
"""
from __future__ import annotations

from typing import Optional

from ..expr import (Expr, Var, Constant, BinaryExpr, UnaryExpr, IfThenElse,
                    PY_BINARY, PY_UNARY)
from ..functor import MemoRewriter, collect_stmts
from ..intervals import Interval, IntervalEnv
from ..stmt import AssignStmt, DeclareStmt, ForStmt, IfStmt, SeqStmt

__all__ = ['simplify', 'const_int']

def const_int(e: Expr) -> Optional[int]:
    """Return the integer value of a constant expression, else ``None``."""
    if isinstance(e, Constant) and not e.dtype.is_float and e.dtype.name != 'bool':
        return int(e.value)
    return None


def _is_const(e: Expr, value) -> bool:
    return isinstance(e, Constant) and e.value == value


class Simplifier(MemoRewriter):
    # every rule returns a node no rule rewrites further under the same facts
    idempotent = True

    def __init__(self, thread_dims: Optional[tuple[int, int, int]] = None,
                 block_dims: Optional[tuple[int, int, int]] = None,
                 reassigned_vars: Optional[set[int]] = None):
        super().__init__()
        self.env = IntervalEnv(thread_dims, block_dims, reassigned_vars or set())
        self._const_vars: dict[int, Constant] = {}  # constant, never-reassigned declarations
        self._read: set[int] = set()    # var ids rewritten since the last forget

    def forget(self):
        super().forget()
        self._read.clear()

    def _bind_const(self, var: Var, value: Constant):
        if var._id in self._read and self._const_vars.get(var._id) is not value:
            self.forget()
        self._const_vars[var._id] = value

    # ---- expressions --------------------------------------------------------

    def visit_BinaryExpr(self, e: BinaryExpr):
        a = self.visit(e.a)
        b = self.visit(e.b)
        ca, cb = isinstance(a, Constant), isinstance(b, Constant)
        if ca and cb:
            result = PY_BINARY[e.op](a.value, b.value)
            if e.op in ('<', '<=', '==', '!=', '&&', '||'):
                return Constant(bool(result), 'bool')
            if e.op == '/':
                return Constant(result, 'float32' if isinstance(result, float) else a.dtype)
            return Constant(result, a.dtype if a.dtype.nbytes >= b.dtype.nbytes else b.dtype)
        if e.op == '+':
            if _is_const(a, 0):
                return b
            if _is_const(b, 0):
                return a
        elif e.op == '-':
            if _is_const(b, 0):
                return a
        elif e.op == '*':
            if _is_const(a, 1):
                return b
            if _is_const(b, 1):
                return a
            if _is_const(a, 0) or _is_const(b, 0):
                return Constant(0, 'int32' if not (ca and a.dtype.is_float) else a.dtype)
        elif e.op == '//':
            if _is_const(b, 1):
                return a
            d = const_int(b)
            if d is not None and d > 0 and self.env.interval_of(a).within(0, d - 1):
                return Constant(0, 'int32')
        elif e.op == '%':
            if _is_const(b, 1):
                return Constant(0, 'int32')
            m = const_int(b)
            if m is not None and m > 0 and self.env.interval_of(a).within(0, m - 1):
                return a
        elif e.op == '&&':
            if _is_const(a, True):
                return b
            if _is_const(b, True):
                return a
            if _is_const(a, False) or _is_const(b, False):
                return Constant(False, 'bool')
        elif e.op == '||':
            if _is_const(a, False):
                return b
            if _is_const(b, False):
                return a
            if _is_const(a, True) or _is_const(b, True):
                return Constant(True, 'bool')
        elif e.op in ('<', '<='):
            # prove bounds comparisons from ranges (drops redundant predicates)
            ia, ib = self.env.interval_of(a), self.env.interval_of(b)
            if ia.known and ib.known:
                strict = e.op == '<'
                if ia.hi < ib.lo or (not strict and ia.hi == ib.lo):
                    return Constant(True, 'bool')
                if ib.hi < ia.lo or (strict and ib.hi == ia.lo):
                    return Constant(False, 'bool')
        if a is e.a and b is e.b:
            return e
        return BinaryExpr(e.op, a, b)

    def visit_UnaryExpr(self, e: UnaryExpr):
        a = self.visit(e.a)
        if isinstance(a, Constant):
            try:
                result = PY_UNARY[e.op](a.value)
            except (ValueError, OverflowError):
                result = None
            if result is not None:
                if e.op == '!':
                    return Constant(bool(result), 'bool')
                dtype = a.dtype if e.op in ('-', 'abs') else 'float32'
                return Constant(result, dtype)
        return e if a is e.a else UnaryExpr(e.op, a)

    def visit_IfThenElse(self, e: IfThenElse):
        cond = self.visit(e.cond)
        if isinstance(cond, Constant):
            return self.visit(e.then_expr if cond.value else e.else_expr)
        t, f = self.visit(e.then_expr), self.visit(e.else_expr)
        if cond is e.cond and t is e.then_expr and f is e.else_expr:
            return e
        return IfThenElse(cond, t, f)

    def visit_Var(self, e: Var):
        self._read.add(e._id)
        return self._const_vars.get(e._id, e)

    def visit_ThreadIndex(self, e):
        # an index over a launch dimension of 1 is always 0
        return Constant(0, 'int32') if self.env.interval_of(e).is_point else e

    visit_BlockIndex = visit_ThreadIndex

    # ---- statements -----------------------------------------------------------

    def visit_DeclareStmt(self, s):
        init = self.visit(s.init) if s.init is not None else None
        if (init is not None and isinstance(init, Constant)
                and s.var._id not in self.env.reassigned):
            self._bind_const(s.var, init)
        if init is s.init:
            return s
        return DeclareStmt(s.var, init)

    def visit_ForStmt(self, s: ForStmt):
        extent = self.visit(s.extent)
        n = const_int(extent)
        if n is not None:
            if n == 0:
                return SeqStmt(())
            if self.env.bind(s.loop_var, Interval(0, n - 1)):
                self.forget()
        body = self.visit(s.body)
        if n == 1:
            from ..tools import substitute
            return self.visit(substitute(body, {s.loop_var: Constant(0, 'int32')}))
        if extent is s.extent and body is s.body:
            return s
        return ForStmt(s.loop_var, extent, body, s.unroll)

    def visit_IfStmt(self, s: IfStmt):
        cond = self.visit(s.cond)
        if isinstance(cond, Constant):
            if cond.value:
                return self.visit(s.then_body)
            if s.else_body is not None:
                return self.visit(s.else_body)
            return SeqStmt(())
        then_body = self.visit(s.then_body)
        else_body = self.visit(s.else_body) if s.else_body is not None else None
        if cond is s.cond and then_body is s.then_body and else_body is s.else_body:
            return s
        return IfStmt(cond, then_body, else_body)

    def visit_SeqStmt(self, s: SeqStmt):
        stmts = []
        changed = False
        for st in s.stmts:
            new = self.visit(st)
            changed = changed or new is not st
            if isinstance(new, SeqStmt):
                stmts.extend(new.stmts)
                changed = True
            else:
                stmts.append(new)
        return SeqStmt(tuple(stmts)) if changed else s


def simplify(node):
    """Simplify a statement, expression, or function (fixed single pass).

    When given a :class:`~repro.ir.func.Function`, the known launch dimensions
    bound ``threadIdx``/``blockIdx``, which lets the pass drop the redundant
    ``%``/``//`` that task-mapping lowering produces.
    """
    from ..func import Function
    if isinstance(node, Function):
        reassigned = {s.var._id for s in collect_stmts(node.body, AssignStmt)}
        simplifier = Simplifier(thread_dims=node.block_dim, block_dims=node.grid_dim,
                                reassigned_vars=reassigned)
        body = simplifier.visit(node.body)
        return Function(node.name, node.params, body, node.grid_dim, node.block_dim, node.attrs)
    return Simplifier().visit(node)
