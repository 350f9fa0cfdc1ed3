"""Bounds checking: every buffer access stays inside its declared shape.

The checker runs on the *lowered* function (``lower_task_mappings`` +
``simplify`` — the exact IR codegen prints), walks every statement with an
:class:`IntervalEnv` tracking symbolic ranges for loop variables, thread /
block indices and scalar declares, and learns *guard facts* from ``IfStmt``
conditions and predicated ``IfThenElse`` loads: inside ``if gi < m`` the
structural key of ``gi`` is capped at ``m - 1``, which is how the
templates' predicated tails are proven safe.

Index expressions that read memory themselves (e.g. an embedding gather
``table[ids[s], h]``) are data-dependent: the analyzer reports a non-gating
``note`` naming the buffer and dimension instead of a false positive.
"""
from __future__ import annotations

from typing import Optional

from ..ir.expr import (BinaryExpr, BlockIndex, Call, Cast, Constant, Expr,
                       IfThenElse, TensorElement, ThreadIndex, UnaryExpr, Var)
from ..ir.func import Function
from ..ir.functor import collect_stmts, contains
from ..ir.stmt import (AssignStmt, BarrierStmt, BufferStoreStmt, DeclareStmt,
                       EvaluateStmt, ForStmt, ForTaskStmt, IfStmt, LetStmt,
                       SeqStmt, Stmt)
from ..ir.types import DataType, TensorType
from .intervals import Interval, expr_key
from .report import AnalysisReport, Finding


def _const_int(e: Expr) -> Optional[int]:
    if isinstance(e, Constant) and isinstance(e.value, (int, bool)):
        return int(e.value)
    return None


def _dim_extent(dims, axis: str) -> int:
    return dims['xyz'.index(axis)]


class IntervalEnv:
    """Symbolic ranges for variables plus guard facts on expression keys.

    An env and every env derived from it share one :func:`expr_key` memo,
    so a walk keys each distinct expression node once.
    """

    def __init__(self, thread_dims, block_dims, reassigned=frozenset(),
                 keys: Optional[dict] = None):
        self.thread_dims = tuple(thread_dims)
        self.block_dims = tuple(block_dims)
        self.reassigned = reassigned
        self.keys = {} if keys is None else keys   # the expr_key memo
        self.vars: dict = {}      # var _id -> Interval
        self.facts: dict = {}     # expr_key -> Interval

    def key(self, e: Expr):
        return expr_key(e, self.keys)

    def child(self) -> 'IntervalEnv':
        env = IntervalEnv(self.thread_dims, self.block_dims, self.reassigned,
                          self.keys)
        env.vars = dict(self.vars)
        env.facts = dict(self.facts)
        return env

    def bind(self, var: Var, interval: Interval):
        self.vars[var._id] = interval

    # -- evaluation -------------------------------------------------------
    def interval_of(self, e: Expr) -> Interval:
        iv = self._raw(e)
        if self.facts:
            fact = self.facts.get(self.key(e))
            if fact is not None:
                iv = iv.intersect(fact)
        return iv

    def _raw(self, e: Expr) -> Interval:
        if isinstance(e, Constant):
            if isinstance(e.value, bool):
                return Interval(0, 1)
            if isinstance(e.value, int):
                return Interval.point(e.value)
            return Interval.unknown()
        if isinstance(e, Var):
            return self.vars.get(e._id, Interval.unknown())
        if isinstance(e, ThreadIndex):
            return Interval(0, _dim_extent(self.thread_dims, e.dim) - 1)
        if isinstance(e, BlockIndex):
            return Interval(0, _dim_extent(self.block_dims, e.dim) - 1)
        if isinstance(e, BinaryExpr):
            op = e.op
            if op in ('<', '<=', '==', '!=', '&&', '||'):
                return Interval(0, 1)
            a, b = self.interval_of(e.a), self.interval_of(e.b)
            if op == '+':
                return a + b
            if op == '-':
                return a - b
            if op == '*':
                return a * b
            if op in ('//', '/'):
                return a // b
            if op == '%':
                return a % b
            if op == 'min':
                return a.min_with(b)
            if op == 'max':
                return a.max_with(b)
            return Interval.unknown()
        if isinstance(e, UnaryExpr):
            if e.op == '-':
                return -self.interval_of(e.a)
            if e.op == '!':
                return Interval(0, 1)
            return Interval.unknown()
        if isinstance(e, Cast):
            if isinstance(e.dtype, DataType) and e.dtype.is_integer:
                return self.interval_of(e.expr)
            return Interval.unknown()
        if isinstance(e, IfThenElse):
            then = self.assume(e.cond).interval_of(e.then_expr)
            other = self.assume(e.cond, negate=True).interval_of(e.else_expr)
            return then.union(other)
        return Interval.unknown()

    # -- guard facts ------------------------------------------------------
    def assume(self, cond: Expr, negate: bool = False) -> 'IntervalEnv':
        env = self.child()
        env._apply(cond, negate)
        return env

    def _apply(self, cond: Expr, negate: bool):
        if isinstance(cond, UnaryExpr) and cond.op == '!':
            self._apply(cond.a, not negate)
            return
        if not isinstance(cond, BinaryExpr):
            return
        op = cond.op
        if op == '&&' and not negate:
            self._apply(cond.a, False)
            self._apply(cond.b, False)
            return
        if op == '||' and negate:
            self._apply(cond.a, True)
            self._apply(cond.b, True)
            return
        if op in ('<', '<='):
            if negate:
                # !(a < b)  ==  b <= a;   !(a <= b)  ==  b < a
                a, b = cond.b, cond.a
                op = '<=' if op == '<' else '<'
            else:
                a, b = cond.a, cond.b
            delta = 1 if op == '<' else 0
            ia, ib = self.interval_of(a), self.interval_of(b)
            if ib.hi is not None:
                self._cap(a, hi=ib.hi - delta)
            if ia.lo is not None:
                self._cap(b, lo=ia.lo + delta)
            return
        if (op == '==' and not negate) or (op == '!=' and negate):
            ia, ib = self.interval_of(cond.a), self.interval_of(cond.b)
            self._cap(cond.a, lo=ib.lo, hi=ib.hi)
            self._cap(cond.b, lo=ia.lo, hi=ia.hi)

    def _cap(self, e: Expr, lo: Optional[int] = None, hi: Optional[int] = None):
        key = self.key(e)
        cur = self.facts.get(key, Interval.unknown())
        self.facts[key] = cur.intersect(Interval(lo, hi))
        # a capped Var also tightens its binding-independent fact lookups
        if isinstance(e, Var) and e._id in self.vars:
            self.vars[e._id] = self.vars[e._id].intersect(Interval(lo, hi))


class _BoundsChecker:
    def __init__(self, func: Function, report: AnalysisReport):
        self.func = func
        self.report = report
        self.seen = set()    # (site id, dim, verdict kind) dedup
        self._loads: dict = {}    # contains() memo: TensorElement below?

    def run(self):
        reassigned = frozenset(
            s.var._id for s in collect_stmts(self.func.body, AssignStmt))
        env = IntervalEnv(self.func.block_dim, self.func.grid_dim, reassigned)
        self._stmt(self.func.body, env)

    # -- statements -------------------------------------------------------
    def _stmt(self, s: Stmt, env: IntervalEnv):
        if isinstance(s, SeqStmt):
            for sub in s.stmts:
                self._stmt(sub, env)
        elif isinstance(s, DeclareStmt):
            if s.init is not None:
                self._expr(s.init, env)
                if (isinstance(s.var.type, DataType)
                        and s.var._id not in env.reassigned):
                    env.bind(s.var, env.interval_of(s.init))
        elif isinstance(s, BufferStoreStmt):
            for idx in s.indices:
                self._expr(idx, env)
            self._access(s.buf, s.indices, env, kind='store')
            self._expr(s.value, env)
        elif isinstance(s, AssignStmt):
            self._expr(s.value, env)
        elif isinstance(s, LetStmt):
            self._expr(s.value, env)
            env.bind(s.var, env.interval_of(s.value))
            self._stmt(s.body, env)
        elif isinstance(s, ForStmt):
            self._expr(s.extent, env)
            extent = env.interval_of(s.extent)
            hi = None if extent.hi is None else extent.hi - 1
            env.bind(s.loop_var, Interval(0, hi))
            self._stmt(s.body, env)
        elif isinstance(s, ForTaskStmt):
            # tolerated for direct use on unlowered functions: each loop var
            # ranges over its task dimension
            for var, dim in zip(s.loop_vars, s.mapping.task_shape):
                env.bind(var, Interval(0, dim - 1))
            self._expr(s.worker, env)
            self._stmt(s.body, env)
        elif isinstance(s, IfStmt):
            self._expr(s.cond, env)
            self._stmt(s.then_body, env.assume(s.cond))
            if s.else_body is not None:
                self._stmt(s.else_body, env.assume(s.cond, negate=True))
        elif isinstance(s, EvaluateStmt):
            self._expr(s.expr, env)
        elif isinstance(s, BarrierStmt):
            pass
        else:
            raise TypeError(f'bounds: unhandled stmt {type(s).__name__}')

    # -- expressions ------------------------------------------------------
    def _expr(self, e: Expr, env: IntervalEnv):
        if not contains(e, TensorElement, self._loads):
            return      # no access below: nothing to check
        if isinstance(e, TensorElement):
            if isinstance(e.base, Var) and isinstance(e.base.type, TensorType):
                self._access(e.base, e.indices, env, kind='load')
            else:
                self._expr(e.base, env)
            for idx in e.indices:
                self._expr(idx, env)
        elif isinstance(e, IfThenElse):
            self._expr(e.cond, env)
            self._expr(e.then_expr, env.assume(e.cond))
            self._expr(e.else_expr, env.assume(e.cond, negate=True))
        elif isinstance(e, BinaryExpr):
            self._expr(e.a, env)
            if e.op == '&&':
                # the right conjunct is only evaluated when the left holds
                self._expr(e.b, env.assume(e.a))
            elif e.op == '||':
                self._expr(e.b, env.assume(e.a, negate=True))
            else:
                self._expr(e.b, env)
        elif isinstance(e, UnaryExpr):
            self._expr(e.a, env)
        elif isinstance(e, Cast):
            self._expr(e.expr, env)
        elif isinstance(e, Call):
            for arg in e.args:
                self._expr(arg, env)
        # leaves: Var / Constant / ThreadIndex / BlockIndex

    # -- the actual check -------------------------------------------------
    def _access(self, buf: Var, indices, env: IntervalEnv, kind: str):
        ttype = buf.type
        if not isinstance(ttype, TensorType):
            return
        for dim, (idx, extent) in enumerate(zip(indices, ttype.shape)):
            site = (id(idx), dim)
            if contains(idx, TensorElement, self._loads):
                if ('note', site) not in self.seen:
                    self.seen.add(('note', site))
                    self.report.add(Finding(
                        check='bounds', severity='note',
                        kernel=self.func.name, buffer=buf.name,
                        message=(f'{kind} index {dim} of {buf.name!r} is '
                                 f'data-dependent (reads memory); range not '
                                 f'statically provable'),
                        detail=f'shape[{dim}]={extent}'))
                continue
            iv = env.interval_of(idx)
            if iv.within(0, extent - 1):
                continue
            if ('error', site) in self.seen:
                continue
            self.seen.add(('error', site))
            if iv.known:
                msg = (f'{kind} index {dim} of {buf.name!r} can reach '
                       f'{iv}, outside [0, {extent})')
            else:
                msg = (f'cannot prove {kind} index {dim} of {buf.name!r} '
                       f'stays inside [0, {extent}); derived range {iv}')
            self.report.add(Finding(
                check='bounds', severity='error', kernel=self.func.name,
                buffer=buf.name, message=msg,
                detail=f'shape[{dim}]={extent}'))


def check_bounds(func: Function,
                 report: Optional[AnalysisReport] = None) -> AnalysisReport:
    """Check every buffer access of a *lowered* function against its shape."""
    if report is None:
        report = AnalysisReport(kernels=[func.name])
    _BoundsChecker(func, report).run()
    return report
