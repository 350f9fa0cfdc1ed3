"""Bounds checking: every buffer access stays inside its declared shape.

The checker runs on the *lowered* function (:func:`repro.ir.passes.lower`,
the exact IR codegen prints), walks every statement with an
:class:`~repro.ir.intervals.IntervalEnv` tracking symbolic ranges for loop
variables, thread / block indices and scalar declares, and learns *guard
facts* from ``IfStmt`` conditions and predicated ``IfThenElse`` loads:
inside ``if gi < m`` the structural key of ``gi`` is capped at ``m - 1``,
which is how the templates' predicated tails are proven safe.

Index expressions that read memory themselves (e.g. an embedding gather
``table[ids[s], h]``) are data-dependent: the analyzer reports a non-gating
``note`` naming the buffer and dimension instead of a false positive.
"""
from __future__ import annotations

from typing import Optional

from ..ir.expr import (BinaryExpr, Call, Cast, Expr, IfThenElse, TensorElement,
                       UnaryExpr, Var)
from ..ir.func import Function
from ..ir.functor import collect_stmts, contains
from ..ir.intervals import Interval, IntervalEnv
from ..ir.stmt import (AssignStmt, BarrierStmt, BufferStoreStmt, DeclareStmt,
                       EvaluateStmt, ForStmt, ForTaskStmt, IfStmt, LetStmt,
                       SeqStmt, Stmt)
from ..ir.types import DataType, TensorType
from .report import AnalysisReport, Finding


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
