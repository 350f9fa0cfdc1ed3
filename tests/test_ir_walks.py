"""The IR walks of a checked compile visit each distinct node once per pass.

Rewriting shares sub-trees, so lowered kernels are DAGs.  ``simplify``,
``substitute``, the verifier and the analyzer's race and bounds walks now
memoize per distinct node; the oracles below are those walks as they were
when they treated the IR as a tree (copied unchanged, renamed where they
call one another).  The DAG-aware walks must give the same simplified
kernel text and the same findings on every zoo kernel, template, the
reduce template and every seeded-bad fixture, and must call each rewrite
handler at most once per distinct expression.
"""
from collections import Counter
from typing import List, Mapping, Optional

import pytest

from repro.analysis import AnalysisReport, Finding, analyze_function
from repro.analysis.__main__ import (_ZOO, _space_sample, fixture_modules,
                                     matmul_template_modules, model_modules,
                                     reduce_template_modules)
from repro.analysis.bounds import _BoundsChecker
from repro.analysis.coverage import check_coverage
from repro.analysis.intervals import AffineForm
from repro.analysis.races import _Access, _RaceChecker
from repro.ir.expr import (PY_BINARY, PY_UNARY, BinaryExpr, BlockIndex, Call,
                           Cast, Constant, Expr, IfThenElse, TensorElement,
                           ThreadIndex, UnaryExpr, Var, thread_idx, var)
from repro.ir.func import Function
from repro.ir.functor import IRRewriter, NodeFunctor, collect
from repro.ir.intervals import Interval, IntervalEnv, expr_key
from repro.ir.passes.lower_task_mapping import (_lower_mapping,
                                                lower_task_mappings)
from repro.ir.passes.simplify import Simplifier, _is_const, const_int, simplify
from repro.ir.passes.verify import IRVerificationError, _Verifier
from repro.ir.stmt import (AssignStmt, BarrierStmt, BufferStoreStmt,
                           DeclareStmt, EvaluateStmt, ForStmt, ForTaskStmt,
                           IfStmt, LetStmt, SeqStmt, Stmt)
from repro.ir.tools import _Substituter, func_repr, stmt_repr, substitute
from repro.ir.types import DataType, MemoryScope, TensorType


# -- oracles: the tree walks -----------------------------------------------------


class OracleSubstituter(IRRewriter):
    def __init__(self, mapping: Mapping[Var, Expr]):
        super().__init__()
        self.mapping = dict(mapping)

    def visit_Var(self, e: Var):
        return self.mapping.get(e, e)


def oracle_substitute(node, mapping: Mapping[Var, Expr]):
    """Replace free occurrences of variables by expressions.

    Note: bindings are not alpha-renamed; callers must not substitute a
    variable that is re-bound inside ``node``.
    """
    if not mapping:
        return node
    return OracleSubstituter(mapping).visit(node)


class OracleTaskMappingLowerer(IRRewriter):
    def visit_ForTaskStmt(self, s: ForTaskStmt):
        body = self.visit(s.body)

        def cont(indices: tuple[Expr, ...]) -> Stmt:
            mapping = {v: i for v, i in zip(s.loop_vars, indices)}
            return oracle_substitute(body, mapping)

        return _lower_mapping(s.mapping, s.worker, cont)


def oracle_lower_task_mappings(node):
    """Rewrite every :class:`ForTaskStmt` under ``node`` into loops + indices.

    Accepts a statement or a whole :class:`~repro.ir.func.Function`.
    """
    if isinstance(node, Function):
        body = OracleTaskMappingLowerer().visit(node.body)
        if body is node.body:
            return node
        return Function(node.name, node.params, body, node.grid_dim, node.block_dim, node.attrs)
    return OracleTaskMappingLowerer().visit(node)


class _Range:
    """Half-open integer range [low, high) or unknown (None bounds)."""

    __slots__ = ('low', 'high')

    def __init__(self, low: Optional[int], high: Optional[int]):
        self.low = low
        self.high = high

    @property
    def known(self) -> bool:
        return self.low is not None and self.high is not None


class OracleSimplifier(IRRewriter):
    def __init__(self, thread_dims: Optional[tuple[int, int, int]] = None,
                 block_dims: Optional[tuple[int, int, int]] = None,
                 reassigned_vars: Optional[set[int]] = None):
        super().__init__()
        self._ranges: dict[int, _Range] = {}  # var id -> range
        self._thread_dims = thread_dims
        self._block_dims = block_dims
        self._reassigned = reassigned_vars or set()
        self._const_vars: dict[int, Constant] = {}  # constant, never-reassigned declarations

    # ---- range analysis --------------------------------------------------

    def range_of(self, e: Expr) -> _Range:
        if isinstance(e, Constant):
            v = const_int(e)
            if v is not None:
                return _Range(v, v + 1)
        if isinstance(e, ThreadIndex) and self._thread_dims is not None:
            return _Range(0, self._thread_dims['xyz'.index(e.dim)])
        if isinstance(e, BlockIndex) and self._block_dims is not None:
            return _Range(0, self._block_dims['xyz'.index(e.dim)])
        if isinstance(e, Var):
            return self._ranges.get(e._id, _Range(None, None))
        if isinstance(e, BinaryExpr):
            ra, rb = self.range_of(e.a), self.range_of(e.b)
            if e.op == '%':
                m = const_int(e.b)
                if m is not None and m > 0:
                    if ra.known and ra.low >= 0 and ra.high <= m:
                        return ra  # modulo is a no-op; handled by rewrite too
                    return _Range(0, m)
            if not (ra.known and rb.known):
                return _Range(None, None)
            if e.op == '+':
                return _Range(ra.low + rb.low, ra.high + rb.high - 1)
            if e.op == '-':
                return _Range(ra.low - (rb.high - 1), ra.high - rb.low)
            if e.op == '*':
                corners = [a * b for a in (ra.low, ra.high - 1) for b in (rb.low, rb.high - 1)]
                return _Range(min(corners), max(corners) + 1)
            if e.op == '//':
                if rb.low is not None and rb.low > 0:
                    corners = [a // b for a in (ra.low, ra.high - 1) for b in (rb.low, rb.high - 1)]
                    return _Range(min(corners), max(corners) + 1)
        return _Range(None, None)

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
            if d is not None and d > 0:
                ra = self.range_of(a)
                if ra.known and 0 <= ra.low and ra.high <= d:
                    return Constant(0, 'int32')
        elif e.op == '%':
            if _is_const(b, 1):
                return Constant(0, 'int32')
            m = const_int(b)
            if m is not None and m > 0:
                ra = self.range_of(a)
                if ra.known and 0 <= ra.low and ra.high <= m:
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
            ra, rb = self.range_of(a), self.range_of(b)
            if ra.known and rb.known:
                if e.op == '<':
                    if ra.high - 1 < rb.low:
                        return Constant(True, 'bool')
                    if ra.low >= rb.high - 1 + 1:
                        return Constant(False, 'bool')
                else:
                    if ra.high - 1 <= rb.low:
                        return Constant(True, 'bool')
                    if ra.low > rb.high - 1:
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
        return self._const_vars.get(e._id, e)

    def visit_ThreadIndex(self, e):
        if self._thread_dims is not None and self._thread_dims['xyz'.index(e.dim)] == 1:
            return Constant(0, 'int32')
        return e

    def visit_BlockIndex(self, e):
        if self._block_dims is not None and self._block_dims['xyz'.index(e.dim)] == 1:
            return Constant(0, 'int32')
        return e

    # ---- statements -----------------------------------------------------------

    def visit_DeclareStmt(self, s):
        init = self.visit(s.init) if s.init is not None else None
        if (init is not None and isinstance(init, Constant)
                and s.var._id not in self._reassigned):
            self._const_vars[s.var._id] = init
        if init is s.init:
            return s
        return DeclareStmt(s.var, init)

    def visit_ForStmt(self, s: ForStmt):
        extent = self.visit(s.extent)
        n = const_int(extent)
        if n is not None:
            if n == 0:
                return SeqStmt(())
            self._ranges[s.loop_var._id] = _Range(0, n)
        body = self.visit(s.body)
        if n == 1:
            return self.visit(oracle_substitute(body, {s.loop_var: Constant(0, 'int32')}))
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


def oracle_simplify(node):
    """Simplify a statement, expression, or function (fixed single pass).

    When given a :class:`~repro.ir.func.Function`, the known launch dimensions
    bound ``threadIdx``/``blockIdx``, which lets the pass drop the redundant
    ``%``/``//`` that task-mapping lowering produces.
    """
    if isinstance(node, Function):
        reassigned = {s.var._id for s in collect(node.body, AssignStmt)}
        simplifier = OracleSimplifier(thread_dims=node.block_dim, block_dims=node.grid_dim,
                                reassigned_vars=reassigned)
        body = simplifier.visit(node.body)
        return Function(node.name, node.params, body, node.grid_dim, node.block_dim, node.attrs)
    return OracleSimplifier().visit(node)


def oracle_expr_key(e: Expr):
    """Hashable structural fingerprint of an expression tree.

    Two structurally identical trees — e.g. the ``gi`` inside a guard and
    the ``gi`` inside the guarded access, rewritten independently by the
    simplifier — map to the same key, which is what lets guard facts be
    recalled at access sites.
    """
    if isinstance(e, Var):
        return ('var', e._id)
    if isinstance(e, Constant):
        return ('const', e.value)
    if isinstance(e, ThreadIndex):
        return ('tid', e.dim)
    if isinstance(e, BlockIndex):
        return ('bid', e.dim)
    if isinstance(e, BinaryExpr):
        return ('bin', e.op, oracle_expr_key(e.a), oracle_expr_key(e.b))
    if isinstance(e, UnaryExpr):
        return ('un', e.op, oracle_expr_key(e.a))
    if isinstance(e, Cast):
        return ('cast', e.dtype.name, oracle_expr_key(e.expr))
    if isinstance(e, TensorElement):
        return ('elem', oracle_expr_key(e.base), tuple(oracle_expr_key(i) for i in e.indices))
    if isinstance(e, IfThenElse):
        return ('ite', oracle_expr_key(e.cond), oracle_expr_key(e.then_expr),
                oracle_expr_key(e.else_expr))
    if isinstance(e, Call):
        return ('call', e.func_name, tuple(oracle_expr_key(a) for a in e.args))
    raise TypeError(f'expr_key: unhandled node {type(e).__name__}')


class OracleIntervalEnv(IntervalEnv):
    def child(self) -> 'OracleIntervalEnv':
        env = OracleIntervalEnv(self.thread_dims, self.block_dims, self.reassigned)
        env.vars = dict(self.vars)
        env.facts = dict(self.facts)
        return env

    def interval_of(self, e: Expr) -> Interval:
        iv = self._raw(e)
        fact = self.facts.get(oracle_expr_key(e))
        if fact is not None:
            iv = iv.intersect(fact)
        return iv

    def _cap(self, e: Expr, lo: Optional[int] = None, hi: Optional[int] = None):
        key = oracle_expr_key(e)
        cur = self.facts.get(key, Interval.unknown())
        self.facts[key] = cur.intersect(Interval(lo, hi))
        # a capped Var also tightens its binding-independent fact lookups
        if isinstance(e, Var) and e._id in self.vars:
            self.vars[e._id] = self.vars[e._id].intersect(Interval(lo, hi))


class OracleBoundsChecker(_BoundsChecker):
    def run(self):
        reassigned = frozenset(
            s.var._id for s in collect(self.func.body, AssignStmt))
        env = OracleIntervalEnv(self.func.block_dim, self.func.grid_dim, reassigned)
        self._stmt(self.func.body, env)

    def _expr(self, e: Expr, env: IntervalEnv):
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
            if collect(idx, TensorElement):
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


def oracle_contains_barrier(s: Stmt) -> bool:
    return bool(collect(s, BarrierStmt))


class OracleRaceChecker(_RaceChecker):
    def __init__(self, func: Function, report: AnalysisReport):
        self.func = func
        self.report = report
        self.accesses: List[_Access] = []
        self.phase = 0
        self.uniform: set = set()        # var ids uniform across threads
        self.independent: set = set()    # var ids that differ per thread
        self.reassigned = frozenset(
            s.var._id for s in collect(func.body, AssignStmt))
        self._coverage_cache: dict = {}
        self._reported: set = set()

    # ------------------------------------------------------------------
    def run(self):
        env = OracleIntervalEnv(self.func.block_dim, self.func.grid_dim,
                          self.reassigned)
        self._stmt(self.func.body, env, shift={}, guards=[], taskctx=[])
        self._check_pairs()

    # -- thread dependence ---------------------------------------------
    def _thread_dependent(self, e: Expr) -> bool:
        if collect(e, ThreadIndex):
            return True
        return any(v._id in self.independent for v in collect(e, Var))

    # -- walking --------------------------------------------------------
    def _stmt(self, s: Stmt, env, shift, guards, taskctx):
        if isinstance(s, SeqStmt):
            for sub in s.stmts:
                self._stmt(sub, env, shift, guards, taskctx)
        elif isinstance(s, BarrierStmt):
            self.phase += 1
        elif isinstance(s, DeclareStmt):
            if s.init is not None:
                self._reads(s.init, env, shift, guards, taskctx)
                if isinstance(s.var.type, DataType):
                    if s.var._id not in self.reassigned:
                        env.bind(s.var, env.interval_of(s.init))
                    if self._thread_dependent(s.init) or \
                            s.var._id in self.reassigned:
                        self.independent.add(s.var._id)
                    else:
                        self.uniform.add(s.var._id)
        elif isinstance(s, LetStmt):
            self._reads(s.value, env, shift, guards, taskctx)
            env.bind(s.var, env.interval_of(s.value))
            if self._thread_dependent(s.value):
                self.independent.add(s.var._id)
            else:
                self.uniform.add(s.var._id)
            self._stmt(s.body, env, shift, guards, taskctx)
        elif isinstance(s, AssignStmt):
            self._reads(s.value, env, shift, guards, taskctx)
        elif isinstance(s, BufferStoreStmt):
            for idx in s.indices:
                self._reads(idx, env, shift, guards, taskctx)
            self._reads(s.value, env, shift, guards, taskctx)
            self._record(s.buf, s.indices, True, id(s), env, shift, guards,
                         taskctx, 'store')
        elif isinstance(s, EvaluateStmt):
            self._reads(s.expr, env, shift, guards, taskctx)
        elif isinstance(s, ForStmt):
            extent = env.interval_of(s.extent)
            hi = None if extent.hi is None else extent.hi - 1
            env.bind(s.loop_var, Interval(0, hi))
            if oracle_contains_barrier(s.body) and not self._thread_dependent(s.extent):
                # every iteration syncs: only adjacent iterations can share
                # a phase.  Walk the same tree twice; pass 2 shifts the loop
                # variable by +1 in affine space (site identity preserved).
                self.uniform.add(s.loop_var._id)
                self._stmt(s.body, env, shift, guards, taskctx)
                shifted = dict(shift)
                shifted[s.loop_var._id] = shift.get(s.loop_var._id, 0) + 1
                self._stmt(s.body, env, shifted, guards, taskctx)
            else:
                # no sync inside: threads may be at different iterations
                # concurrently, so the loop variable is per-thread
                self.independent.add(s.loop_var._id)
                self._stmt(s.body, env, shift, guards, taskctx)
        elif isinstance(s, ForTaskStmt):
            for var, dim in zip(s.loop_vars, s.mapping.task_shape):
                env.bind(var, Interval(0, dim - 1))
                self.independent.add(var._id)
            ctx = taskctx + [(tuple(v._id for v in s.loop_vars), s.mapping,
                              s.worker)]
            self._stmt(s.body, env, shift, guards, ctx)
        elif isinstance(s, IfStmt):
            self._reads(s.cond, env, shift, guards, taskctx)
            start = self.phase
            self._stmt(s.then_body, env.assume(s.cond), shift,
                       guards + [(s.cond, False)], taskctx)
            after_then = self.phase
            if s.else_body is not None:
                self.phase = start
                self._stmt(s.else_body, env.assume(s.cond, negate=True),
                           shift, guards + [(s.cond, True)], taskctx)
            self.phase = max(self.phase, after_then)
        else:
            raise TypeError(f'races: unhandled stmt {type(s).__name__}')

    def _reads(self, e: Expr, env, shift, guards, taskctx):
        if isinstance(e, TensorElement):
            if isinstance(e.base, Var):
                self._record(e.base, e.indices, False, id(e), env, shift,
                             guards, taskctx, 'load')
            for idx in e.indices:
                self._reads(idx, env, shift, guards, taskctx)
        elif isinstance(e, IfThenElse):
            self._reads(e.cond, env, shift, guards, taskctx)
            self._reads(e.then_expr, env.assume(e.cond), shift,
                        guards + [(e.cond, False)], taskctx)
            self._reads(e.else_expr, env.assume(e.cond, negate=True), shift,
                        guards + [(e.cond, True)], taskctx)
        elif isinstance(e, BinaryExpr):
            self._reads(e.a, env, shift, guards, taskctx)
            self._reads(e.b, env, shift, guards, taskctx)
        elif isinstance(e, UnaryExpr):
            self._reads(e.a, env, shift, guards, taskctx)
        elif isinstance(e, Cast):
            self._reads(e.expr, env, shift, guards, taskctx)
        elif isinstance(e, Call):
            for arg in e.args:
                self._reads(arg, env, shift, guards, taskctx)

    def _record(self, buf, indices, is_write, site, env, shift, guards,
                taskctx, where):
        ttype = buf.type
        if not (isinstance(ttype, TensorType)
                and ttype.scope == MemoryScope.SHARED):
            return
        self.accesses.append(_Access(
            buf, indices, is_write, self.phase, site, shift, guards, taskctx,
            env.child(), self.uniform, self.independent, where))

    def _opaque(self, e: Expr, side: int, shift: dict) -> AffineForm:
        shift_items = tuple(sorted(
            (v._id, shift[v._id]) for v in collect(e, Var)
            if v._id in shift))
        tag = side if self._thread_dependent(e) else 'shared'
        return AffineForm.term(('x', oracle_expr_key(e), tag, shift_items))

    # -- proofs ---------------------------------------------------------
    def _shift_free(self, e: Expr, acc: _Access) -> bool:
        return not any(acc.shift.get(v._id) for v in collect(e, Var))

    def _exclusive_branches(self, a: _Access, b: _Access) -> bool:
        """Opposite arms of the same thread-uniform condition."""
        ga = {(oracle_expr_key(c), neg) for c, neg in a.guards
              if not self._thread_dependent(c)}
        for c, neg in b.guards:
            if self._thread_dependent(c):
                continue
            if (oracle_expr_key(c), not neg) in ga:
                return True
        return False


def oracle_depends_on_thread(e: Expr) -> bool:
    return len(collect(e, ThreadIndex)) > 0


class OracleVerifier(_Verifier):
    visit = NodeFunctor.visit

    def visit_IfStmt(self, s: IfStmt):
        self.visit(s.cond)
        divergent = oracle_depends_on_thread(s.cond)
        self.divergent_depth += int(divergent)
        self.visit(s.then_body)
        if s.else_body is not None:
            self.visit(s.else_body)
        self.divergent_depth -= int(divergent)


def oracle_verify_function(func: Function, lowered: bool = False) -> None:
    """Raise :class:`IRVerificationError` if the function is ill-formed."""
    for p in func.params:
        if isinstance(p.type, TensorType) and p.type.scope != 'global':
            raise IRVerificationError(
                f'in kernel {func.name!r}: parameter {p.name!r} must be global')
    OracleVerifier(func, lowered).visit(func.body)


def oracle_analyze_function(func: Function,
                            report: Optional[AnalysisReport] = None) -> AnalysisReport:
    """Run verify + coverage + races + bounds over one kernel function."""
    if report is None:
        report = AnalysisReport()
    report.kernels.append(func.name)

    try:
        oracle_verify_function(func, lowered=False)
    except IRVerificationError as exc:
        report.add(Finding(check='verify', severity='error', kernel=func.name,
                           message=str(exc)))
        return report    # a malformed function would crash the other checks

    seen_mappings = set()
    for stmt in collect(func.body, ForTaskStmt):
        if id(stmt.mapping) in seen_mappings:
            continue
        seen_mappings.add(id(stmt.mapping))
        cov = check_coverage(stmt.mapping)
        if cov.exact:
            continue
        report.add(Finding(
            check='coverage', severity='error', kernel=func.name,
            message=(f'task mapping {stmt.mapping!r} does not cover its '
                     f'domain exactly once: {cov.describe()}'),
            detail=f'task_shape={tuple(stmt.mapping.task_shape)}'))

    OracleRaceChecker(func, report).run()

    lowered = oracle_simplify(oracle_lower_task_mappings(func))
    try:
        oracle_verify_function(lowered, lowered=True)
    except IRVerificationError as exc:
        report.add(Finding(check='verify', severity='error', kernel=func.name,
                           message=f'lowered form: {exc}'))
        return report
    OracleBoundsChecker(lowered, report).run()
    return report


# -- the DAG-aware walks agree with the oracles ------------------------------------

def _findings(report: AnalysisReport) -> list:
    return [(f.check, f.severity, f.kernel, f.buffer, f.message, f.detail)
            for f in report.findings]


def _same_as_oracle(modules) -> int:
    """Assert both walks agree on every function; returns the findings."""
    found = 0
    for module in modules:
        for func in module:
            assert (func_repr(simplify(lower_task_mappings(func)))
                    == func_repr(oracle_simplify(
                        oracle_lower_task_mappings(func)))), func.name
            new = _findings(analyze_function(func))
            assert new == _findings(oracle_analyze_function(func)), func.name
            found += len(new)
    return found


@pytest.mark.parametrize('model', sorted(_ZOO))
def test_zoo_kernels_match_oracle(model):
    _same_as_oracle(model_modules(model))


def test_templates_match_oracle():
    modules = list(matmul_template_modules(_space_sample(6)))
    assert len(modules) > 20
    _same_as_oracle(modules)


def test_reduce_template_matches_oracle():
    _same_as_oracle(reduce_template_modules())


def test_fixtures_match_oracle():
    # every fixture fires, so the findings compared are not all empty
    assert _same_as_oracle(fixture_modules()) >= len(fixture_modules())


def test_expr_keys_match_oracle():
    memo = {}
    for module in matmul_template_modules(_space_sample(2)):
        for func in module:
            body = simplify(lower_task_mappings(func)).body
            for e in collect(body, Expr):
                assert expr_key(e, memo) == oracle_expr_key(e)


# -- work counts -------------------------------------------------------------------

def _shared_index_kernel(uses: int = 8) -> Function:
    """One index expression object under ``2 * uses`` accesses."""
    from repro.ir.builders import FunctionBuilder
    fb = FunctionBuilder('shared_index', grid_dim=1, block_dim=64)
    out = fb.tensor_param('out', 'float32', [uses, 64])
    src = fb.tensor_param('src', 'float32', [64])
    off = fb.scalar_param('off')
    tid = thread_idx()
    with fb.for_range(4, name='j'):
        index = (tid // 8) % 8 * 8 + tid % 8 * 1 + off * 0
        for u in range(uses):
            fb.store(out, [u, index], src[index])
    return fb.finish()


def _counting(cls, calls: Counter):
    """``cls`` with every handler counting the expressions it is called on."""
    def counted(handler):
        def visit(self, node):
            if isinstance(node, Expr):
                calls[id(node)] += 1
            return handler(self, node)
        return visit
    handlers = {name: counted(getattr(cls, name))
                for name in dir(cls) if name.startswith('visit_')}
    return type(f'Counting{cls.__name__}', (cls,), handlers)


def test_simplify_rewrites_each_expression_once():
    func = _shared_index_kernel()
    new_calls, old_calls = Counter(), Counter()
    dims = dict(thread_dims=func.block_dim, block_dims=func.grid_dim,
                reassigned_vars=set())
    new = _counting(Simplifier, new_calls)(**dims).visit(func.body)
    old = _counting(OracleSimplifier, old_calls)(**dims).visit(func.body)
    assert stmt_repr(new) == stmt_repr(old)
    assert 'out[0, threadIdx.x // 8 * 8 + threadIdx.x % 8]' in stmt_repr(new)
    assert max(new_calls.values()) == 1
    assert max(old_calls.values()) >= 16     # the tree walk: once per use


def test_substitute_rewrites_each_expression_once():
    func = _shared_index_kernel()
    off = next(p for p in func.params if p.name == 'off')
    mapping = {off: Constant(3, 'int32')}
    new_calls, old_calls = Counter(), Counter()
    new = _counting(_Substituter, new_calls)(mapping).visit(func.body)
    old = _counting(OracleSubstituter, old_calls)(mapping).visit(func.body)
    assert stmt_repr(new) == stmt_repr(old) == stmt_repr(
        substitute(func.body, mapping))
    assert max(new_calls.values()) == 1
    assert max(old_calls.values()) >= 16
    # the rewrite of the shared index is itself shared
    stores = collect(new, BufferStoreStmt)
    assert len(stores) == 8
    assert len({id(s.indices[1]) for s in stores}) == 1


def test_rebound_vars_drop_the_memo():
    """A var whose range or constant changes after a rewrite read it."""
    i, c = var('i'), var('c')
    buf = Var('buf', TensorType('float32', [16], 'global'))
    shared = i % 4 + c      # one object, rewritten under four bindings
    stmt = SeqStmt([
        BufferStoreStmt(buf, [shared], 0.0),       # i and c still unbound
        DeclareStmt(c, Constant(1, 'int32')),
        ForStmt(i, 4, BufferStoreStmt(buf, [shared], 1.0)),
        ForStmt(i, 8, BufferStoreStmt(buf, [shared], 2.0)),   # i re-bound
        DeclareStmt(c, Constant(2, 'int32')),                 # c re-bound
        BufferStoreStmt(buf, [shared], 3.0),
    ])
    text = stmt_repr(simplify(stmt))
    assert text == stmt_repr(oracle_simplify(stmt))
    stores = [line.strip() for line in text.split('\n') if 'buf[' in line]
    assert stores == ['buf[i % 4 + c] = 0.0', 'buf[i + 1] = 1.0',
                      'buf[i % 4 + 1] = 2.0', 'buf[i % 4 + 2] = 3.0']


def test_interval_env_ranges_each_node_once():
    """One env ranges each distinct node of a shared index once; a loop var
    re-bound after a read gets its new range; a child starts afresh."""
    i = var('i')
    x = thread_idx() // 8 % 8 * 8 + i       # one object under three parents
    index = x * 2 + (x + 1) + x % 4
    distinct = {id(n) for n in collect(index, Expr)}
    calls = Counter()

    class CountingEnv(IntervalEnv):
        def _raw(self, e):
            calls[id(e)] += 1
            return super()._raw(e)

    env = CountingEnv((64, 1, 1), (1, 1, 1))
    assert not env.bind(i, Interval(0, 3))
    assert env.interval_of(index) == Interval(1, 181)
    assert env.interval_of(index) == Interval(1, 181)
    assert set(calls) == distinct and max(calls.values()) == 1

    assert not env.bind(i, Interval(0, 3))      # same range: memo kept
    assert env.bind(i, Interval(0, 7))          # read, then re-bound
    assert env.interval_of(x) == Interval(0, 63)
    calls.clear()
    env.child().interval_of(index)
    assert set(calls) == distinct and max(calls.values()) == 1
