"""Shared-memory race detection over barrier phases.

The detector walks the *unlowered* kernel body (``ForTaskStmt`` intact, so
the worker→task relation is still visible), splits execution into barrier
phases with a monotone phase counter, and collects every access to a
``MemoryScope.SHARED`` tensor.  Two accesses to the same buffer in the same
phase, at least one a write, form a candidate pair; the pair is a race
unless the detector *proves* that for every pair of distinct threads the
touched addresses are disjoint.

Loops require care.  A loop whose body contains a barrier is walked twice:
the second pass re-walks the *same* statement tree with the loop variable
shifted by +1 (carried in the context, never substituted into the tree, so
statement identity is preserved), which models iteration ``i`` of one
thread overlapping iteration ``i+1`` of another in the shared phase —
exactly the hazard double buffering exists to avoid.  A barrier-free loop
is walked once, but its loop variable is treated as *independent* between
the two sides of a pair (side-tagged in the affine forms): different
threads may be at different iterations concurrently.

Disjointness proofs, per index dimension (any dimension provably disjoint
clears the pair):

* **const** — the affine difference is a nonzero constant;
* **thread-offset** — the difference is ``c * (t1 - t2)`` with ``c != 0``
  (e.g. ``smem[tid]``), nonzero whenever the threads differ;
* **mod-congruence** — both indices are ``x % m`` with the same constant
  ``m`` and ``x1 - x2`` is a constant not divisible by ``m`` (the
  double-buffer stage flip);
* **interval** — the guard-refined ranges of the two indices do not
  overlap (the reduction tree's ``smem[tid]`` vs ``smem[tid + stride]``
  under ``tid < stride``).

Whole-pair proofs:

* **mapping** — both accesses are the same statement inside a
  ``ForTaskStmt`` whose worker is exactly the thread index, whose mapping
  covers the domain exactly once with at least as many workers as threads,
  and whose loop variables all appear as direct index dimensions: distinct
  threads then own disjoint task sets, hence disjoint addresses;
* **pinning** — both accesses are guarded to the same single thread
  (``tid == 0``), or sit in mutually exclusive branches of a
  thread-uniform condition.

Anything unproven is reported as a may-race error naming the buffer and
the barrier phase.
"""
from __future__ import annotations

from typing import List, Optional

from ..ir.expr import (BinaryExpr, BlockIndex, Call, Cast, Constant, Expr,
                       IfThenElse, TensorElement, ThreadIndex, UnaryExpr, Var)
from ..ir.func import Function
from ..ir.functor import collect, collect_stmts, contains
from ..ir.intervals import Interval, IntervalEnv, expr_key
from ..ir.stmt import (AssignStmt, BarrierStmt, BufferStoreStmt, DeclareStmt,
                       EvaluateStmt, ForStmt, ForTaskStmt, IfStmt, LetStmt,
                       SeqStmt, Stmt)
from ..ir.types import DataType, MemoryScope, TensorType
from .coverage import check_coverage
from .intervals import AffineForm
from .report import AnalysisReport, Finding


def _const_int(e: Expr) -> Optional[int]:
    if isinstance(e, Constant) and isinstance(e.value, (int, bool)):
        return int(e.value)
    return None


def _contains_barrier(s: Stmt) -> bool:
    return bool(collect_stmts(s, BarrierStmt))


class _Access:
    """One shared-memory access with the full context needed for proofs."""

    __slots__ = ('buf', 'indices', 'is_write', 'phase', 'site', 'shift',
                 'guards', 'taskctx', 'env', 'uniform', 'independent',
                 'where')

    def __init__(self, buf, indices, is_write, phase, site, shift, guards,
                 taskctx, env, uniform, independent, where):
        self.buf = buf
        self.indices = list(indices)
        self.is_write = is_write
        self.phase = phase
        self.site = site              # id() of the store stmt / load expr
        self.shift = dict(shift)      # var _id -> +iteration offset (pass 2)
        self.guards = list(guards)    # [(cond expr, negated bool)]
        self.taskctx = list(taskctx)  # [(loop var ids, mapping, worker expr)]
        self.env = env                # guard-refined IntervalEnv snapshot
        self.uniform = uniform        # shared set: thread-uniform var ids
        self.independent = independent  # shared set: per-thread var ids
        self.where = where            # 'store'/'load' for messages


class _RaceChecker:
    def __init__(self, func: Function, report: AnalysisReport):
        self.func = func
        self.report = report
        self.accesses: List[_Access] = []
        self.phase = 0
        self.uniform: set = set()        # var ids uniform across threads
        self.independent: set = set()    # var ids that differ per thread
        self.reassigned = frozenset(
            s.var._id for s in collect_stmts(func.body, AssignStmt))
        self._coverage_cache: dict = {}
        self._reported: set = set()
        self._scans: dict = {}    # id(expr) -> (expr, reads threadIdx, vars)
        self._keys: dict = {}     # the expr_key memo of this walk
        self._loads: dict = {}    # contains() memo: TensorElement below?

    # ------------------------------------------------------------------
    def run(self):
        env = IntervalEnv(self.func.block_dim, self.func.grid_dim,
                          self.reassigned, self._keys)
        self._stmt(self.func.body, env, shift={}, guards=[], taskctx=[])
        self._check_pairs()

    # -- thread dependence ---------------------------------------------
    def _scan(self, e: Expr):
        """``(e, reads threadIdx?, its Var occurrences in pre-order)``,
        computed once per distinct expression node."""
        hit = self._scans.get(id(e))
        if hit is None:
            found = collect(e, (ThreadIndex, Var))
            hit = self._scans[id(e)] = (
                e, any(isinstance(n, ThreadIndex) for n in found),
                [n for n in found if isinstance(n, Var)])
        return hit

    def _thread_dependent(self, e: Expr) -> bool:
        _, reads_thread, variables = self._scan(e)
        if reads_thread:
            return True
        return any(v._id in self.independent for v in variables)

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
            if _contains_barrier(s.body) and not self._thread_dependent(s.extent):
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
        if not contains(e, TensorElement, self._loads):
            return      # no load below
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

    # -- affine abstraction --------------------------------------------
    def _affine(self, e: Expr, side: int, shift: dict) -> AffineForm:
        if isinstance(e, Constant) and isinstance(e.value, (int, bool)):
            return AffineForm.constant(int(e.value))
        if isinstance(e, Var):
            if e._id in self.independent:
                return AffineForm.term(('v', e._id, side))
            # thread-uniform: same value on both sides of the pair; the
            # pass-2 iteration shift lands in the constant
            return AffineForm.term(('v', e._id), const=shift.get(e._id, 0))
        if isinstance(e, ThreadIndex):
            return AffineForm.term(('t', e.dim, side))
        if isinstance(e, BlockIndex):
            return AffineForm.term(('b', e.dim))
        if isinstance(e, BinaryExpr):
            if e.op == '+':
                return (self._affine(e.a, side, shift)
                        + self._affine(e.b, side, shift))
            if e.op == '-':
                return (self._affine(e.a, side, shift)
                        - self._affine(e.b, side, shift))
            if e.op == '*':
                ca, cb = _const_int(e.a), _const_int(e.b)
                if cb is not None:
                    return self._affine(e.a, side, shift).scaled(cb)
                if ca is not None:
                    return self._affine(e.b, side, shift).scaled(ca)
        if isinstance(e, UnaryExpr) and e.op == '-':
            return self._affine(e.a, side, shift).scaled(-1)
        if isinstance(e, Cast):
            return self._affine(e.expr, side, shift)
        return self._opaque(e, side, shift)

    def _opaque(self, e: Expr, side: int, shift: dict) -> AffineForm:
        shift_items = tuple(sorted(
            (v._id, shift[v._id]) for v in self._scan(e)[2]
            if v._id in shift))
        tag = side if self._thread_dependent(e) else 'shared'
        return AffineForm.term(('x', expr_key(e, self._keys), tag,
                                shift_items))

    # -- proofs ---------------------------------------------------------
    def _shift_free(self, e: Expr, acc: _Access) -> bool:
        return not any(acc.shift.get(v._id) for v in self._scan(e)[2])

    def _dim_disjoint(self, ea: Expr, eb: Expr, a: _Access, b: _Access) -> bool:
        diff = self._affine(ea, 0, a.shift) - self._affine(eb, 1, b.shift)
        if diff.is_const:
            return diff.const != 0
        # c * (t1 - t2): nonzero exactly when the threads differ
        if diff.const == 0 and len(diff.terms) == 2:
            (k1, c1), (k2, c2) = sorted(diff.terms.items(),
                                        key=lambda kv: repr(kv[0]))
            if (c1 == -c2 and c1 != 0
                    and k1[0] == 't' and k2[0] == 't' and k1[1] == k2[1]):
                return True
        # mod-congruence: x%m vs y%m with x-y a constant not divisible by m
        if (isinstance(ea, BinaryExpr) and ea.op == '%'
                and isinstance(eb, BinaryExpr) and eb.op == '%'):
            ma, mb = _const_int(ea.b), _const_int(eb.b)
            if ma is not None and ma == mb and ma > 0:
                d = (self._affine(ea.a, 0, a.shift)
                     - self._affine(eb.a, 1, b.shift))
                if d.is_const and d.const % ma != 0:
                    return True
        # guard-refined interval separation (only valid when neither side
        # carries an iteration shift the intervals would not see)
        if self._shift_free(ea, a) and self._shift_free(eb, b):
            iva = a.env.interval_of(ea)
            ivb = b.env.interval_of(eb)
            if iva.hi is not None and ivb.lo is not None and iva.hi < ivb.lo:
                return True
            if ivb.hi is not None and iva.lo is not None and ivb.hi < iva.lo:
                return True
        return False

    def _coverage_exact(self, mapping) -> bool:
        key = id(mapping)
        if key not in self._coverage_cache:
            self._coverage_cache[key] = check_coverage(mapping).exact
        return self._coverage_cache[key]

    def _mapping_disjoint(self, a: _Access, b: _Access) -> bool:
        """Same site inside a bijective thread-worker ForTaskStmt."""
        if a.site != b.site:
            return False
        for lv_ids, mapping, worker in a.taskctx:
            wform = self._affine(worker, 0, {})
            if not (wform.const == 0 and wform.terms == {('t', 'x', 0): 1}):
                continue
            if mapping.num_workers < self.func.num_threads_per_block:
                continue
            if not self._coverage_exact(mapping):
                continue
            # every mapping loop variable must appear as a direct index
            # dimension, so distinct task tuples give distinct addresses
            direct = {idx._id for idx in a.indices if isinstance(idx, Var)}
            if all(vid in direct for vid in lv_ids):
                return True
        return False

    def _pinned_same_thread(self, a: _Access, b: _Access) -> bool:
        """Both sides provably executed by the same single thread."""
        tid = ThreadIndex('x')
        iva = a.env.interval_of(tid)
        ivb = b.env.interval_of(tid)
        return (iva.is_point and ivb.is_point and iva.lo == ivb.lo)

    def _exclusive_branches(self, a: _Access, b: _Access) -> bool:
        """Opposite arms of the same thread-uniform condition."""
        ga = {(expr_key(c, self._keys), neg) for c, neg in a.guards
              if not self._thread_dependent(c)}
        for c, neg in b.guards:
            if self._thread_dependent(c):
                continue
            if (expr_key(c, self._keys), not neg) in ga:
                return True
        return False

    # -- pairing --------------------------------------------------------
    def _check_pairs(self):
        by_group: dict = {}
        for acc in self.accesses:
            by_group.setdefault((acc.phase, id(acc.buf)), []).append(acc)
        for group in by_group.values():
            for i, a in enumerate(group):
                for b in group[i:]:
                    if not (a.is_write or b.is_write):
                        continue
                    self._check_pair(a, b)

    def _check_pair(self, a: _Access, b: _Access):
        # a self-pair (a is b) models two *distinct* threads at the same
        # statement; all proofs below already quantify over t1 != t2
        if self._exclusive_branches(a, b):
            return
        if self._pinned_same_thread(a, b):
            return
        if self._mapping_disjoint(a, b):
            return
        for ea, eb in zip(a.indices, b.indices):
            if self._dim_disjoint(ea, eb, a, b):
                return
        key = (a.site, b.site, a.phase)
        if key in self._reported:
            return
        self._reported.add(key)
        kind = 'write-write' if a.is_write and b.is_write else 'read-write'
        if a.site == b.site and a.shift == b.shift:
            what = f'the {a.where} at this site'
        else:
            what = f'a {a.where} and a {b.where}'
        self.report.add(Finding(
            check='race', severity='error', kernel=self.func.name,
            buffer=a.buf.name,
            message=(f'possible {kind} race on shared {a.buf.name!r}: '
                     f'{what} in barrier phase {a.phase} may touch the '
                     f'same element from distinct threads'),
            detail=f'phase={a.phase}'))


def check_races(func: Function,
                report: Optional[AnalysisReport] = None) -> AnalysisReport:
    """Detect shared-memory races in an *unlowered* kernel function."""
    if report is None:
        report = AnalysisReport(kernels=[func.name])
    _RaceChecker(func, report).run()
    return report
