"""Integer range analysis over ``ir.expr``: one domain for the whole IR stack.

Every index expression is abstracted to an inclusive integer range
``[lo, hi]`` where ``None`` means unbounded on that side.  Division and
modulo follow *Python* semantics (floor division, nonnegative modulo for
positive divisors), which is what the simplifier folds and the reference
interpreter executes.

One :class:`IntervalEnv` answers "what range can this index take?" for
the simplifier (which drops provably redundant ``%``/``//`` and
comparisons), the bounds checker and the race detector.  It tracks loop
variables, thread/block indices and *guard facts*: inside ``if gi < m`` the
structural key of ``gi`` (:func:`expr_key`) is capped at ``m - 1``, so the
fact is recalled at the access site even though the two ``gi`` trees are
distinct Python objects.

Lowered kernels are DAGs, so an env memoizes the range of each distinct
expression object (and a walk shares one key memo), and each entry holds
its node so its ``id`` cannot be reused.  The memo is dropped when a
variable an earlier lookup read is bound to another range, or when a
guard fact is added.
"""
from __future__ import annotations

from typing import Optional

from .expr import (BinaryExpr, BlockIndex, Call, Cast, Constant, Expr,
                   IfThenElse, TensorElement, ThreadIndex, UnaryExpr, Var)
from .types import DataType

__all__ = ['Interval', 'IntervalEnv', 'expr_key']


def _add(a: Optional[int], b: Optional[int]) -> Optional[int]:
    return None if a is None or b is None else a + b


class Interval:
    """Inclusive integer range ``[lo, hi]``; ``None`` = unbounded."""

    __slots__ = ('lo', 'hi')

    def __init__(self, lo: Optional[int] = None, hi: Optional[int] = None):
        self.lo = lo
        self.hi = hi

    @staticmethod
    def point(value: int) -> 'Interval':
        return Interval(value, value)

    @staticmethod
    def unknown() -> 'Interval':
        return Interval(None, None)

    @property
    def known(self) -> bool:
        return self.lo is not None and self.hi is not None

    @property
    def is_point(self) -> bool:
        return self.known and self.lo == self.hi

    def within(self, lo: int, hi: int) -> bool:
        """Provably contained in the inclusive range ``[lo, hi]``?"""
        return self.known and self.lo >= lo and self.hi <= hi

    def __repr__(self):
        lo = '-inf' if self.lo is None else self.lo
        hi = '+inf' if self.hi is None else self.hi
        return f'[{lo}, {hi}]'

    def __eq__(self, other):
        return (isinstance(other, Interval)
                and self.lo == other.lo and self.hi == other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    # -- lattice ----------------------------------------------------------
    def intersect(self, other: 'Interval') -> 'Interval':
        lo = other.lo if self.lo is None else (
            self.lo if other.lo is None else max(self.lo, other.lo))
        hi = other.hi if self.hi is None else (
            self.hi if other.hi is None else min(self.hi, other.hi))
        return Interval(lo, hi)

    def union(self, other: 'Interval') -> 'Interval':
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: 'Interval') -> 'Interval':
        return Interval(_add(self.lo, other.lo), _add(self.hi, other.hi))

    def __sub__(self, other: 'Interval') -> 'Interval':
        return Interval(
            None if self.lo is None or other.hi is None else self.lo - other.hi,
            None if self.hi is None or other.lo is None else self.hi - other.lo)

    def __neg__(self) -> 'Interval':
        return Interval(None if self.hi is None else -self.hi,
                        None if self.lo is None else -self.lo)

    def __mul__(self, other: 'Interval') -> 'Interval':
        if not (self.known and other.known):
            # one-sided results are possible but never needed by the
            # templates; stay simple and sound
            return Interval.unknown()
        corners = [self.lo * other.lo, self.lo * other.hi,
                   self.hi * other.lo, self.hi * other.hi]
        return Interval(min(corners), max(corners))

    def __floordiv__(self, other: 'Interval') -> 'Interval':
        # only positive divisors: every divisor the templates produce is a
        # positive extent or stride
        if not other.known or other.lo <= 0:
            return Interval.unknown()
        if not self.known:
            # floor division by a positive divisor preserves one-sided bounds
            return Interval(
                None if self.lo is None else self.lo // other.hi
                if self.lo >= 0 else self.lo // other.lo,
                None if self.hi is None else self.hi // other.lo
                if self.hi >= 0 else self.hi // other.hi)
        corners = [self.lo // other.lo, self.lo // other.hi,
                   self.hi // other.lo, self.hi // other.hi]
        return Interval(min(corners), max(corners))

    def __mod__(self, other: 'Interval') -> 'Interval':
        # Python modulo with a positive divisor always lands in [0, m-1]
        if not other.known or other.lo <= 0:
            return Interval.unknown()
        if self.within(0, other.lo - 1):
            return self        # a % m == a when 0 <= a < m for every m
        return Interval(0, other.hi - 1)

    def min_with(self, other: 'Interval') -> 'Interval':
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        # min(x, k) <= k even when x is unbounded above
        if self.hi is None:
            hi = other.hi
        elif other.hi is None:
            hi = self.hi
        else:
            hi = min(self.hi, other.hi)
        return Interval(lo, hi)

    def max_with(self, other: 'Interval') -> 'Interval':
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        if self.lo is None:
            lo = other.lo
        elif other.lo is None:
            lo = self.lo
        else:
            lo = max(self.lo, other.lo)
        return Interval(lo, hi)


def expr_key(e: Expr, memo: Optional[dict] = None):
    """Hashable structural fingerprint of an expression tree.

    Two structurally identical trees — e.g. the ``gi`` inside a guard and
    the ``gi`` inside the guarded access, rewritten independently by the
    simplifier — map to the same key, which is what lets guard facts be
    recalled at access sites.

    ``memo`` maps ``id(node)`` to ``(node, key)``; pass the same dict to
    every call of one walk so a node is keyed once however many parents
    share it.  Each entry holds its node, so the ``id`` cannot be reused.
    """
    if memo is None:
        memo = {}
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    if isinstance(e, Var):
        key = ('var', e._id)
    elif isinstance(e, Constant):
        key = ('const', e.value)
    elif isinstance(e, ThreadIndex):
        key = ('tid', e.dim)
    elif isinstance(e, BlockIndex):
        key = ('bid', e.dim)
    elif isinstance(e, BinaryExpr):
        key = ('bin', e.op, expr_key(e.a, memo), expr_key(e.b, memo))
    elif isinstance(e, UnaryExpr):
        key = ('un', e.op, expr_key(e.a, memo))
    elif isinstance(e, Cast):
        key = ('cast', e.dtype.name, expr_key(e.expr, memo))
    elif isinstance(e, TensorElement):
        key = ('elem', expr_key(e.base, memo),
               tuple(expr_key(i, memo) for i in e.indices))
    elif isinstance(e, IfThenElse):
        key = ('ite', expr_key(e.cond, memo), expr_key(e.then_expr, memo),
               expr_key(e.else_expr, memo))
    elif isinstance(e, Call):
        key = ('call', e.func_name, tuple(expr_key(a, memo) for a in e.args))
    else:
        raise TypeError(f'expr_key: unhandled node {type(e).__name__}')
    memo[id(e)] = (e, key)
    return key


class IntervalEnv:
    """Symbolic ranges for variables plus guard facts on expression keys.

    ``thread_dims``/``block_dims`` bound ``threadIdx``/``blockIdx``;
    ``None`` leaves them unknown.  An env and every env derived from it
    share one :func:`expr_key` memo, so a walk keys each distinct
    expression node once; each env has its own range memo.
    """

    def __init__(self, thread_dims=None, block_dims=None,
                 reassigned=frozenset(), keys: Optional[dict] = None):
        self.thread_dims = None if thread_dims is None else tuple(thread_dims)
        self.block_dims = None if block_dims is None else tuple(block_dims)
        self.reassigned = reassigned
        self.keys = {} if keys is None else keys   # the expr_key memo
        self.vars: dict = {}      # var _id -> Interval
        self.facts: dict = {}     # expr_key -> Interval
        self._memo: dict = {}     # id(expr) -> (expr, Interval)
        self._read: set = set()   # var ids looked up since the memo was dropped

    def key(self, e: Expr):
        return expr_key(e, self.keys)

    def child(self) -> 'IntervalEnv':
        env = type(self)(self.thread_dims, self.block_dims, self.reassigned,
                         self.keys)
        env.vars = dict(self.vars)
        env.facts = dict(self.facts)
        return env

    def bind(self, var: Var, interval: Interval) -> bool:
        """Bind ``var``'s range; returns whether the memo was dropped
        (an earlier lookup read ``var`` while it had another range)."""
        dropped = var._id in self._read and self.vars.get(var._id) != interval
        if dropped:
            self._memo.clear()
            self._read.clear()
        self.vars[var._id] = interval
        return dropped

    # -- evaluation -------------------------------------------------------
    def interval_of(self, e: Expr) -> Interval:
        node = id(e)
        hit = self._memo.get(node)
        if hit is not None:
            return hit[1]
        iv = self._raw(e)
        if self.facts:
            fact = self.facts.get(self.key(e))
            if fact is not None:
                iv = iv.intersect(fact)
        self._memo[node] = (e, iv)
        return iv

    def _raw(self, e: Expr) -> Interval:
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
            if op == '//':      # ``/`` is true division: no integer range
                return a // b
            if op == '%':
                return a % b
            if op == 'min':
                return a.min_with(b)
            if op == 'max':
                return a.max_with(b)
            return Interval.unknown()
        if isinstance(e, Constant):
            if isinstance(e.value, bool):
                return Interval(0, 1)
            if isinstance(e.value, int):
                return Interval.point(e.value)
            return Interval.unknown()
        if isinstance(e, Var):
            self._read.add(e._id)
            return self.vars.get(e._id, Interval.unknown())
        if isinstance(e, (ThreadIndex, BlockIndex)):
            dims = self.thread_dims if isinstance(e, ThreadIndex) else self.block_dims
            if dims is None:
                return Interval.unknown()
            return Interval(0, dims['xyz'.index(e.dim)] - 1)
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
            then_env = self.assume(e.cond)
            else_env = self.assume(e.cond, negate=True)
            iv = then_env.interval_of(e.then_expr).union(
                else_env.interval_of(e.else_expr))
            self._read |= then_env._read | else_env._read   # same bindings
            return iv
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
        self._memo.clear()    # every range may depend on the new fact
