"""Integer interval arithmetic and structural expression keys.

The interval domain is the workhorse of the bounds checker and the race
detector: every index expression is abstracted to an inclusive integer
range ``[lo, hi]`` where ``None`` means unbounded on that side.  Division
and modulo follow *Python* semantics (floor division, nonnegative modulo
for positive divisors) because that is what ``ir.passes.simplify`` and the
reference interpreter implement.

:func:`expr_key` gives a hashable structural fingerprint of an ``ir.expr``
tree so guard facts learned about an expression (``gi < m`` caps the range
of ``gi``) can be recalled at the access site even though the two ``gi``
trees are distinct Python objects.  A walk passes one key memo to every
call, so each distinct node of a shared (DAG) tree is keyed once.
"""
from __future__ import annotations

from typing import Optional

from ..ir.expr import (BinaryExpr, BlockIndex, Call, Cast, Constant, Expr,
                       IfThenElse, TensorElement, ThreadIndex, UnaryExpr, Var)


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


class AffineForm:
    """Sparse linear form ``sum(coeff * term) + const`` over hashable keys.

    The race detector builds affine forms whose terms are tagged with the
    *side* of the conflicting pair they belong to (thread 1 vs thread 2),
    so subtracting two forms tells exactly which symbolic quantities the
    address difference still depends on.
    """

    __slots__ = ('terms', 'const')

    def __init__(self, terms: dict = None, const: int = 0):
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}
        self.const = const

    @staticmethod
    def constant(value: int) -> 'AffineForm':
        return AffineForm({}, value)

    @staticmethod
    def term(key, coeff: int = 1, const: int = 0) -> 'AffineForm':
        return AffineForm({key: coeff}, const)

    @property
    def is_const(self) -> bool:
        return not self.terms

    def __add__(self, other: 'AffineForm') -> 'AffineForm':
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return AffineForm(terms, self.const + other.const)

    def __sub__(self, other: 'AffineForm') -> 'AffineForm':
        return self + other.scaled(-1)

    def scaled(self, factor: int) -> 'AffineForm':
        return AffineForm({k: c * factor for k, c in self.terms.items()},
                          self.const * factor)

    def __repr__(self):
        parts = [f'{c}*{k}' for k, c in sorted(self.terms.items(),
                                               key=lambda kv: repr(kv[0]))]
        parts.append(str(self.const))
        return ' + '.join(parts)
