"""Affine forms over hashable terms, for the race detector's proofs.

The integer range domain (``Interval``, ``IntervalEnv``, ``expr_key``)
lives in :mod:`repro.ir.intervals`, shared with the simplifier.
"""
from __future__ import annotations


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
