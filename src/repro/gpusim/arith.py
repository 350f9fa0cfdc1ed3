"""Two arithmetic namespaces for formulas written once.

The work-term formula of the matmul template and the latency formula of the
perf model are each written once, over an :class:`Ops` namespace passed in
by the caller: :data:`SCALAR` (builtins and :mod:`math`) evaluates one
kernel, :data:`ARRAY` (numpy) evaluates a whole candidate list, one row per
candidate.  Both give bit-identical results as long as the integer terms
stay below 2**53 (so int -> float conversion is exact):

* ``+ - * /`` and ``sqrt`` are correctly rounded in IEEE arithmetic, and
  the formulas keep Python's left-to-right operation order;
* ``ceil``, ``minimum``, ``maximum`` and ``where`` are exact;
* integer arithmetic is exact in both: Python ints are unbounded, and the
  array path's integers are integral float64 values, exact below 2**53
  (``ARRAY.ceil`` returns float64).  A float64 product of integers reaches
  2**53 exactly when the true product does, so checking the widest integer
  term against :data:`EXACT_INT_LIMIT` after the fact is sound.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

__all__ = ['Ops', 'SCALAR', 'ARRAY', 'EXACT_INT_LIMIT']

#: integers below this convert to float64 exactly
EXACT_INT_LIMIT = 2 ** 53


class Ops(NamedTuple):
    """The operations a shared formula may use besides ``+ - * /``.

    A named tuple so a formula can unpack it into locals in one step
    (``ceil, sqrt, ... = ops``), which keeps the scalar path as fast as
    inline builtins.
    """

    ceil: Callable          # round up to an integral value
    sqrt: Callable
    minimum: Callable       # elementwise min of two operands
    maximum: Callable
    where: Callable         # where(cond, if_true, if_false)
    to_float: Callable      # integer -> float64


def _where(cond, if_true, if_false):
    return if_true if cond else if_false


def _to_float(x):
    return np.asarray(x, dtype=np.float64)


SCALAR = Ops(ceil=math.ceil, sqrt=math.sqrt, minimum=min, maximum=max,
             where=_where, to_float=float)
ARRAY = Ops(ceil=np.ceil, sqrt=np.sqrt, minimum=np.minimum, maximum=np.maximum,
            where=np.where, to_float=_to_float)
