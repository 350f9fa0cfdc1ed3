"""The one percentile implementation every layer shares.

Before this module existed, :mod:`repro.serve.stats`, the fleet's rolling
p99 window, and several experiment modules each called ``np.percentile``
independently — same math today, but nothing kept the interpolation rule
from drifting apart (and a pure-python caller would have had to reinvent
it).  Every p50/p95/p99 the repo reports now funnels through
:func:`percentile`, so "p99" means exactly one thing everywhere: linear
interpolation between closest ranks, NaN for an empty sample (undefined —
and NaN never fakes an SLO pass).
"""
from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ['percentile', 'is_nan']


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    ``q`` is in ``[0, 100]``.  Accepts any iterable (list, generator,
    numpy array); an empty sample returns ``nan`` rather than raising, so
    a run with zero completions still reports instead of crashing.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f'percentile q must be in [0, 100], got {q}')
    arr = np.asarray(values if isinstance(values, (np.ndarray, list, tuple))
                     else list(values), dtype=float)
    if arr.size == 0:
        return float('nan')
    return float(np.percentile(arr, q))


def is_nan(value: float) -> bool:
    """``math.isnan`` that tolerates non-floats (ints compare False)."""
    try:
        return math.isnan(value)
    except TypeError:
        return False
