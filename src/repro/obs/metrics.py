"""Metrics registry: counters, sim-time gauges, and one histogram type.

The serving stack used to keep its numbers in ad-hoc dataclass fields and
parallel accumulators — :class:`~repro.serve.stats.ServeStats` percentiled
one latency list, :mod:`repro.runtime.profiler` summarized another with its
own dataclass, the fleet counted lifecycle transitions in a third place.
This module is the single vocabulary they all speak now:

* :class:`Counter` — a monotonically increasing total (requests completed,
  cache hits by tier, tuning seconds);
* :class:`Gauge` — a value sampled over **simulated** time (queue depth,
  committed DRAM, serving replicas), kept as a ``(t, value)`` series so a
  run's shape is inspectable after the fact;
* :class:`Histogram` — a value distribution (serve latencies, batch
  occupancy, compile-time measurements) whose percentile math is the shared
  :mod:`repro.obs.percentiles` helper and whose summary is the same
  :class:`Measurement` the compile-time profiler returns — one histogram
  type for compile-time and serve-time alike;
* :class:`MetricsRegistry` — get-or-create by name, snapshot to plain
  dicts, and a text report.

Everything here is host-cheap (list appends and dict lookups) and knows
nothing about the serving stack — ``repro.obs`` sits below ``repro.serve``
and ``repro.runtime`` in the import graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .percentiles import percentile

__all__ = ['Counter', 'Gauge', 'Histogram', 'Measurement', 'MetricsRegistry']


@dataclass(frozen=True)
class Measurement:
    """Summary of repeated measurements of one quantity: what the
    compile-time profiler returns, and what any :class:`Histogram`
    summarizes to through :meth:`Histogram.measurement`."""

    mean_ms: float
    std_ms: float
    repeats: int

    def __str__(self) -> str:
        return f'{self.mean_ms:.3f} ms (±{self.std_ms:.3f}, n={self.repeats})'


class Counter:
    """A monotonically increasing total (float-valued, starts at 0)."""

    def __init__(self, name: str, unit: str = ''):
        self.name = name
        self.unit = unit
        self.value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f'counter {self.name!r} cannot decrease '
                             f'(add({amount}))')
        self.value += amount

    def snapshot(self) -> dict:
        return {'type': 'counter', 'value': self.value, 'unit': self.unit}


class Gauge:
    """A value sampled over simulated time, kept as a ``(t, value)`` series.

    ``set(t, value)`` appends a sample; ``last`` is the most recent value
    (NaN before the first sample).  The series is whatever order the caller
    sampled in — simulated time is monotone within one run, so it arrives
    sorted in practice, and :meth:`series` returns it untouched.
    """

    def __init__(self, name: str, unit: str = ''):
        self.name = name
        self.unit = unit
        self._samples: list[tuple[float, float]] = []

    def set(self, t: float, value: float) -> None:
        self._samples.append((t, value))

    @property
    def last(self) -> float:
        return self._samples[-1][1] if self._samples else float('nan')

    @property
    def num_samples(self) -> int:
        return len(self._samples)

    def series(self) -> list[tuple[float, float]]:
        return list(self._samples)

    def max(self) -> float:
        return (max(v for _, v in self._samples) if self._samples
                else float('nan'))

    def snapshot(self) -> dict:
        return {'type': 'gauge', 'last': self.last, 'max': self.max(),
                'num_samples': self.num_samples, 'unit': self.unit}


class Histogram:
    """A value distribution with shared-percentile summaries.

    One type for both sides of the stack: the compile-time profiler's
    repeated latency measurements and the serving simulator's per-request
    latencies observe into the same structure, percentile through the same
    :func:`repro.obs.percentiles.percentile`, and summarize to the same
    :class:`Measurement`.
    """

    def __init__(self, name: str, unit: str = ''):
        self.name = name
        self.unit = unit
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        self._values.append(float(value))

    def observe_many(self, values: Iterable[float]) -> None:
        self._values.extend(float(v) for v in values)

    @property
    def count(self) -> int:
        return len(self._values)

    def values(self) -> list[float]:
        return list(self._values)

    def percentile(self, q: float) -> float:
        return percentile(self._values, q)

    def mean(self) -> float:
        return float(np.mean(self._values)) if self._values else float('nan')

    def std(self) -> float:
        return float(np.std(self._values)) if self._values else float('nan')

    def max(self) -> float:
        return float(np.max(self._values)) if self._values else float('nan')

    def min(self) -> float:
        return float(np.min(self._values)) if self._values else float('nan')

    def measurement(self) -> Measurement:
        """This distribution as the profiler's :class:`Measurement`."""
        return Measurement(mean_ms=self.mean(), std_ms=self.std(),
                           repeats=self.count)

    def snapshot(self) -> dict:
        return {'type': 'histogram', 'count': self.count,
                'mean': self.mean(), 'p50': self.percentile(50),
                'p95': self.percentile(95), 'p99': self.percentile(99),
                'max': self.max(), 'unit': self.unit}


class MetricsRegistry:
    """Named metrics, get-or-create, one namespace per run.

    ``counter(name)`` / ``gauge(name)`` / ``histogram(name)`` return the
    existing metric or create it; asking for an existing name as a
    different kind raises (one name, one meaning).  :meth:`snapshot` folds
    everything into plain dicts (JSON-ready); :meth:`merge` adopts another
    registry's metrics that this one does not have yet — the path by which
    a run's sampled gauges (queue depth, replica count) join the fold-time
    derived metrics in one report.
    """

    def __init__(self):
        self._metrics: dict[str, object] = {}

    def _get_or_create(self, name: str, kind, unit: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, unit=unit)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f'metric {name!r} already exists as '
                f'{type(metric).__name__}, not {kind.__name__}')
        return metric

    def counter(self, name: str, unit: str = '') -> Counter:
        return self._get_or_create(name, Counter, unit)

    def gauge(self, name: str, unit: str = '') -> Gauge:
        return self._get_or_create(name, Gauge, unit)

    def histogram(self, name: str, unit: str = '') -> Histogram:
        return self._get_or_create(name, Histogram, unit)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str):
        return self._metrics[name]

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def merge(self, other: Optional['MetricsRegistry']) -> 'MetricsRegistry':
        """Adopt ``other``'s metrics under names this registry lacks.

        Existing names win (no double counting when a fold re-derives a
        total the run also counted live under the same name); the adopted
        metric objects are shared, not copied.  Returns ``self``.
        """
        if other is not None:
            for name, metric in other._metrics.items():
                self._metrics.setdefault(name, metric)
        return self

    def snapshot(self) -> dict[str, dict]:
        """Every metric as a plain dict, keyed by name (sorted)."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}

