"""Simulated wall-clock for tuning-cost accounting (paper Figure 17).

Tuners charge the clock for compilation and measurement work; parallel
compilation across CPU cores (the paper's testbed has a 24-thread CPU) is
modeled by dividing batch compile time by the worker count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ['SimulatedClock', 'TuningCosts']


@dataclass(frozen=True)
class TuningCosts:
    """Per-trial cost constants of a tuning system (seconds)."""

    compile_seconds: float          # compile one candidate kernel
    measure_seconds: float          # benchmark one candidate on the GPU
    search_overhead_seconds: float = 0.0   # per-round search/cost-model time
    parallel_compile_workers: int = 1


class SimulatedClock:
    """Accumulates simulated seconds of tuning work."""

    def __init__(self):
        self._elapsed = 0.0
        self.events: list[tuple[str, float]] = []

    @property
    def elapsed_seconds(self) -> float:
        return self._elapsed

    def charge(self, label: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError('cannot charge negative time')
        self._elapsed += seconds
        self.events.append((label, seconds))

    def charge_compile_batch(self, costs: TuningCosts, num_candidates: int,
                             label: str = 'compile') -> None:
        """Compile ``num_candidates`` kernels on a parallel worker pool."""
        workers = max(1, costs.parallel_compile_workers)
        # ceil-div batches: workers compile concurrently, measurement is serial
        batches = math.ceil(num_candidates / workers)
        self.charge(label, batches * costs.compile_seconds)

    def charge_measurements(self, costs: TuningCosts, num_candidates: int,
                            label: str = 'measure') -> None:
        self.charge(label, num_candidates * costs.measure_seconds)

    def summary(self) -> dict[str, float]:
        by_label: dict[str, float] = {}
        for label, seconds in self.events:
            by_label[label] = by_label.get(label, 0.0) + seconds
        return by_label
