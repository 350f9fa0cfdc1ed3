"""Seed corpus for the learned cost model.

A cost model can only rank what it has seen measured, and a cold cache has
seen nothing — the first model through a guided executor would fall back to
exhaustive tuning anyway.  Seeding replaces that accidental curriculum with
a deliberate one: a small, *diverse* set of synthetic matmul problems
(transformer projections, im2col'd convolutions, batched attention heads,
small-`m` tail blocks) measured over a strided subsample of the schedule
space.  Measurements are problem+schedule keyed, not space keyed, so a
subsampled space yields perfectly valid training rows at a fraction of the
bill — the corpus below costs roughly half of exhaustively tuning the
smallest zoo model, and every measurement is charged to the simulated clock
like any other tuning work (the trajectory experiments count it against the
guided arm).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.tuning import HIDET_TUNING_COSTS, MatmulTuner
from ..gpusim.clock import SimulatedClock
from ..gpusim.device import DeviceSpec, RTX3090
from ..runtime.cache import MeasurementRecord, ScheduleCache
from ..sched.space import matmul_schedule_space

__all__ = ['DEFAULT_SEED_PROBLEMS', 'SeedReport', 'seed_cost_model']

#: (m, n, k, batch) — one problem per GEMM regime the zoo exercises:
#: transformer QKV/MLP projections, a mid square, a batched attention head,
#: im2col'd convolutions across their awkward corners (wide-m stems,
#: skinny-n/tiny-k pointwise convs, small-m deep-k tails).  The narrow conv
#: shapes matter most: without them the model extrapolates into the
#: skinny-GEMM regime, miscalibrates, and every such task falls back to a
#: full enumeration
DEFAULT_SEED_PROBLEMS: tuple[tuple[int, int, int, int], ...] = (
    (128, 768, 768, 1),
    (128, 3072, 768, 1),
    (512, 512, 512, 1),
    (3136, 64, 576, 1),
    (784, 128, 1152, 1),
    (49, 2048, 512, 1),
    (128, 128, 64, 12),
    (1225, 48, 192, 1),
    (12544, 96, 16, 1),
    (784, 32, 144, 1),
    (196, 96, 384, 1),
    (64, 192, 1280, 1),
)


@dataclass(frozen=True)
class SeedReport:
    """What seeding measured and what it cost."""

    problems: int
    #: measurement records newly added to the cache
    records: int
    #: candidate measurements charged to the clock
    measurements: int
    #: simulated seconds the seeding cost
    tuning_seconds: float


def seed_cost_model(cache: ScheduleCache, device: DeviceSpec = RTX3090,
                    problems: Sequence[tuple[int, int, int, int]] = DEFAULT_SEED_PROBLEMS,
                    space=None, space_stride: int = 2,
                    clock: Optional[SimulatedClock] = None) -> SeedReport:
    """Measure a seed corpus into ``cache`` for cost-model training.

    Tunes each ``(m, n, k, batch)`` problem exhaustively over every
    ``space_stride``-th schedule of the space (the subsample keeps the
    corpus diverse while cutting its cost proportionally) and records every
    measurement.  The tuning bill lands on ``clock`` — seeding is not free,
    and honest trajectory accounting must include it.
    """
    if space is None:
        space = matmul_schedule_space(device)
    space = list(space)
    if space_stride > 1:
        space = space[::space_stride]
    clock = clock if clock is not None else SimulatedClock()
    start = clock.elapsed_seconds
    tuner = MatmulTuner(device, HIDET_TUNING_COSTS, clock)
    records = 0
    for m, n, k, batch in problems:
        result = tuner.tune(m, n, k, space=space, batch=batch)
        for sched, latency in result.latencies.items():
            if cache.record_measurement(MeasurementRecord(
                    kind='matmul', m=m, n=n, k=k, batch=batch,
                    schedule=sched, latency=latency)):
                records += 1
    return SeedReport(problems=len(problems), records=records,
                      measurements=tuner.measurements_charged,
                      tuning_seconds=clock.elapsed_seconds - start)
