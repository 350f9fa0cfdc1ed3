"""Kernel statistics consumed by the performance model.

Every scheduling path (Hidet templates, rule-based schedules, the baseline
tuners, the kernel library) produces a :class:`KernelStats` describing the
kernel it would launch.  The analytic model in :mod:`.perfmodel` turns stats
into latency.  Stats are *schedule-derived*: tile sizes and pipelining choices
determine memory traffic, resource footprints, and overlap — which is exactly
the level at which the paper's arguments live (double buffering changes
``overlap``; tile shape changes traffic and occupancy; padding wastes flops).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ['KernelStats', 'KernelBatch', 'LaunchStats']

#: pipeline overlap factors (fraction of min(Tc, Tm) hidden by overlap)
OVERLAP_NONE = 0.15          # single-buffered: sync-separated load/compute phases
OVERLAP_DOUBLE_BUFFER = 0.90  # paper Fig. 5: load of next tile overlaps compute
OVERLAP_MULTI_STAGE = 0.95   # >2-stage asynchronous pipeline (cp.async style)


@dataclass(frozen=True)
class KernelStats:
    """Per-kernel resource and work description."""

    name: str
    grid_blocks: int
    threads_per_block: int
    flops: float                    # useful+padded floating-point operations
    gmem_read_bytes: float          # DRAM reads
    gmem_write_bytes: float         # DRAM writes
    smem_bytes_per_block: int = 0   # static shared memory footprint
    regs_per_thread: int = 32
    smem_traffic_bytes: float = 0.0  # total shared-memory traffic
    overlap: float = OVERLAP_NONE   # memory/compute overlap factor in [0, 1]
    ilp: float = 1.0                # per-thread independent-work proxy (>= 1)
    coalesce_factor: float = 1.0    # fraction of DRAM bandwidth usable (0..1]
    smem_conflict_factor: float = 1.0  # >= 1; bank-conflict slowdown on smem
    is_memory_bound_hint: bool = False

    def __post_init__(self):
        if self.grid_blocks <= 0 or self.threads_per_block <= 0:
            raise ValueError(f'kernel {self.name!r}: empty launch configuration')
        if not (0.0 <= self.overlap <= 1.0):
            raise ValueError(f'kernel {self.name!r}: overlap must be in [0, 1]')
        if self.coalesce_factor <= 0 or self.coalesce_factor > 1:
            raise ValueError(f'kernel {self.name!r}: coalesce_factor must be in (0, 1]')

    @property
    def gmem_bytes(self) -> float:
        return self.gmem_read_bytes + self.gmem_write_bytes

    def scaled(self, factor: float) -> 'KernelStats':
        """Scale the work terms (used when batching identical sub-kernels)."""
        return replace(
            self,
            grid_blocks=max(1, int(self.grid_blocks * factor)),
            flops=self.flops * factor,
            gmem_read_bytes=self.gmem_read_bytes * factor,
            gmem_write_bytes=self.gmem_write_bytes * factor,
            smem_traffic_bytes=self.smem_traffic_bytes * factor,
        )


@dataclass(frozen=True)
class KernelBatch:
    """Many launches of one kernel as a struct of arrays, one row per launch
    (e.g. one row per tuning candidate).  Fields mirror :class:`KernelStats`
    and may be arrays or scalars broadcast over the rows;
    ``resident_blocks_per_sm`` is the occupancy limit of each row's block
    footprint (:meth:`repro.gpusim.perfmodel.PerfModel.occupancy`), which
    stands in for the shared-memory and register fields."""

    grid_blocks: np.ndarray
    threads_per_block: np.ndarray
    regs_per_thread: np.ndarray
    resident_blocks_per_sm: np.ndarray
    flops: np.ndarray
    gmem_bytes: np.ndarray
    smem_traffic_bytes: np.ndarray
    overlap: np.ndarray
    ilp: np.ndarray
    coalesce_factor: float = 1.0
    smem_conflict_factor: float = 1.0

    def launchable(self) -> np.ndarray:
        """Rows that pass :class:`KernelStats`' launch validation and fit
        on an SM at least once."""
        return ((self.grid_blocks > 0) & (self.threads_per_block > 0)
                & (0.0 <= self.overlap) & (self.overlap <= 1.0)
                & (self.coalesce_factor > 0) & (self.coalesce_factor <= 1)
                & (self.resident_blocks_per_sm >= 1))


@dataclass(frozen=True)
class LaunchStats:
    """A kernel's estimated latency breakdown (returned by the perf model)."""

    latency: float                 # seconds, including launch overhead
    compute_time: float
    memory_time: float
    smem_time: float
    occupancy: float
    resident_blocks_per_sm: int
    waves: float
    limited_by: str

    @property
    def bound(self) -> str:
        """Which roofline term dominates."""
        terms = {'compute': self.compute_time, 'memory': self.memory_time,
                 'shared': self.smem_time}
        return max(terms, key=lambda k: terms[k])
