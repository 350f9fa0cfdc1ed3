"""Input-centric tiling candidates and their kernel statistics.

Loop-oriented schedulers (AutoTVM, Ansor) tile contractions with **perfect
factors of the input extents** (paper §3.3): a candidate exists only when the
tile sizes divide the problem dimensions.  This module generates such
candidates and converts them to :class:`KernelStats` — crucially *without*
double buffering (``overlap = OVERLAP_NONE``), the optimization loop-oriented
scheduling cannot express (§3.1).

The same stats helper also serves the vendor kernel library
(:mod:`repro.baselines.kernel_library`), which does use double buffering but
picks tiles from a fixed menu instead of tuning per shape.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from ..gpusim.arith import SCALAR
from ..gpusim.device import DeviceSpec, RTX3090
from ..gpusim.stats import KernelStats, OVERLAP_DOUBLE_BUFFER, OVERLAP_NONE
from ..sched.matmul_template import matmul_work_terms

__all__ = ['TileConfig', 'divisors', 'factor_splits_count', 'iter_tile_configs',
           'tiled_matmul_stats', 'contraction_dims_of_conv']


@lru_cache(maxsize=4096)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@lru_cache(maxsize=65536)
def factor_splits_count(n: int, parts: int) -> int:
    """Number of ordered factorizations of ``n`` into ``parts`` factors.

    Multiplicative over the prime factorization: a prime power ``p^e`` splits
    into ``parts`` ordered factors in ``C(e + parts - 1, parts - 1)`` ways.
    This is the combinatorial size of a k-level loop split in an
    input-centric space (paper Figure 7).
    """
    count = 1
    remaining = n
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            e = 0
            while remaining % p == 0:
                remaining //= p
                e += 1
            count *= math.comb(e + parts - 1, parts - 1)
        p += 1
    if remaining > 1:
        count *= parts  # one prime with e = 1: C(parts, parts - 1) = parts
    return count


@dataclass(frozen=True)
class TileConfig:
    """One tiling candidate: block tile (bm, bn, bk) and thread tile (tm, tn)."""

    bm: int
    bn: int
    bk: int
    tm: int
    tn: int

    @property
    def threads(self) -> int:
        return (self.bm // self.tm) * (self.bn // self.tn)

    @property
    def smem_bytes(self) -> int:
        return (self.bm + self.bn) * self.bk * 4

    @property
    def regs_per_thread(self) -> int:
        return self.tm * self.tn + self.tm + self.tn + 20

    def is_launchable(self, device: DeviceSpec = RTX3090) -> bool:
        return (32 <= self.threads <= device.max_threads_per_block
                and self.smem_bytes <= device.max_shared_memory_per_block
                and self.regs_per_thread <= device.max_registers_per_thread
                and self.regs_per_thread * self.threads <= device.registers_per_sm)


def iter_tile_configs(m: int, n: int, k: int,
                      device: DeviceSpec = RTX3090) -> Iterator[TileConfig]:
    """All launchable perfect-factor tile configs of an m×n×k contraction.

    This is the *valid* slice of the input-centric space: tile extents must
    divide the problem extents.  For prime sizes (e.g. 2039) the only
    divisors are 1 and the size itself, so nothing launchable survives —
    reproducing the AutoTVM/Ansor failures in paper Figure 19.
    """
    for bm in divisors(m):
        if bm > 512:
            continue
        for bn in divisors(n):
            if bn > 512 or bm * bn > 512 * 128:
                continue
            for bk in divisors(k):
                if bk > 64:
                    continue
                for tm in divisors(bm):
                    if tm > 16:
                        continue
                    for tn in divisors(bn):
                        if tn > 16:
                            continue
                        config = TileConfig(bm, bn, bk, tm, tn)
                        if config.is_launchable(device):
                            yield config


def tiled_matmul_stats(m: int, n: int, k: int, config: TileConfig, name: str,
                       double_buffer: bool = False,
                       batch: int = 1,
                       extra_read_bytes: float = 0.0,
                       extra_write_bytes: float = 0.0,
                       coalesce_factor: float = 1.0,
                       device: DeviceSpec = RTX3090) -> KernelStats:
    """Kernel statistics of a tiled m×n×k contraction under ``config``.

    Evaluates the Hidet template's work terms (no split-k, one ``tm + tn``
    fragment per thread) so comparisons are apples-to-apples; the
    differences are purely the schedule's knobs (tile legality, overlap,
    ILP).
    """
    threads = config.threads
    blocks, flops, gmem_read, gmem_write, smem_traffic, _ = matmul_work_terms(
        SCALAR, m, n, k, config.bm, config.bn, config.bk, 1, threads,
        config.tm + config.tn, batch, device.l2_cache_bytes,
        extra_read_bytes, extra_write_bytes)
    stages = 2 if double_buffer else 1
    return KernelStats(
        name=name,
        grid_blocks=blocks,
        threads_per_block=threads,
        flops=flops,
        gmem_read_bytes=gmem_read,
        gmem_write_bytes=gmem_write,
        smem_bytes_per_block=config.smem_bytes * stages,
        regs_per_thread=config.regs_per_thread + (
            (config.bm + config.bn) * config.bk // max(1, threads) if double_buffer else 0),
        smem_traffic_bytes=smem_traffic,
        overlap=OVERLAP_DOUBLE_BUFFER if double_buffer else OVERLAP_NONE,
        ilp=float(config.tm * config.tn),
        coalesce_factor=coalesce_factor,
    )


def contraction_dims_of_conv(n: int, oc: int, oh: int, ow: int,
                             ic: int, kh: int, kw: int) -> tuple[int, int, int]:
    """The implicit-GEMM dimensions of a dense convolution."""
    return n * oh * ow, oc, ic * kh * kw
