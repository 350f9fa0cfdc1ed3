"""A cuDNN/cuBLAS-like vendor kernel library.

"Kernel libraries provide a collection of highly optimized hand-crafted
kernels ... near-peak performance on widely used input sizes" (paper §1).
We model that as:

* a **fixed tile menu** (the CUTLASS-style shapes vendors ship) with double
  buffering — so the kernels themselves are excellent;
* a **heuristic tile pick** by output size — no per-input-size tuning, so
  unusual shapes get a sub-optimal kernel (padding waste, under-filled SMs);
* **no parallel-k** and only built-in epilogues (bias/ReLU), no arbitrary
  fusion — the gap Hidet exploits in Figures 16/20/21.
"""
from __future__ import annotations

import math

from .tiling import TileConfig, tiled_matmul_stats, contraction_dims_of_conv
from ..gpusim.device import DeviceSpec, RTX3090
from ..gpusim.stats import KernelStats, OVERLAP_NONE

__all__ = ['KernelLibrary']

#: the library's GEMM tile menu: (bm, bn, bk, tm, tn)
_GEMM_MENU = [
    TileConfig(256, 128, 16, 8, 8),
    TileConfig(128, 256, 16, 8, 8),
    TileConfig(128, 128, 16, 8, 8),
    TileConfig(128, 64, 16, 8, 4),
    TileConfig(64, 128, 16, 4, 8),
    TileConfig(64, 64, 16, 4, 4),
    TileConfig(32, 64, 32, 4, 4),
    TileConfig(64, 32, 32, 4, 4),
]


class KernelLibrary:
    """Latency provider for library-backed executors (PyTorch / ORT / TensorRT)."""

    def __init__(self, device: DeviceSpec = RTX3090):
        self.device = device

    # -- GEMM -----------------------------------------------------------------

    def pick_gemm_tile(self, m: int, n: int, k: int, batch: int = 1) -> TileConfig:
        """Heuristic tile selection, mimicking cuBLAS's shape buckets: the
        largest menu tile that occupies the SMs without excessive padding
        waste; if none qualifies, the one maximizing parallelism."""
        def blocks(config: TileConfig) -> int:
            return math.ceil(m / config.bm) * math.ceil(n / config.bn) * batch

        def waste(config: TileConfig) -> float:
            padded = (math.ceil(m / config.bm) * config.bm
                      * math.ceil(n / config.bn) * config.bn)
            return padded / float(m * n)

        for config in _GEMM_MENU:                       # menu ordered large -> small
            if blocks(config) >= self.device.num_sms and waste(config) <= 1.25:
                return config
        return max(_GEMM_MENU, key=lambda c: (blocks(c), -waste(c)))

    def gemm_stats(self, m: int, n: int, k: int, batch: int = 1,
                   name: str = 'lib_gemm',
                   fused_epilogue_bytes: float = 0.0) -> KernelStats:
        """One-shot heuristic pick (no per-shape timing — that is TensorRT's
        tactic selection, not the library's dispatch)."""
        config = self.pick_gemm_tile(m, n, k, batch)
        return tiled_matmul_stats(m, n, k, config, name=name,
                                  double_buffer=True, batch=batch,
                                  extra_read_bytes=fused_epilogue_bytes,
                                  device=self.device)

    # -- convolution ----------------------------------------------------------

    def conv_stats(self, n: int, ic: int, ih: int, iw: int, oc: int,
                   kh: int, kw: int, stride: int, padding, groups: int = 1,
                   name: str = 'lib_conv',
                   fused_epilogue_bytes: float = 0.0) -> KernelStats:
        """cuDNN-like convolution: internal implicit GEMM on dense convs,
        a specialized (good) depthwise kernel for grouped depthwise convs."""
        ph = padding if isinstance(padding, int) else padding[0]
        pw = padding if isinstance(padding, int) else padding[1]
        oh = (ih + 2 * ph - kh) // stride + 1
        ow = (iw + 2 * pw - kw) // stride + 1
        if groups == 1:
            m, nn, kk = contraction_dims_of_conv(n, oc, oh, ow, ic, kh, kw)
            stats = self.gemm_stats(m, nn, kk, name=name,
                                    fused_epilogue_bytes=fused_epilogue_bytes)
            if kh == kw == 3 and stride == 1:
                # cuDNN dispatches 3x3/s1 convolutions to Winograd (F(2x2,3x3)
                # through F(4x4,3x3)): ~3x fewer multiplies at ~15% extra traffic.  This
                # is the classic reason vendor libraries win back at larger
                # batch sizes (paper Figure 20's crossover).
                from dataclasses import replace
                stats = replace(stats, name=f'{name}_winograd',
                                flops=stats.flops / 3.0,
                                gmem_read_bytes=stats.gmem_read_bytes * 1.15,
                                smem_traffic_bytes=stats.smem_traffic_bytes / 2.0)
            return stats
        # depthwise/grouped: the vendor kernel is serviceable but generic
        # (tuned schedulers beat it; paper Figure 16's MobileNetV2 discussion)
        out_elems = n * oc * oh * ow
        in_bytes = n * ic * ih * iw * 4 + oc * (ic // groups) * kh * kw * 4
        return KernelStats(
            name=f'{name}_grouped',
            grid_blocks=max(1, math.ceil(out_elems / 256)),
            threads_per_block=256,
            flops=2.0 * out_elems * (ic // groups) * kh * kw,
            gmem_read_bytes=float(in_bytes) * 3.2 + fused_epilogue_bytes,
            gmem_write_bytes=float(out_elems * 4),
            regs_per_thread=40,
            smem_bytes_per_block=8 * 1024,
            ilp=4.0,
            overlap=OVERLAP_NONE,
            coalesce_factor=0.50,
            is_memory_bound_hint=True,
        )

    # -- memory-bound service kernels ------------------------------------------

    def elementwise_stats(self, num_elements: int, num_inputs: int = 1,
                          name: str = 'lib_elementwise') -> KernelStats:
        return KernelStats(
            name=name,
            grid_blocks=max(1, math.ceil(num_elements / 256)),
            threads_per_block=256,
            flops=2.0 * num_elements,
            gmem_read_bytes=float(num_elements * 4 * num_inputs),
            gmem_write_bytes=float(num_elements * 4),
            regs_per_thread=24,
            ilp=4.0,
            overlap=OVERLAP_NONE,
            is_memory_bound_hint=True,
        )

    def reduce_stats(self, rows: int, cols: int, name: str = 'lib_reduce') -> KernelStats:
        return KernelStats(
            name=name,
            grid_blocks=max(1, rows),
            threads_per_block=256,
            flops=2.0 * rows * cols,
            gmem_read_bytes=float(rows * cols * 4),
            gmem_write_bytes=float(rows * 4),
            smem_bytes_per_block=1024,
            regs_per_thread=28,
            ilp=4.0,
            overlap=OVERLAP_NONE,
            is_memory_bound_hint=True,
        )
