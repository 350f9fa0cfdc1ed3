"""Hardware-centric schedule spaces (paper §4.3).

The space is built from hardware-aligned tile candidates and is *independent
of the input size*: boundary handling comes from predicated loads, so the
same ~180 matmul schedules apply to 1024³, to 2039³ (a prime!), and to every
convolution lowered to implicit GEMM.  This is what makes exhaustive
enumeration feasible (paper: "Simply enumerating all schedules would be
enough and can be done within one minute").

Contrast with :mod:`repro.baselines.input_space`, the input-centric space of
loop-oriented schedulers, whose size explodes with the divisor structure of
the input extents (Figure 7) and which is *empty of valid tilings* for prime
extents (Figure 19).
"""
from __future__ import annotations

from .schedule import MatmulSchedule, ReduceSchedule
from ..gpusim.device import DeviceSpec, RTX3090

__all__ = ['matmul_schedule_space', 'reduce_schedule_space', 'split_k_candidates']

_BLOCK_WARPS = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 4), (4, 2)]
_WARP_OUTER = [(1, 1), (1, 2), (2, 1), (2, 2)]
_THREAD_LAYOUT = [(4, 8)]
_THREAD_TILE = [(4, 4), (2, 2), (4, 8), (8, 4)]
_BLOCK_K = [8, 16, 32]


def matmul_schedule_space(device: DeviceSpec = RTX3090,
                          double_buffer: bool = True,
                          split_k: int = 1) -> list[MatmulSchedule]:
    """Enumerate the valid matmul schedules for a device (~180 on RTX 3090)."""
    space: list[MatmulSchedule] = []
    for bw in _BLOCK_WARPS:
        for wo in _WARP_OUTER:
            for tl in _THREAD_LAYOUT:
                for tt in _THREAD_TILE:
                    for bk in _BLOCK_K:
                        sched = MatmulSchedule(
                            block_warps=bw, warp_outer=wo, thread_layout=tl,
                            thread_tile=tt, block_k=bk,
                            double_buffer=double_buffer, split_k=split_k)
                        if not sched.is_valid(device):
                            continue
                        # hardware-aligned pruning: keep tiles in the band that
                        # modern GPUs can profit from (cf. CUTLASS tile menu)
                        bm, bn = sched.block_m, sched.block_n
                        if not (16 <= bm <= 256 and 16 <= bn <= 256):
                            continue
                        if max(bm, bn) // min(bm, bn) > 4:
                            continue
                        elems_per_thread = bm * bn // sched.threads
                        if not (16 <= elems_per_thread <= 64):
                            continue
                        space.append(sched)
    return space


def split_k_candidates(m: int, n: int, k: int, device: DeviceSpec = RTX3090) -> list[int]:
    """Parallel-k factors worth trying for a problem (paper §6.3.4).

    Splitting the reduction dimension adds thread blocks, which only pays off
    when the output grid alone cannot saturate the SMs (e.g. convolutions with
    few output pixels but deep reductions).
    """
    candidates = [1]
    approx_blocks = max(1, (m // 64)) * max(1, (n // 64))
    if approx_blocks < device.num_sms * 2 and k >= 256:
        for factor in (2, 4, 8):
            if k // factor >= 64:
                candidates.append(factor)
    return candidates


def reduce_schedule_space(device: DeviceSpec = RTX3090) -> list[ReduceSchedule]:
    """Enumerate reduction-template schedules (a dozen)."""
    space = []
    for block_size in (64, 128, 256, 512):
        for items in (1, 2, 4, 8):
            sched = ReduceSchedule(block_size=block_size, items_per_thread=items)
            if sched.is_valid(device):
                space.append(sched)
    return space
