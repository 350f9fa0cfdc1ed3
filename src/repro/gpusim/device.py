"""GPU device specifications for the analytic performance model.

The default device mirrors the paper's testbed GPU (NVIDIA GeForce RTX 3090,
Ampere GA102): 82 SMs, 936 GB/s GDDR6X, 35.6 fp32 TFLOPS.  The numbers here
feed :mod:`repro.gpusim.perfmodel`; they are public so experiments can also
run on alternative devices (an A100-like and a laptop-class part are
provided, used by ablation benchmarks).
"""
from __future__ import annotations

from dataclasses import astuple, dataclass, field
from functools import cached_property

__all__ = ['DeviceSpec', 'device_family_key', 'RTX3090', 'A100', 'LAPTOP_GPU']


@dataclass(frozen=True)
class DeviceSpec:
    """Static hardware parameters of a CUDA-capable GPU."""

    name: str
    num_sms: int
    warp_size: int = 32
    max_threads_per_block: int = 1024
    max_threads_per_sm: int = 1536
    max_blocks_per_sm: int = 16
    registers_per_sm: int = 65536
    max_registers_per_thread: int = 255
    shared_memory_per_sm: int = 100 * 1024       # bytes usable for smem
    max_shared_memory_per_block: int = 48 * 1024  # bytes without opt-in
    peak_fp32_tflops: float = 35.6
    peak_bandwidth_gbps: float = 936.0            # GB/s
    shared_bandwidth_ratio: float = 19.0          # smem bw as multiple of DRAM bw
    kernel_launch_overhead: float = 4e-6          # seconds per kernel launch
    l2_cache_bytes: int = 6 * 1024 * 1024
    memory_bytes: int = 24 * 1024 ** 3            # DRAM capacity (RTX 3090: 24 GiB)

    @property
    def peak_flops(self) -> float:
        """Peak fp32 FLOP/s."""
        return self.peak_fp32_tflops * 1e12

    @property
    def peak_bandwidth(self) -> float:
        """Peak DRAM bandwidth in bytes/s."""
        return self.peak_bandwidth_gbps * 1e9

    @property
    def peak_shared_bandwidth(self) -> float:
        return self.peak_bandwidth * self.shared_bandwidth_ratio

    @property
    def max_warps_per_sm(self) -> int:
        return self.max_threads_per_sm // self.warp_size

    @cached_property
    def key(self) -> tuple:
        """Canonical description of the device: its field values in
        declaration order (``dataclasses.astuple``), computed once per spec
        (cache signatures hash it)."""
        return astuple(self)


def device_family_key(device: DeviceSpec) -> tuple:
    """Launch-compatibility class of a device (the cross-device transfer gate).

    Two devices belong to the same *family* when a candidate kernel
    enumerated for one can at least launch on the other: the per-block and
    per-thread limits that bound the schedule space must agree.  Capacity
    parameters (SM count, bandwidth, peak FLOPS, shared memory per SM, DRAM
    capacity) are deliberately excluded — they change which candidate is *fastest*, which
    re-measurement on the local device handles, not which candidates exist.
    Per-candidate differences inside a family (e.g. a schedule whose shared
    memory tile exceeds a smaller device's per-block limit) are caught by
    :meth:`~repro.core.schedule.MatmulSchedule.is_valid` at transfer time.
    """
    return (device.warp_size, device.max_threads_per_block,
            device.max_registers_per_thread)


#: The paper's evaluation GPU (Section 6.1).
RTX3090 = DeviceSpec(name='RTX3090', num_sms=82)

#: Data-center Ampere part, used by ablation benches.
A100 = DeviceSpec(
    name='A100', num_sms=108, max_threads_per_sm=2048, max_blocks_per_sm=32,
    shared_memory_per_sm=164 * 1024, peak_fp32_tflops=19.5,
    peak_bandwidth_gbps=1555.0, memory_bytes=40 * 1024 ** 3,
)

#: A small laptop-class GPU (for sensitivity studies).
LAPTOP_GPU = DeviceSpec(
    name='LaptopGPU', num_sms=30, peak_fp32_tflops=10.9, peak_bandwidth_gbps=360.0,
    memory_bytes=8 * 1024 ** 3,
)
