"""Analytic kernel-latency model (the reproduction's GPU).

The model combines the classic ingredients that drive the paper's results:

1. **Occupancy-aware efficiency.**  A kernel reaches a fraction of peak
   compute/bandwidth that grows with warp occupancy; per-thread ILP (large
   register tiles) lowers the occupancy needed to hide latency (so big tiles
   win until they kill occupancy — the central matmul trade-off).
2. **Roofline terms.**  ``Tc = flops / (peak_flops·eff_c)``,
   ``Tm = bytes / (peak_bw·eff_m·coalesce)``, plus a shared-memory term.
3. **Pipeline overlap.**  ``T = max(Tc, Tm) + (1 − α)·min(Tc, Tm)``: with
   single buffering (α≈0.15) loads and MMAs serialize at every tile
   (Figure 3); double buffering (α≈0.9, Figure 5) overlaps them.  This is the
   optimization loop-oriented scheduling cannot express (paper §3.1).
4. **Wave quantization.**  Latency scales with ``ceil(waves)/waves`` where a
   wave is one resident set of blocks across all SMs — few big blocks
   under-fill the GPU (Figure 20's batch-size behaviour).
5. **Fixed costs.**  Kernel launch overhead and a minimum block latency.

Registers beyond the hardware budget trigger a spill penalty instead of a
hard failure (mirroring ``nvcc`` behaviour with ``-maxrregcount``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import ARRAY, SCALAR, Ops
from .device import DeviceSpec, RTX3090
from .occupancy import Occupancy, compute_occupancy
from .stats import KernelBatch, KernelStats, LaunchStats

__all__ = ['PerfModel', 'ModelParams']


@dataclass(frozen=True)
class ModelParams:
    """Calibration constants of the latency model (documented in EXPERIMENTS.md)."""

    base_compute_efficiency: float = 0.88   # fp32 FMA issue efficiency at full occupancy
    base_memory_efficiency: float = 0.92    # achievable fraction of DRAM bandwidth
    compute_occ_demand: float = 0.45        # occupancy needed for full compute rate at ILP=1
    memory_occ_demand: float = 0.55         # occupancy needed to saturate DRAM at ILP=1
    min_occ_demand: float = 0.08            # floor of the occupancy demand after ILP discount
    spill_penalty_per_reg: float = 0.012    # compute slowdown per spilled register
    min_block_latency: float = 1.2e-6       # seconds: smallest useful block execution
    divergence_floor: float = 0.02          # efficiency floor


class PerfModel:
    """Latency estimator for a device; stateless apart from its constants."""

    def __init__(self, device: DeviceSpec = RTX3090, params: ModelParams = ModelParams()):
        self.device = device
        self.params = params

    # ------------------------------------------------------------------

    def occupancy(self, threads_per_block: int, smem_bytes_per_block: int,
                  regs_per_thread: int) -> Occupancy:
        """Resident blocks of one block footprint; registers beyond the
        device budget spill instead of limiting occupancy."""
        return compute_occupancy(
            self.device, threads_per_block, smem_bytes_per_block,
            min(regs_per_thread, self.device.max_registers_per_thread))

    def estimate(self, stats: KernelStats) -> LaunchStats:
        occ = self.occupancy(stats.threads_per_block,
                             stats.smem_bytes_per_block, stats.regs_per_thread)
        if not occ.viable:
            raise ValueError(
                f'kernel {stats.name!r} cannot launch: limited by {occ.limited_by} '
                f'(threads={stats.threads_per_block}, smem={stats.smem_bytes_per_block}, '
                f'regs={stats.regs_per_thread})')
        latency, t_compute, t_memory, t_smem, occupancy, concurrent_per_sm, waves = \
            _launch_terms(SCALAR, self.device, self.params, stats.grid_blocks,
                          stats.threads_per_block, stats.regs_per_thread,
                          occ.resident_blocks_per_sm, stats.flops,
                          stats.gmem_bytes, stats.smem_traffic_bytes,
                          stats.smem_conflict_factor, stats.overlap, stats.ilp,
                          stats.coalesce_factor)
        return LaunchStats(
            latency=latency,
            compute_time=t_compute,
            memory_time=t_memory,
            smem_time=t_smem,
            occupancy=occupancy,
            resident_blocks_per_sm=concurrent_per_sm,
            waves=waves,
            limited_by=occ.limited_by,
        )

    def estimate_batch(self, kernels: KernelBatch) -> np.ndarray:
        """Latency (seconds) of every row of ``kernels``, bit-identical to
        :meth:`latency` on the same row.  Every row must pass
        :meth:`KernelBatch.launchable`; the caller reports the others."""
        k = kernels
        return _launch_terms(ARRAY, self.device, self.params, k.grid_blocks,
                             k.threads_per_block, k.regs_per_thread,
                             k.resident_blocks_per_sm, k.flops, k.gmem_bytes,
                             k.smem_traffic_bytes, k.smem_conflict_factor,
                             k.overlap, k.ilp, k.coalesce_factor)[0]

    def latency(self, stats: KernelStats) -> float:
        """Seconds for one launch of the kernel."""
        return self.estimate(stats).latency


def _launch_terms(ops: Ops, device: DeviceSpec, params: ModelParams,
                  grid_blocks, threads_per_block, regs_per_thread,
                  resident_blocks_per_sm, flops, gmem_bytes,
                  smem_traffic_bytes, smem_conflict_factor, overlap, ilp,
                  coalesce_factor):
    """The latency formula, over scalars (:data:`SCALAR`) or one array row
    per launch (:data:`ARRAY`).  ``resident_blocks_per_sm`` is the
    occupancy limit of the block footprint (:meth:`PerfModel.occupancy`).

    Returns ``(latency, compute_time, memory_time, smem_time, occupancy,
    concurrent_blocks_per_sm, waves)``.
    """
    ceil, sqrt, minimum, maximum, where, to_float = ops
    spilled = maximum(0, regs_per_thread - device.max_registers_per_thread)

    # 1. actual concurrency: the grid may not fill the resource limit
    concurrent_per_sm = minimum(resident_blocks_per_sm,
                                ceil(grid_blocks / device.num_sms))
    warps_per_block = ceil(threads_per_block / device.warp_size)
    occupancy = minimum(1.0, concurrent_per_sm * warps_per_block
                        / device.max_warps_per_sm)

    # 2. occupancy-driven efficiencies, discounted by per-thread ILP
    root_ilp = sqrt(maximum(1.0, ilp))
    c_demand = maximum(params.min_occ_demand, params.compute_occ_demand / root_ilp)
    m_demand = maximum(params.min_occ_demand, params.memory_occ_demand / root_ilp)
    eff_c = params.base_compute_efficiency * minimum(1.0, occupancy / c_demand)
    eff_m = params.base_memory_efficiency * minimum(1.0, occupancy / m_demand)
    # spilled registers slow compute down (dividing by 1.0 is exact)
    eff_c = eff_c / (1.0 + params.spill_penalty_per_reg * spilled)
    eff_c = maximum(params.divergence_floor, eff_c)
    eff_m = maximum(params.divergence_floor, eff_m)

    # 3. roofline terms (aggregate over the whole launch)
    t_compute = flops / (device.peak_flops * eff_c)
    t_memory = gmem_bytes / (device.peak_bandwidth * eff_m * coalesce_factor)
    t_smem = (smem_traffic_bytes * smem_conflict_factor
              / device.peak_shared_bandwidth)

    # 4. pipeline overlap between DRAM traffic and compute
    t_body = (maximum(t_compute, t_memory)
              + (1.0 - overlap) * minimum(t_compute, t_memory))
    t_body = maximum(t_body, t_smem)

    # 5. wave quantization: latency rounds up to whole waves of resident
    #    blocks; a fractional wave also covers idle-SM underutilization
    capacity = concurrent_per_sm * device.num_sms
    waves = grid_blocks / capacity
    whole_waves = ceil(waves)
    t_body = t_body * (whole_waves / waves)

    # 6. fixed costs
    t_body = maximum(t_body, params.min_block_latency * whole_waves)
    latency = t_body + device.kernel_launch_overhead
    return (latency, t_compute, t_memory, t_smem, occupancy,
            concurrent_per_sm, waves)
