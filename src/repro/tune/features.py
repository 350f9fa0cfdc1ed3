"""Schedule featurization for the learned cost model.

A candidate :class:`~repro.sched.schedule.MatmulSchedule` applied to a
concrete problem becomes a fixed-width numeric vector.  The features are
deliberately *model-shaped* rather than raw: they are the quantities the
analytic performance model (:mod:`repro.gpusim.perfmodel`) says matter —
log-scale work terms from :func:`repro.sched.matmul_template.matmul_stats`,
the occupancy summary from :func:`repro.gpusim.occupancy.occupancy_features`
(including the limiting-resource one-hot), launch geometry (wave count, tail
efficiency), and the schedule's own shape knobs.  A ridge regressor over
these terms in log-latency space is enough to rank a hardware-centric
candidate set, because latency is (to first order) a max of a few products
of them.

Everything here is pure, deterministic python: the same
``(device, problem, schedule)`` always yields the same vector, bit for bit —
the cost-model determinism tests rely on that.
"""
from __future__ import annotations

import math

from ..gpusim.device import DeviceSpec, RTX3090
from ..gpusim.occupancy import OCCUPANCY_FEATURE_NAMES, occupancy_features
from ..sched.matmul_template import matmul_stats
from ..sched.schedule import MatmulSchedule

__all__ = ['FEATURE_NAMES', 'featurize']


def _log2(value: float) -> float:
    """log2 clamped away from zero (work terms are positive by construction,
    but fused traffic extras can be exactly 0.0)."""
    return math.log2(value) if value > 0.0 else 0.0


#: feature vector layout, in order.  Append-only: tests pin the names, and a
#: reorder silently invalidates any in-memory fitted model.
FEATURE_NAMES: tuple[str, ...] = (
    # problem shape (padded-tile-free: what the user asked for)
    'log2_m', 'log2_n', 'log2_k', 'log2_batch',
    # schedule shape knobs
    'log2_block_m', 'log2_block_n', 'log2_block_k',
    'log2_threads', 'log2_warps',
    'log2_thread_tile', 'log2_warp_outer',
    'double_buffer', 'split_k_used', 'log2_split_k',
    # occupancy summary (limiting-resource one-hot included)
    ) + OCCUPANCY_FEATURE_NAMES + (
    # launch geometry
    'log2_waves', 'partial_wave_fraction', 'tail_efficiency',
    # modeled work terms, summed over the schedule's kernels (split-k adds a
    # reduce kernel — its traffic is part of the candidate's true cost)
    'num_kernels', 'log2_flops', 'log2_gmem_read', 'log2_gmem_write',
    'log2_smem_traffic', 'log2_fused_extra_bytes',
    'flops_per_byte',
    # naive roofline terms: work normalized by the device's *peak* rates,
    # no efficiency/occupancy/overlap applied.  Latency is roughly the max
    # of a few such terms with learned discounts — a linear model in log
    # space cannot express the max from the raw work features alone, so we
    # hand it the hinge directly and let it learn the corrections
    'log2_compute_time_naive', 'log2_memory_time_naive',
    'log2_smem_time_naive', 'log2_roofline_naive',
    'log2_wave_quant', 'occupancy_per_sqrt_ilp',
    # the quantized roofline — roofline × ceil(waves)/waves — is the product
    # that dominates partially-filled launches (a 12-block kernel on an
    # 82-SM device runs at per-wave speed, not aggregate-peak speed).  The
    # factors are individually above; the product is what latency tracks,
    # and a linear model cannot multiply
    'log2_quantized_roofline', 'log2_ceil_waves',
    # tiny kernels are launch-overhead dominated: latency ≈ overhead + body,
    # an *additive* structure no weighting of log-work features can express.
    # Folding the device's launch overhead into the roofline term hands the
    # model the right asymptote at both ends
    'log2_roofline_plus_overhead',
)


def featurize(m: int, n: int, k: int, sched: MatmulSchedule,
              device: DeviceSpec = RTX3090, batch: int = 1,
              extra_read_bytes: float = 0.0,
              extra_write_bytes: float = 0.0) -> tuple[float, ...]:
    """Feature vector of ``sched`` applied to an ``m×n×k`` (batched) matmul.

    Ordered as :data:`FEATURE_NAMES`.  Pure and deterministic.
    """
    stats = matmul_stats(m, n, k, sched, batch=batch, device=device,
                         extra_read_bytes=extra_read_bytes,
                         extra_write_bytes=extra_write_bytes)
    main = stats[0]
    occ = occupancy_features(device, sched.threads, sched.smem_bytes,
                             sched.regs_per_thread)
    # concurrency the device can host for the *main* kernel: how many waves
    # of blocks the launch needs, and how full the last wave is (the paper's
    # tail-wave argument for split-k, §6.3.4)
    resident_blocks = occ[1]
    concurrent = max(1.0, resident_blocks * device.num_sms)
    waves = main.grid_blocks / concurrent
    partial_wave = math.ceil(waves) - waves if waves > 0 else 0.0
    # fraction of the padded tile work that is useful (predicated tails are
    # executed and thrown away, §4.3)
    gx, gy, gz = sched.grid(m, n)
    padded = float(gx * sched.block_n) * (gy * sched.block_m)
    tail_efficiency = (m * n) / padded if padded > 0 else 0.0

    total_flops = sum(s.flops for s in stats)
    total_read = sum(s.gmem_read_bytes for s in stats)
    total_write = sum(s.gmem_write_bytes for s in stats)
    total_smem = sum(s.smem_traffic_bytes for s in stats)
    total_bytes = total_read + total_write
    extra = extra_read_bytes + extra_write_bytes

    t_compute = total_flops / device.peak_flops
    t_memory = total_bytes / device.peak_bandwidth
    t_smem = sum(s.smem_traffic_bytes for s in stats) / device.peak_shared_bandwidth
    wave_quant = math.ceil(waves) / waves if waves > 0 else 1.0
    ilp = max(1.0, float(sched.thread_tile[0] * sched.thread_tile[1]))

    return (
        _log2(float(m)), _log2(float(n)), _log2(float(k)),
        _log2(float(batch)),
        _log2(float(sched.block_m)), _log2(float(sched.block_n)),
        _log2(float(sched.block_k)),
        _log2(float(sched.threads)), _log2(float(sched.num_warps)),
        _log2(float(sched.thread_tile[0] * sched.thread_tile[1])),
        _log2(float(sched.warp_outer[0] * sched.warp_outer[1])),
        1.0 if sched.double_buffer else 0.0,
        1.0 if sched.split_k > 1 else 0.0,
        _log2(float(sched.split_k)),
    ) + occ + (
        _log2(waves), partial_wave, tail_efficiency,
        float(len(stats)),
        _log2(total_flops), _log2(total_read), _log2(total_write),
        _log2(total_smem), _log2(extra),
        total_flops / total_bytes if total_bytes > 0 else 0.0,
        _log2(t_compute), _log2(t_memory), _log2(t_smem),
        _log2(max(t_compute, t_memory, t_smem)),
        _log2(wave_quant),
        occ[0] / math.sqrt(ilp),
        _log2(max(t_compute, t_memory, t_smem) * wave_quant),
        _log2(float(math.ceil(waves))) if waves > 0 else 0.0,
        _log2(max(t_compute, t_memory, t_smem) * wave_quant
              + device.kernel_launch_overhead * len(stats)),
    )
