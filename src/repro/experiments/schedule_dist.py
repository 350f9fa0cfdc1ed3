"""Figure 18: latency distribution of the schedules in the three spaces.

Workload (paper §6.3.1): a ResNet-50 convolution with batch 1, input 28×28,
256 input channels, kernel 3, padding 1, stride 2.  AutoTVM contributes the
1000 schedules its search measures, Ansor its 800, Hidet its entire ~165-
schedule space.  Paper result: most Hidet schedules are faster than 73 µs,
while the loop-oriented samples spread out to ~800 µs (no double buffering,
divisor-constrained tiles).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..baselines import Ansor, AutoTVM, contraction_dims_of_conv
from ..core.tuning import MatmulTuner
from ..gpusim.device import RTX3090
from ..obs import percentile
from ..sched.space import matmul_schedule_space, split_k_candidates

__all__ = ['DIST_WORKLOAD', 'run_schedule_distribution', 'format_schedule_distribution']

#: batch, in_channels, H, W, out_channels, kernel, stride, padding
DIST_WORKLOAD = (1, 256, 28, 28, 512, 3, 2, 1)


@dataclass
class DistributionResult:
    hidet_latencies_us: list[float]
    autotvm_latencies_us: list[float]
    ansor_latencies_us: list[float]

    def summary(self, threshold_us: float = 73.0) -> dict[str, float]:
        def frac_below(latencies):
            finite = [l for l in latencies if np.isfinite(l)]
            if not finite:
                return 0.0
            return sum(l < threshold_us for l in finite) / len(finite)

        return {
            'hidet_below': frac_below(self.hidet_latencies_us),
            'autotvm_below': frac_below(self.autotvm_latencies_us),
            'ansor_below': frac_below(self.ansor_latencies_us),
        }


def run_schedule_distribution(workload=DIST_WORKLOAD) -> DistributionResult:
    batch, ic, h, w, oc, kernel, stride, padding = workload
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    m, n, k = contraction_dims_of_conv(batch, oc, oh, ow, ic, kernel, kernel)

    # Hidet: the entire hardware-centric space; parallel-k is part of every
    # schedule (§6.3.4), so each base point takes its best split factor
    tuner = MatmulTuner(RTX3090)
    factors = split_k_candidates(m, n, k, RTX3090)
    hidet = []
    for sched in matmul_schedule_space(RTX3090):
        best = min(tuner.measure(m, n, k, replace(sched, split_k=f))
                   for f in factors if replace(sched, split_k=f).is_valid(RTX3090))
        hidet.append(best * 1e6)

    # AutoTVM / Ansor: the schedules their searches measure
    autotvm = AutoTVM()
    at = autotvm.tune_contraction(m, n, k, kind='conv', coalesce=0.9, name='fig18')
    ansor = Ansor()
    an = ansor.tune_contraction(m, n, k, kind='conv', coalesce=0.9, name='fig18')
    return DistributionResult(
        hidet_latencies_us=hidet,
        autotvm_latencies_us=[l * 1e6 for l in at.sampled_latencies],
        ansor_latencies_us=[l * 1e6 for l in an.sampled_latencies],
    )


def format_schedule_distribution(result: DistributionResult) -> str:
    def stats(name, latencies):
        finite = [l for l in latencies if np.isfinite(l)]
        return (f'{name:8s} n={len(latencies):5d}  best={min(finite):7.1f} us  '
                f'median={float(np.median(finite)):8.1f} us  '
                f'p90={percentile(finite, 90):8.1f} us')

    summary = result.summary()
    lines = ['Figure 18: schedule-latency distribution '
             '(conv 28x28, 256ch, k3 s2 p1, as implicit GEMM)',
             stats('hidet', result.hidet_latencies_us),
             stats('autotvm', result.autotvm_latencies_us),
             stats('ansor', result.ansor_latencies_us),
             f'fraction of schedules below 73 us: '
             f'hidet={summary["hidet_below"]:.2f} '
             f'autotvm={summary["autotvm_below"]:.2f} '
             f'ansor={summary["ansor_below"]:.2f} '
             f'(paper: most Hidet schedules < 73 us, baselines mostly above)']
    return '\n'.join(lines)
