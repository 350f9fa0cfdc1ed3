"""Ablation studies of the design choices DESIGN.md calls out.

These go beyond the paper's figures: they isolate the contribution of each
mechanism the paper credits for Hidet's performance:

* **double buffering** (§3.1, Figure 5) — overlap factor of the pipeline;
* **parallel-k reduction** (§6.3.4) — saturating SMs on small output grids;
* **post-scheduling fusion** (§4.2) — removing intermediate traffic/launches;
* **hardware-centric vs input-centric space** (§4.3) — best achievable
  latency inside each space for one workload.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..baselines import Ansor
from ..core.tuning import MatmulTuner
from ..graph.flow_graph import FlowGraph
from ..gpusim.device import RTX3090
from ..runtime import HidetExecutor
from ..sched.space import matmul_schedule_space

__all__ = ['double_buffer_ablation', 'split_k_ablation', 'fusion_ablation',
           'space_ablation']


@dataclass
class Ablation:
    name: str
    baseline_ms: float
    variant_ms: float

    @property
    def speedup(self) -> float:
        return self.baseline_ms / self.variant_ms


def double_buffer_ablation(m: int = 1024, n: int = 1024, k: int = 1024) -> Ablation:
    """Best schedule with vs without double buffering on one matmul."""
    tuner = MatmulTuner(RTX3090)
    single = tuner.tune(m, n, k, space=matmul_schedule_space(double_buffer=False),
                        try_split_k=False)
    double = tuner.tune(m, n, k, space=matmul_schedule_space(double_buffer=True),
                        try_split_k=False)
    return Ablation('double_buffering', single.best_latency * 1e3,
                    double.best_latency * 1e3)


def split_k_ablation(m: int = 196, n: int = 512, k: int = 4608) -> Ablation:
    """Parallel-k on a conv-shaped GEMM with a tiny output grid (§6.3.4)."""
    tuner = MatmulTuner(RTX3090)
    without = tuner.tune(m, n, k, try_split_k=False)
    with_k = tuner.tune(m, n, k, try_split_k=True)
    return Ablation('parallel_k', without.best_latency * 1e3,
                    with_k.best_latency * 1e3)


def fusion_ablation(graph: FlowGraph) -> Ablation:
    """Whole-model latency with and without post-scheduling fusion."""
    fused = HidetExecutor(RTX3090, enable_fusion=True).compile(graph)
    unfused = HidetExecutor(RTX3090, enable_fusion=False).compile(graph)
    return Ablation('post_scheduling_fusion', unfused.latency_ms, fused.latency_ms)


def space_ablation(m: int = 196, n: int = 512, k: int = 2304) -> Ablation:
    """Best-in-space latency: input-centric (Ansor search) vs hardware-centric."""
    ansor = Ansor()
    input_centric = ansor.tune_contraction(m, n, k, kind='conv', name='space_ablation')
    tuner = MatmulTuner(RTX3090)
    hw_centric = tuner.tune(m, n, k)
    return Ablation('schedule_space', input_centric.best_latency * 1e3,
                    hw_centric.best_latency * 1e3)
