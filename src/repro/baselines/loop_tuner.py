"""Shared machinery of the loop-oriented tuning executors (AutoTVM / Ansor).

Both baselines:

* schedule in the **input-centric** space: tile sizes are perfect factors of
  the problem extents (:mod:`repro.baselines.tiling`), so the space size and
  quality depend on the divisor structure of the shapes (paper §3.3) and the
  space is *empty* for prime extents (Figure 19);
* cannot express double buffering (overlap stays at the single-buffered
  baseline, §3.1);
* pay per-trial compile+measure cost on the simulated clock (Figure 17).

They differ in the search (random-sampling vs evolutionary), in template
coverage (AutoTVM's dense/batch-matmul templates are weak, §6.2), and in
depthwise-convolution handling (Ansor's dedicated sketch, §6.2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .base import ExecutorReport
from .tiling import TileConfig, iter_tile_configs, tiled_matmul_stats, contraction_dims_of_conv
from ..graph.flow_graph import FlowGraph
from ..graph.ops.conv import Conv2dOp
from ..graph.ops.matmul import BatchMatmulOp, MatmulOp
from ..graph.passes import fold_constants, partition_graph
from ..graph.passes.fuse_partition import FusedGroup
from ..gpusim.clock import SimulatedClock, TuningCosts
from ..gpusim.device import DeviceSpec, RTX3090
from ..gpusim.stats import KernelStats
from .frameworks import LibraryBackedExecutor

__all__ = ['LoopOrientedTuner', 'TaskTuningResult']


@dataclass
class TaskTuningResult:
    best_latency: float               # seconds; inf when no valid schedule exists
    num_measured: int
    sampled_latencies: list[float]    # all measured candidates (Figure 18)

    @property
    def failed(self) -> bool:
        return not math.isfinite(self.best_latency)


class LoopOrientedTuner(LibraryBackedExecutor):
    """Base executor: TVM-style fusion + per-task input-centric tuning."""

    name = 'loop_tuner'
    trials_per_task = 1000
    costs = TuningCosts(compile_seconds=1.0, measure_seconds=0.37)
    #: efficiency of the depthwise-conv schedule this system can find
    depthwise_coalesce = 0.75
    depthwise_read_factor = 3.0

    def __init__(self, device: DeviceSpec = RTX3090,
                 clock: Optional[SimulatedClock] = None, seed: int = 0):
        super().__init__(device)
        self.clock = clock if clock is not None else SimulatedClock()
        self.seed = seed
        self._task_cache: dict[tuple, TaskTuningResult] = {}

    # ------------------------------------------------------------------
    # the search — specialized by subclasses
    # ------------------------------------------------------------------

    def candidate_space(self, m: int, n: int, k: int, kind: str) -> list[TileConfig]:
        """The task's schedule space (kind: 'conv' | 'dense' | 'batch_matmul')."""
        return list(iter_tile_configs(m, n, k, self.device))

    def search(self, candidates: Sequence[TileConfig], measure, rng) -> tuple[float, list[float]]:
        """Pick candidates to measure; return (best_latency, all_measured)."""
        raise NotImplementedError

    # ------------------------------------------------------------------

    def tune_contraction(self, m: int, n: int, k: int, batch: int = 1,
                         kind: str = 'dense', coalesce: float = 1.0,
                         name: str = 'task') -> TaskTuningResult:
        key = (m, n, k, batch, kind)
        if key in self._task_cache:
            return self._task_cache[key]
        candidates = self.candidate_space(m, n, k, kind)
        rng = np.random.default_rng((self.seed, m, n, k, batch))

        def measure(config: TileConfig) -> float:
            stats = tiled_matmul_stats(m, n, k, config, name=name, batch=batch,
                                       double_buffer=False, coalesce_factor=coalesce,
                                       device=self.device)
            try:
                return self.model.latency(stats)
            except ValueError:
                return math.inf   # candidate fails to launch on real hardware

        if candidates:
            best, sampled = self.search(candidates, measure, rng)
        else:
            best, sampled = math.inf, []
        num = len(sampled)
        self.clock.charge_compile_batch(self.costs, num, label=f'compile {name}')
        self.clock.charge_measurements(self.costs, num, label=f'measure {name}')
        result = TaskTuningResult(best_latency=best, num_measured=num,
                                  sampled_latencies=sampled)
        self._task_cache[key] = result
        return result

    def tune_depthwise(self, group: FusedGroup) -> TaskTuningResult:
        """Depthwise convolution: template/sketch quality is system-specific."""
        op = group.anchor
        key = ('depthwise', op.inputs[0].shape, op.inputs[1].shape,
               op.attrs['stride'])
        if key in self._task_cache:
            return self._task_cache[key]
        stats = self._depthwise_stats(group)
        latency = self.model.latency(stats)
        trials = min(self.trials_per_task, 200)
        self.clock.charge_compile_batch(self.costs, trials, label='compile depthwise')
        self.clock.charge_measurements(self.costs, trials, label='measure depthwise')
        result = TaskTuningResult(best_latency=latency, num_measured=trials,
                                  sampled_latencies=[latency])
        self._task_cache[key] = result
        return result

    def _depthwise_stats(self, group: FusedGroup) -> KernelStats:
        op = group.anchor
        x, w = op.inputs
        out_elems = op.output.num_elements
        reduce_size = w.shape[1] * w.shape[2] * w.shape[3]
        read = float(x.nbytes) * self.depthwise_read_factor + w.nbytes
        return KernelStats(
            name=f'{group.name}_depthwise',
            grid_blocks=max(1, math.ceil(out_elems / 256)),
            threads_per_block=256,
            flops=2.0 * out_elems * reduce_size,
            gmem_read_bytes=read + self._epilogue_bytes(group),
            gmem_write_bytes=float(op.output.nbytes),
            regs_per_thread=36,
            ilp=4.0,
            coalesce_factor=self.depthwise_coalesce,
            is_memory_bound_hint=True,
        )

    # ------------------------------------------------------------------
    # graph compilation
    # ------------------------------------------------------------------

    def compile(self, graph: FlowGraph) -> ExecutorReport:
        start = self.clock.elapsed_seconds
        graph = fold_constants(graph)
        groups = partition_graph(graph)
        kernel_latencies: list[tuple[str, float]] = []
        total = 0.0
        failed = False
        for group in groups:
            latency, ok = self._group_latency(group)
            failed = failed or not ok
            kernel_latencies.append((group.name, latency))
            total += latency + self.dispatch_overhead
        return ExecutorReport(
            executor=self.name, model=graph.name,
            latency=total if not failed else math.inf,
            tuning_seconds=self.clock.elapsed_seconds - start,
            num_kernels=len(kernel_latencies),
            failed=failed,
            kernel_latencies=kernel_latencies)

    def _group_latency(self, group: FusedGroup) -> tuple[float, bool]:
        op = group.anchor
        epilogue_bytes = self._epilogue_bytes(group)
        if isinstance(op, Conv2dOp):
            if op.attrs['groups'] > 1:
                result = self.tune_depthwise(group)
                return result.best_latency, True
            x, w = op.inputs
            _, _, oh, ow = op.output.shape
            m, n, k = contraction_dims_of_conv(
                x.shape[0], w.shape[0], oh, ow, x.shape[1], w.shape[2], w.shape[3])
            # direct-conv schedules pay slightly non-contiguous input access
            result = self.tune_contraction(m, n, k, kind='conv', coalesce=0.9,
                                           name=group.name)
            if result.failed:
                return math.inf, False
            return result.best_latency, True
        if isinstance(op, (MatmulOp, BatchMatmulOp)):
            if isinstance(op, MatmulOp):
                m, k = op.inputs[0].shape
                n = op.inputs[1].shape[1]
                batch = 1
            else:
                batch, m, k = op.inputs[0].shape
                n = op.inputs[1].shape[2]
            kind = 'dense' if isinstance(op, MatmulOp) else 'batch_matmul'
            result = self.tune_contraction(m, n, k, batch=batch, kind=kind,
                                           name=group.name)
            if result.failed:
                return math.inf, False
            return result.best_latency, True
        # non-tunable groups: same library-style kernels as the frameworks
        stats = self.group_stats(group)
        if stats is None:
            return 0.0, True
        return self.model.latency(stats), True
