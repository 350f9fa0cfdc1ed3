"""TensorRT-like baseline (paper §6.3.5, Figure 22).

TensorRT's engine builder applies graph optimizations and *timing-based
tactic selection*: for every layer it measures a menu of library kernels and
keeps the fastest.  On top of the ORT-style pipeline we add:

* tactic selection over the full GEMM menu (better than the one-shot
  heuristic pick);
* **fused multi-head-attention**: TensorRT "recognizes self-attention layers
  in transformer models and applies dedicated optimizations" (paper's
  speculation in §6.3.5) — we detect the batched ``QK^T -> scale/mask ->
  softmax -> V`` pattern and replace it with a single flash-attention-style
  kernel that never materializes the score matrix.  This is what makes
  TensorRT beat Hidet on Bert/GPT-2 while losing on the CNNs (no per-shape
  tuning of convolutions).
"""
from __future__ import annotations

import math
from typing import Optional

from .frameworks import LibraryBackedExecutor
from .kernel_library import _GEMM_MENU
from .tiling import tiled_matmul_stats
from ..graph.flow_graph import FlowGraph
from ..graph.ops.matmul import BatchMatmulOp, MatmulOp
from ..graph.ops.reduce import ReduceLastAxisOp
from ..graph.passes.fuse_partition import FusedGroup
from ..gpusim.stats import KernelStats, OVERLAP_DOUBLE_BUFFER

__all__ = ['TensorRTLike']


class TensorRTLike(LibraryBackedExecutor):
    name = 'tensorrt'
    dispatch_overhead = 1.0e-6     # prebuilt engine, minimal per-layer cost
    enable_fusion = True

    # -- tactic selection -----------------------------------------------------

    def _best_gemm_stats(self, m: int, n: int, k: int, batch: int,
                         name: str, epilogue_bytes: float) -> KernelStats:
        best_stats, best_latency = None, math.inf
        for config in _GEMM_MENU:
            stats = tiled_matmul_stats(m, n, k, config, name=name, batch=batch,
                                       double_buffer=True,
                                       extra_read_bytes=epilogue_bytes,
                                       device=self.device)
            latency = self.model.latency(stats)
            if latency < best_latency:
                best_stats, best_latency = stats, latency
        return best_stats

    # -- fused attention --------------------------------------------------------

    def _try_fused_attention(self, group: FusedGroup,
                             state: dict) -> tuple[bool, Optional[KernelStats]]:
        """Detect the attention pattern across groups and collapse it.

        The score ``batch_matmul`` group starts a pending pattern; the softmax
        reductions and elementwise pieces in between are skipped; the context
        ``batch_matmul`` group completes it and is charged one fused kernel.
        """
        op = group.anchor
        if isinstance(op, BatchMatmulOp):
            b, m, k = op.inputs[0].shape
            n = op.inputs[1].shape[2]
            if m == n and k < m:           # score matmul: [b, S, dh] x [b, dh, S]
                state['pending'] = (b, m, k)
                return (True, self._fused_attention_stats(b, m, k, group.name))
            if 'pending' in state:         # context matmul: folded into the kernel
                state.pop('pending')
                return (True, None)
            return (False, None)
        if 'pending' in state:
            # softmax statistics / scaling / masking between the two matmuls
            if isinstance(op, ReduceLastAxisOp) or op.is_injective:
                return (True, None)
        return (False, None)

    def _fused_attention_stats(self, heads: int, seq: int, head_dim: int,
                               name: str) -> KernelStats:
        """One flash-attention-style kernel: QK^T, softmax, and PV fused;
        scores never leave shared memory."""
        flops = 2.0 * heads * seq * seq * head_dim * 2   # both matmuls
        qkv_bytes = 3.0 * heads * seq * head_dim * 4
        out_bytes = heads * seq * head_dim * 4
        blocks = heads * max(1, seq // 64)
        return KernelStats(
            name=f'{name}_fused_attention',
            grid_blocks=blocks,
            threads_per_block=256,
            flops=flops,
            gmem_read_bytes=qkv_bytes,
            gmem_write_bytes=out_bytes,
            smem_bytes_per_block=48 * 1024,
            regs_per_thread=120,
            smem_traffic_bytes=flops * 1.0,
            overlap=OVERLAP_DOUBLE_BUFFER,
            ilp=16.0,
        )

    # -- group compilation ------------------------------------------------------

    def compile(self, graph: FlowGraph):
        self._attention_state: dict = {}
        return super().compile(graph)

    def group_stats(self, group: FusedGroup) -> Optional[KernelStats]:
        handled, fused = self._try_fused_attention(group, self._attention_state)
        if handled:
            return fused      # None -> folded into the attention kernel (free)
        op = group.anchor
        epilogue_bytes = self._epilogue_bytes(group)
        if isinstance(op, MatmulOp):
            m, k = op.inputs[0].shape
            n = op.inputs[1].shape[1]
            return self._best_gemm_stats(m, n, k, 1, group.name, epilogue_bytes)
        if isinstance(op, BatchMatmulOp):
            b, m, k = op.inputs[0].shape
            n = op.inputs[1].shape[2]
            return self._best_gemm_stats(m, n, k, b, group.name, epilogue_bytes)
        return super().group_stats(group)
