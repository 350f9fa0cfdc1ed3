"""Lower dense convolutions to implicit GEMM (paper §5.2, §6.3.4).

``Conv2d`` (groups == 1) becomes four operators::

    img2col -> matmul -> reshape -> transpose

img2col is injective (a prologue candidate); reshape/transpose are bijective
(epilogue candidates).  After the fusion partition, the whole pipeline
collapses into one matmul kernel — "implicit GEMM convolution" — reusing
every matmul optimization, including parallel-k reduction, for convolutions.

Depthwise / grouped convolutions stay direct operators (rule-based schedule).
"""
from __future__ import annotations

from typing import Callable, Optional

from ..flow_graph import FlowGraph
from ..operator import Operator
from ..tensor import Tensor
from ..ops.conv import Conv2dOp, Im2colOp
from ..ops.matmul import MatmulOp
from ..ops.transforms import ReshapeOp, TransposeOp
from .rewrite import rewrite_graph

__all__ = ['lower_conv', 'lower_conv_to_gemm']


def _output(op: Operator) -> Tensor:
    return op.output


def lower_conv(op: Operator, inputs: list[Tensor],
               emit: Callable[[Operator], Tensor] = _output) -> Optional[Tensor]:
    """The implicit-GEMM sub-graph computing a dense conv ``op`` on
    ``inputs``, or ``None`` for any other operator.  ``emit(new_op)`` gives
    the tensor that stands for each operator the lowering builds (its output,
    or a constant when the operator folds)."""
    if not isinstance(op, Conv2dOp) or op.attrs['groups'] != 1:
        return None
    x, weight = inputs
    n, c, h, w = x.shape
    oc, _, kh, kw = weight.shape
    _, _, oh, ow = op.output.shape
    stride, padding = op.attrs['stride'], op.attrs['padding']

    cols = emit(Im2colOp(x, (kh, kw), stride, padding, (oh, ow)))
    # weight [OC, C, KH, KW] -> [C*KH*KW, OC]; constant-folds at import
    w2 = emit(TransposeOp(emit(ReshapeOp(weight, [oc, c * kh * kw])), [1, 0]))
    mm = emit(MatmulOp(cols, w2))                   # [N*OH*OW, OC]
    return emit(TransposeOp(emit(ReshapeOp(mm, [n, oh, ow, oc])), [0, 3, 1, 2]))


def lower_conv_to_gemm(graph: FlowGraph) -> FlowGraph:
    return rewrite_graph(graph, lower_conv)
