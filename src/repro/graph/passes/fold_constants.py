"""Constant folding (paper Figure 10 step 2: graph-level optimizations).

Operators whose inputs are all constants become constants themselves; the
batch-norm scale/shift arithmetic and reshaped convolution weights disappear
from the runtime graph this way.  Folding is lazy: a folded constant computes
its value with the operator's numpy reference the first time it is read, so
compiling never touches a weight.  Chained folds compose.

``fold_constants(graph, lower_convs=True)`` is the compile pipeline's one
graph rewrite walk: it also lowers each dense conv to implicit GEMM and
folds the weight reshape -> transpose chain that lowering builds, giving the
graph ``fold_constants(lower_conv_to_gemm(fold_constants(graph)))`` would,
operator for operator, with each operator cloned at most once.
"""
from __future__ import annotations

from typing import Optional

from ..flow_graph import FlowGraph
from ..operator import Operator
from ..tensor import Tensor
from .lower_conv import lower_conv
from .rewrite import rewrite_graph

__all__ = ['fold_constants']


def _folded(op: Operator, inputs: list[Tensor]) -> Optional[Tensor]:
    """A lazy constant computing ``op`` on ``inputs`` when they are all
    constants, else ``None``."""
    if all(t.is_constant for t in inputs):
        return Tensor(op.output.shape, op.output.dtype,
                      compute=lambda: op.run_numpy(*[t.numpy() for t in inputs]),
                      name=f'{op.output.name}_folded')
    return None


def _folded_or_output(op: Operator) -> Tensor:
    constant = _folded(op, op.inputs)
    return op.output if constant is None else constant


def _fold_and_lower(op: Operator, inputs: list[Tensor]) -> Optional[Tensor]:
    constant = _folded(op, inputs)
    if constant is not None:
        return constant
    return lower_conv(op, inputs, _folded_or_output)


def fold_constants(graph: FlowGraph, lower_convs: bool = False) -> FlowGraph:
    return rewrite_graph(graph, _fold_and_lower if lower_convs else _folded)
