"""Constant folding (paper Figure 10 step 2: graph-level optimizations).

Operators whose inputs are all constants become constants themselves; the
batch-norm scale/shift arithmetic and reshaped convolution weights disappear
from the runtime graph this way.  Folding is lazy: a folded constant computes
its value with the operator's numpy reference the first time it is read, so
compiling never touches a weight.  Chained folds compose.
"""
from __future__ import annotations

from ..flow_graph import FlowGraph
from ..operator import Operator
from ..tensor import Tensor
from .rewrite import rewrite_graph

__all__ = ['fold_constants']


def fold_constants(graph: FlowGraph) -> FlowGraph:
    def rule(op: Operator, inputs: list[Tensor]):
        if all(t.is_constant for t in inputs):
            return Tensor(op.output.shape, op.output.dtype,
                          compute=lambda: op.run_numpy(*[t.numpy() for t in inputs]),
                          name=f'{op.output.name}_folded')
        return None

    return rewrite_graph(graph, rule)
