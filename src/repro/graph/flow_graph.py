"""Flow graphs: the graph-level IR (paper Figure 10, step 1-2).

A :class:`FlowGraph` is defined by its output tensors; operators and inputs
are discovered by backward traversal.  It supports reference execution with
numpy (ground truth for all executors) and structural queries used by the
graph passes.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .operator import Operator
from .tensor import Tensor

__all__ = ['FlowGraph', 'trace']


class FlowGraph:
    def __init__(self, outputs: Sequence[Tensor], inputs: Optional[Sequence[Tensor]] = None,
                 name: str = 'graph'):
        self.name = name
        self.outputs: list[Tensor] = list(outputs)
        self.nodes: list[Operator] = _topological_operators(self.outputs)
        found_inputs = _symbolic_inputs(self.nodes, self.outputs)
        if inputs is not None:
            missing = [t for t in found_inputs if t not in inputs]
            if missing:
                raise ValueError(f'graph uses symbolic tensors not listed as inputs: '
                                 f'{[t.name for t in missing]}')
            self.inputs = list(inputs)
        else:
            self.inputs = found_inputs

    # -- queries -----------------------------------------------------------

    @property
    def num_operators(self) -> int:
        return len(self.nodes)

    def operator_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for op in self.nodes:
            hist[op.name] = hist.get(op.name, 0) + 1
        return dict(sorted(hist.items(), key=lambda kv: -kv[1]))

    # -- execution ------------------------------------------------------------

    def run(self, *args: np.ndarray) -> list[np.ndarray]:
        """Reference execution with numpy (constants resolved, topo order)."""
        if len(args) != len(self.inputs):
            raise ValueError(f'graph {self.name!r} takes {len(self.inputs)} inputs, '
                             f'got {len(args)}')
        values: dict[int, np.ndarray] = {}
        for tensor, array in zip(self.inputs, args):
            if tuple(array.shape) != tensor.shape:
                raise ValueError(f'input {tensor.name!r}: expected shape {tensor.shape}, '
                                 f'got {tuple(array.shape)}')
            values[tensor._id] = np.ascontiguousarray(array, dtype=tensor.dtype.np_dtype)

        def value_of(t: Tensor) -> np.ndarray:
            if t._id in values:
                return values[t._id]
            if t.is_constant:
                return t.numpy()
            raise RuntimeError(f'tensor {t.name!r} has no value during execution')

        for op in self.nodes:
            result = op.run_numpy(*[value_of(t) for t in op.inputs])
            values[op.output._id] = result
        return [value_of(t) for t in self.outputs]

    def __repr__(self) -> str:
        lines = [f'FlowGraph({self.name}: {len(self.inputs)} inputs, '
                 f'{len(self.nodes)} operators, {len(self.outputs)} outputs)']
        for op in self.nodes:
            lines.append(f'  {op!r}')
        return '\n'.join(lines)


def trace(outputs: Tensor | Sequence[Tensor], name: str = 'graph') -> FlowGraph:
    """Build a flow graph from output tensors (traced through producers)."""
    if isinstance(outputs, Tensor):
        outputs = [outputs]
    return FlowGraph(outputs, name=name)


def _topological_operators(outputs: Sequence[Tensor]) -> list[Operator]:
    """Producers of ``outputs`` in depth-first post-order (inputs in order)."""
    order: list[Operator] = []
    visited: set[int] = set()
    for out in outputs:
        root = out.producer
        if root is None or id(root) in visited:
            continue
        visited.add(id(root))
        stack = [(root, iter(root.inputs))]
        while stack:
            op, inputs = stack[-1]
            for t in inputs:
                producer = t.producer
                if producer is not None and id(producer) not in visited:
                    visited.add(id(producer))
                    stack.append((producer, iter(producer.inputs)))
                    break
            else:
                stack.pop()
                order.append(op)
    return order


def _symbolic_inputs(nodes: Sequence[Operator], outputs: Sequence[Tensor]) -> list[Tensor]:
    seen: list[Tensor] = []
    for op in nodes:
        for t in op.inputs:
            if t.is_symbolic and t not in seen:
                seen.append(t)
    for t in outputs:
        if t.is_symbolic and t not in seen:
            seen.append(t)
    return seen
