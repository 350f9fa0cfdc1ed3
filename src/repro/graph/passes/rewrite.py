"""Graph rewriting infrastructure shared by the graph passes."""
from __future__ import annotations

import copy
from typing import Callable, Optional

from ..flow_graph import FlowGraph
from ..operator import Operator
from ..tensor import Tensor

__all__ = ['clone_operator', 'rewrite_graph']


def clone_operator(op: Operator, new_inputs: list[Tensor]) -> Operator:
    """Clone an operator onto new input tensors (fresh output tensor).

    The clone shares ``op``'s task when every new input has the name, shape
    and dtype of the input it replaces: a task is a function of those and of
    the operator's name and attributes, so the clone would build an equal
    one.  Input names become kernel parameter names, so a renamed input (a
    folded constant is ``<name>_folded``) gets the clone a fresh task.
    Sharing caches the task on ``op`` too, so rewriting the same graph again
    (every compile of it) builds no task for the operators it clones.
    """
    clone = copy.copy(op)
    clone.inputs = list(new_inputs)
    if all(a.name == b.name and a.shape == b.shape and a.dtype == b.dtype
           for a, b in zip(new_inputs, op.inputs)):
        clone.task = op.task
    else:
        clone.__dict__.pop('task', None)       # rebuilt from the new inputs
    shape, dtype = clone.infer_output()
    clone.output = Tensor(shape, dtype, producer=clone, name=op.output.name)
    return clone


def rewrite_graph(graph: FlowGraph,
                  rule: Callable[[Operator, list[Tensor]], Optional[Tensor]],
                  name: Optional[str] = None) -> FlowGraph:
    """Rebuild a graph, letting ``rule`` replace operators.

    ``rule(op, mapped_inputs)`` returns the replacement output tensor (which
    may be the root of a freshly-built sub-graph or a constant), or ``None``
    to keep the operator (it is then cloned onto the mapped inputs, or kept
    as is when no input changed).
    """
    mapping: dict[int, Tensor] = {}

    for op in graph.nodes:
        new_inputs = [mapping.get(t._id, t) for t in op.inputs]
        replacement = rule(op, new_inputs)
        if replacement is None:
            if all(a is b for a, b in zip(new_inputs, op.inputs)):
                continue
            replacement = clone_operator(op, new_inputs).output
        mapping[op.output._id] = replacement

    outputs = [mapping.get(t._id, t) for t in graph.outputs]
    return FlowGraph(outputs, name=name or graph.name)
