"""Bridge from fused groups (graph level) to fusion specs (tensor-program level).

Builds the :class:`~repro.sched.fusion.FusedTaskSpec` for a
:class:`~repro.graph.passes.fuse_partition.FusedGroup` together with the
binding from the spec's :class:`TensorInput` placeholders back to graph
tensors — which is what the runtime uses to feed the fused kernel.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..tensor import Tensor
from .fuse_partition import FusedGroup
from ...ir.compute import GridCompute, TensorInput
from ...ir.expr import TensorElement
from ...ir.functor import IRRewriter
from ...sched.fusion import EpilogueStep, FusedTaskSpec, FusionError

__all__ = ['GroupSpec', 'build_group_spec']


@dataclass
class GroupSpec:
    group: FusedGroup
    spec: FusedTaskSpec
    #: spec outer input -> graph tensor feeding it
    tensor_of: dict[TensorInput, Tensor]


class _RebindBases(IRRewriter):
    """Replace accesses to task inputs with outer defs (TensorInput or GridCompute)."""

    def __init__(self, mapping: dict[TensorInput, object]):
        super().__init__()
        self.mapping = mapping

    def visit_TensorElement(self, e: TensorElement):
        indices = tuple(self.visit(i) for i in e.indices)
        base = e.base
        if isinstance(base, TensorInput) and base in self.mapping:
            return TensorElement(self.mapping[base], indices)
        new_base = self.visit(base)
        if new_base is base and all(a is b for a, b in zip(indices, e.indices)):
            return e
        return TensorElement(new_base, indices)


class _Definitions:
    """The spec's outer inputs and inlined prologue definitions of a group."""

    def __init__(self, prologue_ops, tensor_of: dict[TensorInput, Tensor]):
        self.prologue_ids = {id(op) for op in prologue_ops}
        self.tensor_of = tensor_of
        self.inputs: dict[int, TensorInput] = {}
        self.defs: dict[int, object] = {}
        self.used_names: set[str] = set()

    def unique_name(self, base: str) -> str:
        name = base
        suffix = 1
        while name in self.used_names:
            name = f'{base}_{suffix}'
            suffix += 1
        self.used_names.add(name)
        return name

    def outer_input(self, t: Tensor) -> TensorInput:
        ti = self.inputs.get(t._id)
        if ti is None:
            ti = TensorInput(self.unique_name(t.name), t.dtype, t.shape)
            self.inputs[t._id] = ti
            self.tensor_of[ti] = t
        return ti

    def is_inlined(self, t: Tensor) -> bool:
        return t.producer is not None and id(t.producer) in self.prologue_ids

    def of(self, t: Tensor):
        """A TensorInput (outer) or GridCompute (inlined prologue chain) for t."""
        node = self.defs.get(t._id)
        if node is not None:
            return node
        if not self.is_inlined(t):
            node = self.outer_input(t)
        else:
            producer = t.producer
            task = producer.task
            mapping = {ti: self.of(x) for ti, x in zip(task.inputs, producer.inputs)}
            value = _RebindBases(mapping).visit(task.output.value)
            node = GridCompute(task.output.name, task.output.shape,
                               task.output.axes, value)
        self.defs[t._id] = node
        return node


def build_group_spec(group: FusedGroup) -> GroupSpec:
    anchor_task = group.anchor.task
    tensor_of: dict[TensorInput, Tensor] = {}
    definitions = _Definitions(group.prologue_ops, tensor_of)

    # prologues: anchor inputs produced inside the group get inlined defs
    prologue_defs: dict[TensorInput, GridCompute] = {}
    for ti, tensor in zip(anchor_task.inputs, group.anchor.inputs):
        if definitions.is_inlined(tensor):
            definition = definitions.of(tensor)
            assert isinstance(definition, GridCompute)
            prologue_defs[ti] = definition
        else:
            tensor_of[ti] = tensor

    # epilogues: chain steps in order, binding side inputs to graph tensors
    steps: list[EpilogueStep] = []
    current = group.anchor.output
    for op in group.epilogue_ops:
        positions = [i for i, t in enumerate(op.inputs) if t is current]
        if len(positions) != 1:
            raise FusionError(
                f'epilogue {op.name!r} must consume the chain tensor exactly once')
        chain_input = op.task.inputs[positions[0]]
        for i, (ti, tensor) in enumerate(zip(op.task.inputs, op.inputs)):
            if i != positions[0]:
                tensor_of[ti] = tensor
        steps.append(EpilogueStep(op.task, chain_input))
        current = op.output

    spec = FusedTaskSpec(anchor=anchor_task, prologue_defs=prologue_defs,
                         epilogue_steps=steps)
    return GroupSpec(group=group, spec=spec, tensor_of=tensor_of)
