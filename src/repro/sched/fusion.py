"""Post-scheduling fusion (paper §4.2, §5.2, Figure 15).

Fusion happens **after** the anchor operator has been scheduled into a tensor
program.  The pass rewrites the scheduled IR:

* **prologues** (injective producers of anchor inputs): every *load*
  ``A[idx]`` of a fused input is replaced by the producer's computation
  inlined at ``idx`` — e.g. ``A[99 - i]`` becomes ``C[99 - i] * 2.0`` in the
  paper's reverse example.  Implicit-GEMM convolution works exactly this way:
  the img2col gather fuses into the matmul's cooperative loads.
* **epilogues** (bijective consumers of the anchor output): every *store*
  ``C[idx] = v`` is redirected through the epilogue chain: the value is
  transformed (``v * 3.0``), and the indices are remapped through each
  op's :class:`~repro.ir.task.InverseMap` (``D[i / 50, i % 50] = ...``).

Because the anchor was scheduled first, none of this touches the schedule:
tile sizes, task mappings, double buffering and predication all survive
verbatim — that is the decoupling the paper argues for.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..ir import Function, IRModule, Var, tensor_var
from ..ir.compute import GridCompute, TensorInput
from ..ir.expr import Expr, TensorElement
from ..ir.functor import IRRewriter, IRVisitor
from ..ir.stmt import BufferStoreStmt
from ..ir.task import Task
from ..ir.tools import substitute
from .lower_compute import lower_compute_expr

__all__ = ['EpilogueStep', 'FusedTaskSpec', 'apply_fusion', 'FusionError', 'FusionResult']


class FusionError(Exception):
    pass


class _TensorInputCollector(IRVisitor):
    """Distinct :class:`TensorInput` leaves, descending into each nested
    :class:`GridCompute` once."""

    def __init__(self):
        super().__init__()
        self.found: list[TensorInput] = []
        self.visited: set[int] = set()

    def visit_TensorInput(self, e):
        if all(e is not f for f in self.found):
            self.found.append(e)

    def visit_GridCompute(self, e):
        if id(e) not in self.visited:
            self.visited.add(id(e))
            self.visit(e.value)


def collect_tensor_inputs(expr: Expr) -> list[TensorInput]:
    """All :class:`TensorInput` leaves of a compute expression, descending
    through nested :class:`GridCompute` definitions (inlined prologue chains)."""
    collector = _TensorInputCollector()
    collector.visit(expr)
    return collector.found


@dataclass(frozen=True)
class EpilogueStep:
    """One bijective epilogue operator and which of its inputs is the chain input."""

    task: Task
    chain_input: TensorInput

    def __post_init__(self):
        if self.chain_input not in self.task.inputs:
            raise FusionError(
                f'{self.chain_input.name!r} is not an input of epilogue task '
                f'{self.task.name!r}')
        # bijective w.r.t. the chain edge: injective overall, and the chain
        # input's elements each land in exactly one output element (inverse
        # map available).  Side inputs (broadcast bias, residual) are free.
        if not self.task.is_injective or self.chain_input not in self.task.inverse_maps:
            raise FusionError(
                f'epilogue task {self.task.name!r} must be bijective along the '
                f'fused edge (paper §4.2)')


@dataclass
class FusedTaskSpec:
    """What to fuse around a scheduled anchor.

    ``prologue_defs`` maps an anchor input to a :class:`GridCompute` of the
    *same shape* whose value refers only to outer :class:`TensorInput` nodes
    (chains of injective producers are pre-inlined by the graph pass).
    ``epilogue_steps`` are applied to the anchor output in order.
    """

    anchor: Task
    prologue_defs: dict[TensorInput, GridCompute] = field(default_factory=dict)
    epilogue_steps: list[EpilogueStep] = field(default_factory=list)

    def __post_init__(self):
        for inp, definition in self.prologue_defs.items():
            if inp not in self.anchor.inputs:
                raise FusionError(f'{inp.name!r} is not an anchor input')
            if definition.shape != inp.shape:
                raise FusionError(
                    f'prologue for {inp.name!r} has shape {definition.shape}, '
                    f'expected {inp.shape}')
            if not definition.is_injective:
                raise FusionError(
                    f'prologue for {inp.name!r} contains a reduction '
                    f'(only injective operators fuse as prologues, paper §4.2)')

    # -- derived -----------------------------------------------------------

    def outer_inputs(self) -> list[TensorInput]:
        """The fused kernel's tensor inputs, in deterministic order."""
        seen: list[TensorInput] = []

        def add(node: TensorInput):
            if node not in seen:
                seen.append(node)

        for inp in self.anchor.inputs:
            if inp in self.prologue_defs:
                for ti in collect_tensor_inputs(self.prologue_defs[inp].value):
                    add(ti)
            else:
                add(inp)
        for step in self.epilogue_steps:
            for ti in step.task.inputs:
                if ti is not step.chain_input:
                    add(ti)
        return seen

    def final_output(self) -> GridCompute:
        """The compute node describing the fused kernel's output tensor."""
        if self.epilogue_steps:
            return self.epilogue_steps[-1].task.output
        return self.anchor.output


@dataclass
class FusionResult:
    module: IRModule
    param_vars: dict[TensorInput, Var]   # outer input -> kernel parameter
    output_var: Var                      # final output parameter
    spec: FusedTaskSpec


class _LoadRewriter(IRRewriter):
    """Replace loads of fused anchor-input parameters with inlined prologues."""

    def __init__(self, replacements: dict[Var, GridCompute],
                 param_vars: dict[TensorInput, Var]):
        super().__init__()
        self.replacements = replacements
        self.param_vars = param_vars

    def visit_TensorElement(self, e: TensorElement):
        indices = tuple(self.visit(i) for i in e.indices)
        if isinstance(e.base, Var) and e.base in self.replacements:
            definition = self.replacements[e.base]
            mapping = dict(zip(definition.axes, indices))
            inlined = substitute(definition.value, mapping)
            return lower_compute_expr(inlined, self.param_vars)
        base = self.visit(e.base)
        if base is e.base and all(a is b for a, b in zip(indices, e.indices)):
            return e
        return TensorElement(base, indices)


class _ChainInputReplacer(IRRewriter):
    """Replace accesses to the epilogue's chain input with the incoming value."""

    def __init__(self, chain_input: TensorInput, value: Expr):
        super().__init__()
        self.chain_input = chain_input
        self.value = value

    def visit_TensorElement(self, e: TensorElement):
        if e.base is self.chain_input:
            return self.value
        return super().visit_TensorElement(e)


class _StoreRewriter(IRRewriter):
    """Redirect stores of the anchor output through the epilogue chain."""

    def __init__(self, anchor_output_var: Var, steps: Sequence[EpilogueStep],
                 param_vars: dict[TensorInput, Var], output_var: Var):
        super().__init__()
        self.anchor_output_var = anchor_output_var
        self.steps = steps
        self.param_vars = param_vars
        self.output_var = output_var

    def visit_BufferStoreStmt(self, s: BufferStoreStmt):
        if s.buf is not self.anchor_output_var:
            return super().visit_BufferStoreStmt(s)
        value: Expr = self.visit(s.value)
        indices = tuple(self.visit(i) for i in s.indices)
        for step in self.steps:
            task = step.task
            inverse = task.inverse_map_of(step.chain_input)
            out_indices = inverse.apply(indices)
            expr = substitute(task.output.value,
                              dict(zip(task.output.axes, out_indices)))
            expr = _ChainInputReplacer(step.chain_input, value).visit(expr)
            value = lower_compute_expr(expr, self.param_vars)
            indices = out_indices
        return BufferStoreStmt(self.output_var, indices, value)


def apply_fusion(module: IRModule, spec: FusedTaskSpec,
                 anchor_input_params: dict[TensorInput, Var],
                 anchor_output_param: Var,
                 name: Optional[str] = None) -> FusionResult:
    """Fuse prologues/epilogues into an already-scheduled anchor module.

    ``anchor_input_params`` maps the anchor task's inputs to the kernel
    parameter variables the scheduled module uses; ``anchor_output_param`` is
    the parameter the anchor's final store targets (for split-k, the output
    of the reduce kernel).  Returns a rewritten module whose parameters are
    the fused sub-graph's inputs and output.
    """
    name = name or f'fused_{spec.anchor.name}'

    # parameter variables for the fused kernel's outer inputs; anchor inputs
    # that are not fused keep their existing parameter vars
    param_vars: dict[TensorInput, Var] = {}
    for ti in spec.outer_inputs():
        if ti in anchor_input_params and ti not in spec.prologue_defs:
            param_vars[ti] = anchor_input_params[ti]
        else:
            param_vars[ti] = tensor_var(ti.name, ti.dtype, ti.shape, 'global')

    final = spec.final_output()
    if spec.epilogue_steps:
        output_var = tensor_var(final.name, final.dtype, final.shape, 'global')
    else:
        output_var = anchor_output_param

    load_replacements = {
        anchor_input_params[inp]: definition
        for inp, definition in spec.prologue_defs.items()
    }

    load_rewriter = _LoadRewriter(load_replacements, param_vars)
    store_rewriter = _StoreRewriter(anchor_output_param, spec.epilogue_steps,
                                    param_vars, output_var)

    new_functions: list[Function] = []
    for func in module:
        body = store_rewriter.visit(load_rewriter.visit(func.body))
        new_params: list[Var] = []
        for p in func.params:
            if p in load_replacements:
                # replaced by the prologue's own inputs
                definition = spec.prologue_defs[_input_of(spec, p, anchor_input_params)]
                used_inputs = collect_tensor_inputs(definition.value)
                for ti, var in param_vars.items():
                    if any(ti is u for u in used_inputs) and var not in new_params:
                        new_params.append(var)
            elif p is anchor_output_param and spec.epilogue_steps:
                for step in spec.epilogue_steps:
                    for ti in step.task.inputs:
                        if ti is not step.chain_input and param_vars[ti] not in new_params:
                            new_params.append(param_vars[ti])
                if output_var not in new_params:
                    new_params.append(output_var)
            elif p not in new_params:
                new_params.append(p)
        new_functions.append(Function(func.name, new_params, body,
                                      func.grid_dim, func.block_dim, func.attrs))

    return FusionResult(IRModule(new_functions, name=name), param_vars, output_var, spec)


def _input_of(spec: FusedTaskSpec, param: Var,
              anchor_input_params: dict[TensorInput, Var]) -> TensorInput:
    for ti, var in anchor_input_params.items():
        if var is param:
            return ti
    raise FusionError(f'parameter {param.name!r} is not an anchor input parameter')
