"""Lowering computation-definition expressions into kernel IR expressions.

Scheduling (rule-based or fusion) must turn a compute value like
``A[i, k] * B[k, j]`` — where ``A``/``B`` are :class:`TensorInput` /
:class:`GridCompute` nodes — into kernel IR that reads parameter buffers:

* accesses to a :class:`TensorInput` become accesses to the bound parameter
  :class:`~repro.ir.expr.Var`;
* accesses to a :class:`GridCompute` are inlined (the producer's value with
  its axes substituted) — this is what makes prologue fusion a pure rewrite;
* :class:`ReduceCompute` sub-expressions are materialized as accumulator
  loops by :func:`emit_value` (they cannot appear in a pure expression).
"""
from __future__ import annotations

from ..ir.builders import FunctionBuilder
from ..ir.compute import GridCompute, ReduceCompute, TensorInput
from ..ir.expr import Expr, TensorElement, Var, convert
from ..ir.functor import IRRewriter, collect
from ..ir.tools import substitute

__all__ = ['lower_compute_expr', 'emit_value', 'ComputeLoweringError']


class ComputeLoweringError(Exception):
    pass


class _ComputeLowerer(IRRewriter):
    def __init__(self, bindings: dict[TensorInput, Var]):
        super().__init__()
        self.bindings = bindings

    def visit_TensorElement(self, e: TensorElement):
        indices = tuple(self.visit(i) for i in e.indices)
        base = e.base
        if isinstance(base, TensorInput):
            try:
                param = self.bindings[base]
            except KeyError:
                raise ComputeLoweringError(
                    f'no parameter bound for tensor input {base.name!r}') from None
            return TensorElement(param, indices)
        if isinstance(base, GridCompute):
            # inline the producer's definition at these indices
            mapping = {axis: idx for axis, idx in zip(base.axes, indices)}
            inlined = substitute(base.value, mapping)
            return self.visit(inlined)
        return super().visit_TensorElement(e)


def lower_compute_expr(value: Expr, bindings: dict[TensorInput, Var]) -> Expr:
    """Rewrite a *reduction-free* compute value into a kernel IR expression."""
    lowered = _ComputeLowerer(bindings).visit(value)
    if collect(lowered, ReduceCompute):
        raise ComputeLoweringError(
            'reduction found in a pure expression; use emit_value instead')
    return lowered


def emit_value(fb: FunctionBuilder, value: Expr,
               bindings: dict[TensorInput, Var],
               axis_values: dict[Var, Expr]) -> Expr:
    """Emit IR computing ``value`` at concrete output indices.

    ``axis_values`` binds the compute definition's output axes.  Every
    :class:`ReduceCompute` inside the value is materialized as a scalar
    accumulator with a serial loop (the rule-based strategy for reductions);
    the returned expression is reduction-free and ready to store.
    """
    value = substitute(value, axis_values)

    class ReduceEmitter(IRRewriter):
        def visit_ReduceCompute(self, e: ReduceCompute):
            if collect(e.value, ReduceCompute):
                raise ComputeLoweringError(
                    'nested reductions are not supported in one task; '
                    'split the operator instead')
            inner = e.value
            acc = fb.declare_var('acc', 'float32', convert(e.init_value))
            loop_vars: list[Var] = []
            ctxs = []
            for extent in e.extents:
                ctx = fb.for_range(extent, name='rk')
                loop_vars.append(ctx.__enter__())
                ctxs.append(ctx)
            mapping = dict(zip(e.axes, loop_vars))
            body_expr = lower_compute_expr(substitute(inner, mapping), bindings)
            fb.assign(acc, e.combine(acc, body_expr))
            for ctx in reversed(ctxs):
                ctx.__exit__(None, None, None)
            if e.op == 'avg':
                return acc / float(e.num_iterations)
            return acc

    value = ReduceEmitter().visit(value)
    return lower_compute_expr(value, bindings)
