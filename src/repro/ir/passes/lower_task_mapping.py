"""Lower ``ForTaskStmt`` to plain loops and index arithmetic.

This pass implements the "Lower task mapping" step of Figure 8: a task-mapping
loop over ``repeat(4, 1) * spatial(16, 8)`` on worker ``threadIdx.x`` becomes::

    for io in range(4):            # repeat dimensions -> (unrolled) loops
        i = io * 16 + t / 8        # spatial dimensions -> index expressions
        k = t % 8
        body(i, k)

Structured mappings (repeat / spatial / composition) lower without
enumeration; custom mappings lower through their symbolic ``worker2task``.
"""
from __future__ import annotations

from typing import Callable

from ..expr import Expr, convert, var as make_var
from ..functor import IRRewriter
from ..stmt import ForStmt, ForTaskStmt, Stmt, seq_stmt
from ..tools import substitute
from ..taskmap import (TaskMapping, RepeatTaskMapping, SpatialTaskMapping,
                       ComposedTaskMapping, CustomTaskMapping)

__all__ = ['lower_task_mappings', 'UNROLL_LIMIT']

#: repeat loops with at most this many iterations are marked for full unrolling
UNROLL_LIMIT = 16


def _lower_mapping(mapping: TaskMapping, worker: Expr,
                   cont: Callable[[tuple[Expr, ...]], Stmt]) -> Stmt:
    """Generate the loop nest realizing ``mapping`` for symbolic ``worker``.

    ``cont`` is the continuation receiving the task index expressions and
    returning the statement to nest innermost.
    """
    if isinstance(mapping, SpatialTaskMapping):
        (indices,) = mapping.worker2task(worker)
        return cont(tuple(convert(i) for i in indices))

    if isinstance(mapping, RepeatTaskMapping):
        num_dims = len(mapping.task_shape)
        loop_vars = [make_var(f'r{i}', 'int32') for i in range(num_dims)]
        body = cont(tuple(loop_vars))
        # Nest loops so the highest-rank (fastest-varying) dimension is innermost.
        order = sorted(range(num_dims), key=lambda i: mapping.ranks[i], reverse=True)
        for dim in order:
            extent = mapping.task_shape[dim]
            unroll = extent <= UNROLL_LIMIT
            body = ForStmt(loop_vars[dim], convert(extent), body, unroll=unroll)
        return body

    if isinstance(mapping, ComposedTaskMapping):
        n2 = mapping.inner.num_workers
        d2 = mapping.inner.task_shape
        outer_worker = worker // n2
        inner_worker = worker % n2

        def outer_cont(outer_idx: tuple[Expr, ...]) -> Stmt:
            def inner_cont(inner_idx: tuple[Expr, ...]) -> Stmt:
                combined = tuple(a * d + b for a, d, b in zip(outer_idx, d2, inner_idx))
                return cont(combined)
            return _lower_mapping(mapping.inner, inner_worker, inner_cont)

        return _lower_mapping(mapping.outer, outer_worker, outer_cont)

    if isinstance(mapping, CustomTaskMapping):
        # Symbolic enumeration: one body instance per assigned task.
        stmts = [cont(tuple(convert(i) for i in task))
                 for task in mapping.worker2task(worker)]
        return seq_stmt(stmts)

    raise NotImplementedError(f'cannot lower task mapping of type {type(mapping).__name__}')


class _TaskMappingLowerer(IRRewriter):
    def visit(self, node):
        # only statements are rewritten: expressions are returned unvisited
        if isinstance(node, Expr):
            return node
        return IRRewriter.visit(self, node)

    def visit_ForTaskStmt(self, s: ForTaskStmt):
        body = self.visit(s.body)

        def cont(indices: tuple[Expr, ...]) -> Stmt:
            mapping = {v: i for v, i in zip(s.loop_vars, indices)}
            return substitute(body, mapping)

        return _lower_mapping(s.mapping, s.worker, cont)


def lower_task_mappings(node):
    """Rewrite every :class:`ForTaskStmt` under ``node`` into loops + indices.

    Accepts a statement or a whole :class:`~repro.ir.func.Function`.
    """
    from ..func import Function
    if isinstance(node, Function):
        body = _TaskMappingLowerer().visit(node.body)
        if body is node.body:
            return node
        return Function(node.name, node.params, body, node.grid_dim, node.block_dim, node.attrs)
    return _TaskMappingLowerer().visit(node)
