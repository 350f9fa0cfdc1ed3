"""Statement nodes of the tensor-program IR.

The statement set matches what GPU kernels need: buffer declarations and
stores, scalar assignment, plain ``for`` loops (optionally unrolled),
**task-mapping loops** (:class:`ForTaskStmt` — the paper's paradigm),
conditionals, barriers (``__syncthreads``), and expression evaluation.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .expr import Expr, Var, convert

__all__ = [
    'Stmt', 'DeclareStmt', 'BufferStoreStmt', 'AssignStmt', 'LetStmt',
    'ForStmt', 'ForTaskStmt', 'IfStmt', 'SeqStmt', 'BarrierStmt',
    'EvaluateStmt', 'seq_stmt',
]


class Stmt:
    """Base class of all IR statements."""

    __slots__ = ()

    def __repr__(self) -> str:
        from .tools import stmt_repr
        return stmt_repr(self)


class DeclareStmt(Stmt):
    """Declare a variable.

    For tensor variables this allocates a buffer in the variable's memory
    scope (shared memory buffers are per-block; register buffers per-thread).
    For scalar variables an optional initializer may be given.
    """

    __slots__ = ('var', 'init')

    def __init__(self, var: Var, init: Optional[Expr] = None):
        self.var = var
        self.init = convert(init) if init is not None else None


class BufferStoreStmt(Stmt):
    """``buf[indices] = value``"""

    __slots__ = ('buf', 'indices', 'value')

    def __init__(self, buf: Var, indices: Sequence[Expr], value: Expr):
        self.buf = buf
        self.indices = tuple(convert(i) for i in indices)
        self.value = convert(value)


class AssignStmt(Stmt):
    """``var = value`` for scalar variables."""

    __slots__ = ('var', 'value')

    def __init__(self, var: Var, value: Expr):
        self.var = var
        self.value = convert(value)


class LetStmt(Stmt):
    """``let var = value in body`` — immutable binding."""

    __slots__ = ('var', 'value', 'body')

    def __init__(self, var: Var, value: Expr, body: Stmt):
        self.var = var
        self.value = convert(value)
        self.body = body


class ForStmt(Stmt):
    """``for loop_var in range(extent): body`` with an optional unroll hint."""

    __slots__ = ('loop_var', 'extent', 'body', 'unroll')

    def __init__(self, loop_var: Var, extent, body: Stmt, unroll: bool = False):
        self.loop_var = loop_var
        self.extent = convert(extent)
        self.body = body
        self.unroll = unroll


class ForTaskStmt(Stmt):
    """``for <loop_vars> in mapping(worker): body`` — the task-mapping loop.

    This is the construct at the heart of the paradigm: ``mapping`` is a
    :class:`~repro.ir.taskmap.TaskMapping` assigning a grid of tasks to
    workers, ``worker`` is the worker index expression (e.g. ``threadIdx.x``),
    and the body is executed once per task assigned to that worker with
    ``loop_vars`` bound to the task indices.  The ``lower_task_mapping`` pass
    eliminates this node by materializing per-worker loops and index
    arithmetic.
    """

    __slots__ = ('loop_vars', 'mapping', 'worker', 'body')

    def __init__(self, loop_vars: Sequence[Var], mapping, worker: Expr, body: Stmt):
        if len(loop_vars) != len(mapping.task_shape):
            raise ValueError(
                f'task mapping has {len(mapping.task_shape)} dimensions but '
                f'{len(loop_vars)} loop variables were given'
            )
        self.loop_vars = tuple(loop_vars)
        self.mapping = mapping
        self.worker = convert(worker)
        self.body = body


class IfStmt(Stmt):
    __slots__ = ('cond', 'then_body', 'else_body')

    def __init__(self, cond: Expr, then_body: Stmt, else_body: Optional[Stmt] = None):
        self.cond = convert(cond)
        self.then_body = then_body
        self.else_body = else_body


class SeqStmt(Stmt):
    __slots__ = ('stmts',)

    def __init__(self, stmts: Sequence[Stmt]):
        self.stmts = tuple(stmts)


class BarrierStmt(Stmt):
    """``__syncthreads()`` — synchronize all threads of a thread block."""

    __slots__ = ()


class EvaluateStmt(Stmt):
    """Evaluate an expression for its side effects (e.g. ``atomic_add`` calls)."""

    __slots__ = ('expr',)

    def __init__(self, expr: Expr):
        self.expr = convert(expr)


def seq_stmt(stmts: Sequence[Stmt]) -> Stmt:
    """Sequence statements, flattening nested sequences and unwrapping singletons."""
    flat: list[Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, SeqStmt):
            flat.extend(stmt.stmts)
        else:
            flat.append(stmt)
    if len(flat) == 1:
        return flat[0]
    return SeqStmt(flat)
