"""Ergonomic construction of tensor programs.

:class:`FunctionBuilder` provides the in-program scheduling style of the
paper: plain loops, task-mapping loops, conditionals, and buffer declarations
are written with context managers so that kernels read top-to-bottom like
Figure 3 / Figure 5::

    fb = FunctionBuilder('matmul', grid_dim=grid, block_dim=threads)
    a = fb.tensor_param('A', f32, [m, k])
    smem_a = fb.shared_tensor('smem_a', f32, [2, bm, bk])
    with fb.for_range(num_k_tiles, name='k0') as k0:
        with fb.for_task(load_map, worker=thread_idx()) as (i, kk):
            ...
        fb.sync()
    func = fb.finish()
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Sequence

from .expr import (ExprLike, Var, convert, var as make_var, tensor_var,
                   thread_idx, block_idx)
from .func import Function
from .stmt import (Stmt, DeclareStmt, BufferStoreStmt, AssignStmt, ForStmt,
                   ForTaskStmt, IfStmt, BarrierStmt, EvaluateStmt, seq_stmt)
from .types import DataType, MemoryScope, data_type

__all__ = ['FunctionBuilder']


class FunctionBuilder:
    """Builds a :class:`~repro.ir.func.Function` statement by statement."""

    def __init__(self, name: str, grid_dim=1, block_dim=1, attrs: Optional[dict] = None):
        self.name = name
        self.grid_dim = grid_dim
        self.block_dim = block_dim
        self.attrs = dict(attrs or {})
        self.params: list[Var] = []
        self._scopes: list[list[Stmt]] = [[]]
        self._name_counts: dict[str, int] = {}

    # -- naming -------------------------------------------------------------

    def fresh_name(self, base: str) -> str:
        count = self._name_counts.get(base, 0)
        self._name_counts[base] = count + 1
        return base if count == 0 else f'{base}_{count}'

    # -- parameters ----------------------------------------------------------

    def tensor_param(self, name: str, dtype: DataType | str, shape: Sequence[int]) -> Var:
        param = tensor_var(name, dtype, shape, MemoryScope.GLOBAL)
        self.params.append(param)
        return param

    def scalar_param(self, name: str, dtype: DataType | str = 'int32') -> Var:
        param = make_var(name, dtype)
        self.params.append(param)
        return param

    # -- declarations ----------------------------------------------------------

    def _declare(self, v: Var, init: Optional[ExprLike] = None) -> Var:
        self.append(DeclareStmt(v, convert(init) if init is not None else None))
        return v

    def shared_tensor(self, name: str, dtype: DataType | str, shape: Sequence[int]) -> Var:
        """Declare a shared-memory buffer (per thread block)."""
        return self._declare(tensor_var(self.fresh_name(name), dtype, shape, MemoryScope.SHARED))

    def register_tensor(self, name: str, dtype: DataType | str, shape: Sequence[int]) -> Var:
        """Declare a register buffer (private to each thread)."""
        return self._declare(tensor_var(self.fresh_name(name), dtype, shape, MemoryScope.REGISTER))

    def declare_var(self, name: str, dtype: DataType | str = 'int32',
                    init: Optional[ExprLike] = None) -> Var:
        """Declare a mutable scalar variable."""
        return self._declare(make_var(self.fresh_name(name), data_type(dtype)), init)

    def let(self, name: str, value: ExprLike) -> Var:
        """Bind an immutable scalar to a fresh variable (emitted as Let on finish).

        For simplicity we emit an initialized declaration; the variable must
        not be re-assigned (the verifier checks this for Let-like uses).
        """
        return self.declare_var(name, 'int32', value)

    # -- statements ----------------------------------------------------------

    def append(self, stmt: Stmt) -> None:
        self._scopes[-1].append(stmt)

    def store(self, buf: Var, indices: Sequence[ExprLike], value: ExprLike) -> None:
        self.append(BufferStoreStmt(buf, [convert(i) for i in indices], convert(value)))

    def assign(self, v: Var, value: ExprLike) -> None:
        self.append(AssignStmt(v, convert(value)))

    def sync(self) -> None:
        """Emit a ``__syncthreads()`` barrier."""
        self.append(BarrierStmt())

    def evaluate(self, expr: ExprLike) -> None:
        self.append(EvaluateStmt(convert(expr)))

    # -- control flow ----------------------------------------------------------

    @contextmanager
    def for_range(self, extent: ExprLike, name: str = 'i', unroll: bool = False):
        loop_var = make_var(self.fresh_name(name), 'int32')
        self._scopes.append([])
        try:
            yield loop_var
        finally:
            body = seq_stmt(self._scopes.pop())
            self.append(ForStmt(loop_var, convert(extent), body, unroll=unroll))

    @contextmanager
    def for_task(self, mapping, worker: ExprLike, names: Sequence[str] | None = None):
        """Iterate the tasks that ``mapping`` assigns to ``worker`` (paper Fig. 8)."""
        num_dims = len(mapping.task_shape)
        if names is None:
            names = [f't{i}' for i in range(num_dims)]
        loop_vars = tuple(make_var(self.fresh_name(n), 'int32') for n in names)
        self._scopes.append([])
        try:
            yield loop_vars if num_dims > 1 else loop_vars[0]
        finally:
            body = seq_stmt(self._scopes.pop())
            self.append(ForTaskStmt(loop_vars, mapping, convert(worker), body))

    @contextmanager
    def if_then(self, cond: ExprLike):
        self._scopes.append([])
        try:
            yield
        finally:
            body = seq_stmt(self._scopes.pop())
            self.append(IfStmt(convert(cond), body))

    @contextmanager
    def otherwise(self):
        """Attach an else-branch to the immediately preceding ``if_then``."""
        prev = self._scopes[-1][-1] if self._scopes[-1] else None
        if not isinstance(prev, IfStmt) or prev.else_body is not None:
            raise ValueError('otherwise() must directly follow an if_then() block')
        self._scopes.append([])
        try:
            yield
        finally:
            body = seq_stmt(self._scopes.pop())
            self._scopes[-1][-1] = IfStmt(prev.cond, prev.then_body, body)

    # -- finish ----------------------------------------------------------------

    def finish(self) -> Function:
        if len(self._scopes) != 1:
            raise RuntimeError('unclosed control-flow scope in FunctionBuilder')
        body = seq_stmt(self._scopes[0])
        return Function(self.name, self.params, body,
                        grid_dim=self.grid_dim, block_dim=self.block_dim, attrs=self.attrs)

    # convenience re-exports so templates only import the builder
    thread_idx = staticmethod(thread_idx)
    block_idx = staticmethod(block_idx)
