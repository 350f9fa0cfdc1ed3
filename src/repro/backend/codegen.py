"""CUDA C source generation from lowered tensor programs.

Hidet lowers task-mapping programs to CUDA C and hands them to ``nvcc``
(paper §5, §6.1).  We reproduce the code generator faithfully — the emitted
source compiles conceptually as CUDA C — but in this environment nothing runs
it; it serves inspection, documentation, and structural tests (e.g. "the
double-buffered kernel declares two shared buffers and syncs once per tile").
"""
from __future__ import annotations

from ..ir.expr import (BINARY_PRECEDENCE, BinaryExpr, BlockIndex, Call, Cast,
                       Constant, Expr, IfThenElse, TensorElement, ThreadIndex,
                       UnaryExpr, Var)
from ..ir.func import Function, IRModule
from ..ir.stmt import (AssignStmt, BarrierStmt, BufferStoreStmt, DeclareStmt,
                       EvaluateStmt, ForStmt, ForTaskStmt, IfStmt, LetStmt,
                       SeqStmt, Stmt)
from ..ir.types import TensorType, MemoryScope
from ..ir.primitives import PRIMITIVES
from ..ir.passes import lower

__all__ = ['generate_cuda', 'generate_cuda_module']

_CUDA_DTYPE = {
    'float64': 'double', 'float32': 'float', 'float16': '__half',
    'int64': 'long long', 'int32': 'int', 'int8': 'char', 'uint8': 'unsigned char',
    'bool': 'bool',
}

_MATH_FUNCS = {
    'exp': 'expf', 'log': 'logf', 'sqrt': 'sqrtf', 'rsqrt': 'rsqrtf',
    'abs': 'fabsf', 'tanh': 'tanhf', 'erf': 'erff',
    'floor': 'floorf', 'ceil': 'ceilf',
}


class CudaCodegen:
    def __init__(self):
        self._lines: list[str] = []
        self._indent = 0

    # -- emission helpers ---------------------------------------------------

    def line(self, text: str = '') -> None:
        self._lines.append('    ' * self._indent + text if text else '')

    def source(self) -> str:
        return '\n'.join(self._lines) + '\n'

    # -- expressions ----------------------------------------------------------

    def expr(self, e: Expr, parent_prec: int = 0) -> str:
        if isinstance(e, Constant):
            if e.dtype.is_float:
                return f'{float(e.value)!r}f'
            if e.dtype.name == 'bool':
                return 'true' if e.value else 'false'
            return str(e.value)
        if isinstance(e, Var):
            return e.name
        if isinstance(e, ThreadIndex):
            return f'threadIdx.{e.dim}'
        if isinstance(e, BlockIndex):
            return f'blockIdx.{e.dim}'
        if isinstance(e, BinaryExpr):
            if e.op in ('min', 'max'):
                return f'{e.op}({self.expr(e.a)}, {self.expr(e.b)})'
            op = {'//': '/'}.get(e.op, e.op)
            prec = BINARY_PRECEDENCE[e.op]
            text = f'{self.expr(e.a, prec)} {op} {self.expr(e.b, prec + 1)}'
            return f'({text})' if prec < parent_prec else text
        if isinstance(e, UnaryExpr):
            if e.op == '-':
                inner = self.expr(e.a, 7)
                if inner.startswith('-'):
                    # '--x' is C predecrement, '--5' a syntax error: a
                    # negated operand must keep its own parentheses
                    return f'-({inner})'
                return f'-{inner}'
            if e.op == '!':
                return f'!{self.expr(e.a, 7)}'
            if e.op == 'sigmoid':
                inner = self.expr(e.a)
                return f'(1.0f / (1.0f + expf(-{inner})))'
            return f'{_MATH_FUNCS[e.op]}({self.expr(e.a)})'
        if isinstance(e, Cast):
            return f'({_CUDA_DTYPE[e.dtype.name]})({self.expr(e.expr)})'
        if isinstance(e, TensorElement):
            return f'{self.expr(e.base, 8)}{self._index_suffix(e.base, e.indices)}'
        if isinstance(e, IfThenElse):
            return (f'({self.expr(e.cond)} ? {self.expr(e.then_expr)} '
                    f': {self.expr(e.else_expr)})')
        if isinstance(e, Call):
            return self._call(e)
        raise NotImplementedError(f'codegen for expression {type(e).__name__}')

    def _index_suffix(self, base: Expr, indices) -> str:
        # Global tensor parameters are flat pointers: linearize row-major.
        if isinstance(base, Var) and isinstance(base.type, TensorType) \
                and base.type.scope == MemoryScope.GLOBAL:
            shape = base.type.shape
            linear = None
            for extent, idx in zip(shape, indices):
                linear = idx if linear is None else linear * extent + idx
            return f'[{self.expr(linear)}]' if linear is not None else '[0]'
        # Shared/register buffers keep their array shape.
        return ''.join(f'[{self.expr(i)}]' for i in indices)

    def _call(self, e: Call) -> str:
        name = PRIMITIVES.get(e.func_name)
        if name is None:
            raise NotImplementedError(f'unknown primitive {e.func_name!r}')
        if e.func_name == 'atomic_add':
            buf, *indices, value = e.args
            target = f'{self.expr(buf, 8)}{self._index_suffix(buf, indices)}'
            return f'atomicAdd(&{target}, {self.expr(value)})'
        args = ', '.join(self.expr(a) for a in e.args)
        return f'{name}({args})'

    # -- statements -----------------------------------------------------------

    def stmt(self, s: Stmt) -> None:
        if isinstance(s, SeqStmt):
            for st in s.stmts:
                self.stmt(st)
        elif isinstance(s, DeclareStmt):
            self._declare(s)
        elif isinstance(s, BufferStoreStmt):
            target = f'{s.buf.name}{self._index_suffix(s.buf, s.indices)}'
            self.line(f'{target} = {self.expr(s.value)};')
        elif isinstance(s, AssignStmt):
            self.line(f'{s.var.name} = {self.expr(s.value)};')
        elif isinstance(s, LetStmt):
            ctype = _CUDA_DTYPE[s.var.type.name]
            self.line(f'{ctype} {s.var.name} = {self.expr(s.value)};')
            self.stmt(s.body)
        elif isinstance(s, ForStmt):
            if s.unroll:
                self.line('#pragma unroll')
            v = s.loop_var.name
            self.line(f'for (int {v} = 0; {v} < {self.expr(s.extent)}; {v}++) {{')
            self._indent += 1
            self.stmt(s.body)
            self._indent -= 1
            self.line('}')
        elif isinstance(s, IfStmt):
            self.line(f'if ({self.expr(s.cond)}) {{')
            self._indent += 1
            self.stmt(s.then_body)
            self._indent -= 1
            if s.else_body is not None:
                self.line('} else {')
                self._indent += 1
                self.stmt(s.else_body)
                self._indent -= 1
            self.line('}')
        elif isinstance(s, BarrierStmt):
            self.line('__syncthreads();')
        elif isinstance(s, EvaluateStmt):
            self.line(f'{self.expr(s.expr)};')
        elif isinstance(s, ForTaskStmt):
            raise NotImplementedError('ForTaskStmt must be lowered before codegen')
        else:
            raise NotImplementedError(f'codegen for statement {type(s).__name__}')

    def _declare(self, s: DeclareStmt) -> None:
        var = s.var
        if isinstance(var.type, TensorType):
            t: TensorType = var.type
            ctype = _CUDA_DTYPE[t.dtype.name]
            dims = ''.join(f'[{d}]' for d in t.shape)
            prefix = '__shared__ ' if t.scope == MemoryScope.SHARED else ''
            self.line(f'{prefix}{ctype} {var.name}{dims};')
        else:
            ctype = _CUDA_DTYPE[var.type.name]
            init = f' = {self.expr(s.init)}' if s.init is not None else ''
            self.line(f'{ctype} {var.name}{init};')

    # -- functions ------------------------------------------------------------

    def func(self, f: Function) -> None:
        params = []
        for p in f.params:
            if isinstance(p.type, TensorType):
                params.append(f'{_CUDA_DTYPE[p.type.dtype.name]}* __restrict__ {p.name}')
            else:
                params.append(f'{_CUDA_DTYPE[p.type.name]} {p.name}')
        gx, gy, gz = f.grid_dim
        bx, by, bz = f.block_dim
        self.line(f'// grid dim: ({gx}, {gy}, {gz}), block dim: ({bx}, {by}, {bz})')
        self.line(f'__global__ void {f.name}({", ".join(params)}) {{')
        self._indent += 1
        self.stmt(f.body)
        self._indent -= 1
        self.line('}')


def generate_cuda(func: Function) -> str:
    """Emit CUDA C source for one kernel (lowering it first if needed)."""
    gen = CudaCodegen()
    gen.func(lower(func))
    return gen.source()


def generate_cuda_module(module: IRModule) -> str:
    """Emit CUDA C source for all kernels of a module."""
    gen = CudaCodegen()
    gen.line('#include <cuda_runtime.h>')
    gen.line()
    for f in module:
        gen.func(lower(f))
        gen.line()
    return gen.source()
