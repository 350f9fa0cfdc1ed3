"""Functional executor for lowered tensor programs.

This is the reproduction's stand-in for running CUDA kernels on a GPU: it
executes a kernel :class:`~repro.ir.func.Function` over its launch grid with
*real thread-block semantics*:

* each thread of a block runs as a Python generator that yields at every
  :class:`~repro.ir.stmt.BarrierStmt` (``__syncthreads``);
* the block advances all threads in lock-step between barriers, so programs
  like double buffering — where one thread reads shared memory written by
  another thread *after* a barrier — execute correctly;
* shared-memory buffers are per-block, register buffers and scalars are
  per-thread, global buffers are the numpy arrays passed by the caller;
* floating-point buffers are initialized to NaN so reads of uninitialized
  memory surface as test failures instead of silently reading zeros.

For speed, expressions and statements are compiled once into Python closures;
a small matmul block executes in milliseconds, which keeps the correctness
suite fast.  Use small shapes: this is a semantics checker, not a performance
vehicle (latency comes from :mod:`repro.gpusim`).
"""
from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

import numpy as np

from ..ir.expr import (PY_UNARY, BinaryExpr, BlockIndex, Call, Cast, Constant,
                       Expr, IfThenElse, TensorElement, ThreadIndex, UnaryExpr,
                       Var)
from ..ir.func import Function
from ..ir.functor import collect
from ..ir.stmt import (AssignStmt, BarrierStmt, BufferStoreStmt, DeclareStmt,
                       EvaluateStmt, ForStmt, ForTaskStmt, IfStmt, LetStmt,
                       SeqStmt, Stmt)
from ..ir.types import TensorType, MemoryScope
from ..ir.passes import lower

__all__ = ['run_kernel', 'KernelInterpreter', 'InterpreterError']

_BARRIER = object()


class InterpreterError(Exception):
    pass


class _Ctx:
    """Per-thread execution context."""

    __slots__ = ('env', 'shared', 'tx', 'ty', 'tz', 'bx', 'by', 'bz')

    def __init__(self, env: dict, shared: dict, thread: tuple[int, int, int],
                 block: tuple[int, int, int]):
        self.env = env          # var id -> value (globals + per-thread scalars/registers)
        self.shared = shared    # var id -> per-block shared buffer
        self.tx, self.ty, self.tz = thread
        self.bx, self.by, self.bz = block


class KernelInterpreter:
    """Compile a kernel function into executable closures and run it."""

    def __init__(self, func: Function, max_blocks: Optional[int] = 4096):
        if _has_for_task(func.body):
            func = lower(func)
        self.func = func
        self.max_blocks = max_blocks
        self._body = self.compile_stmt(func.body)

    # ------------------------------------------------------------------
    # expression compilation
    # ------------------------------------------------------------------

    def compile_expr(self, e: Expr) -> Callable[[_Ctx], object]:
        if isinstance(e, Constant):
            v = e.value
            return lambda ctx: v
        if isinstance(e, Var):
            vid = e._id
            name = e.name
            def load_var(ctx, vid=vid, name=name):
                try:
                    return ctx.env[vid]
                except KeyError:
                    try:
                        return ctx.shared[vid]
                    except KeyError:
                        raise InterpreterError(f'undefined variable {name!r}') from None
            return load_var
        if isinstance(e, ThreadIndex):
            return {'x': lambda ctx: ctx.tx, 'y': lambda ctx: ctx.ty,
                    'z': lambda ctx: ctx.tz}[e.dim]
        if isinstance(e, BlockIndex):
            return {'x': lambda ctx: ctx.bx, 'y': lambda ctx: ctx.by,
                    'z': lambda ctx: ctx.bz}[e.dim]
        if isinstance(e, BinaryExpr):
            a, b = self.compile_expr(e.a), self.compile_expr(e.b)
            op = e.op
            if op == '&&':
                return lambda ctx: bool(a(ctx)) and bool(b(ctx))
            if op == '||':
                return lambda ctx: bool(a(ctx)) or bool(b(ctx))
            table = {
                '+': lambda ctx: a(ctx) + b(ctx),
                '-': lambda ctx: a(ctx) - b(ctx),
                '*': lambda ctx: a(ctx) * b(ctx),
                '/': lambda ctx: a(ctx) / b(ctx),
                '//': lambda ctx: a(ctx) // b(ctx),
                '%': lambda ctx: a(ctx) % b(ctx),
                'min': lambda ctx: min(a(ctx), b(ctx)),
                'max': lambda ctx: max(a(ctx), b(ctx)),
                '<': lambda ctx: a(ctx) < b(ctx),
                '<=': lambda ctx: a(ctx) <= b(ctx),
                '==': lambda ctx: a(ctx) == b(ctx),
                '!=': lambda ctx: a(ctx) != b(ctx),
            }
            return table[op]
        if isinstance(e, UnaryExpr):
            a = self.compile_expr(e.a)
            fn = PY_UNARY[e.op]
            return lambda ctx: fn(a(ctx))
        if isinstance(e, Cast):
            inner = self.compile_expr(e.expr)
            dtype = e.dtype
            return lambda ctx: dtype.cast_py(inner(ctx))
        if isinstance(e, TensorElement):
            base = self.compile_expr(e.base)
            idx = [self.compile_expr(i) for i in e.indices]
            if len(idx) == 1:
                i0 = idx[0]
                def load1(ctx):
                    arr = base(ctx)
                    return arr[i0(ctx)]
                return load1
            if len(idx) == 2:
                i0, i1 = idx
                def load2(ctx):
                    arr = base(ctx)
                    return arr[i0(ctx), i1(ctx)]
                return load2
            def loadn(ctx):
                arr = base(ctx)
                return arr[tuple(f(ctx) for f in idx)]
            return loadn
        if isinstance(e, IfThenElse):
            cond = self.compile_expr(e.cond)
            then_fn = self.compile_expr(e.then_expr)
            else_fn = self.compile_expr(e.else_expr)
            # lazy: the untaken branch is never evaluated, so predicated
            # loads guard out-of-bounds accesses exactly like on hardware
            return lambda ctx: then_fn(ctx) if cond(ctx) else else_fn(ctx)
        if isinstance(e, Call):
            return self._compile_call(e)
        raise NotImplementedError(f'cannot interpret expression {type(e).__name__}')

    def _compile_call(self, e: Call) -> Callable[[_Ctx], object]:
        if e.func_name == 'atomic_add':
            buf = self.compile_expr(e.args[0])
            idx = [self.compile_expr(i) for i in e.args[1:-1]]
            value = self.compile_expr(e.args[-1])
            def do_atomic_add(ctx):
                arr = buf(ctx)
                key = tuple(f(ctx) for f in idx)
                old = arr[key]
                arr[key] = old + value(ctx)
                return old
            return do_atomic_add
        if e.func_name == 'fma':
            a, b, c = (self.compile_expr(x) for x in e.args)
            return lambda ctx: a(ctx) * b(ctx) + c(ctx)
        raise NotImplementedError(
            f'primitive {e.func_name!r} is not supported by the interpreter '
            f'(codegen-only primitive)')

    # ------------------------------------------------------------------
    # statement compilation (generator closures; yield == barrier)
    # ------------------------------------------------------------------

    def compile_stmt(self, s: Stmt) -> Callable:
        if isinstance(s, SeqStmt):
            parts = [self.compile_stmt(st) for st in s.stmts]
            def run_seq(ctx):
                for part in parts:
                    yield from part(ctx)
            return run_seq
        if isinstance(s, DeclareStmt):
            return self._compile_declare(s)
        if isinstance(s, BufferStoreStmt):
            buf = self.compile_expr(s.buf)
            idx = [self.compile_expr(i) for i in s.indices]
            value = self.compile_expr(s.value)
            if len(idx) == 2:
                i0, i1 = idx
                def store2(ctx):
                    buf(ctx)[i0(ctx), i1(ctx)] = value(ctx)
                    return
                    yield
                return store2
            def store(ctx):
                buf(ctx)[tuple(f(ctx) for f in idx)] = value(ctx)
                return
                yield
            return store
        if isinstance(s, AssignStmt):
            vid = s.var._id
            value = self.compile_expr(s.value)
            def assign(ctx):
                ctx.env[vid] = value(ctx)
                return
                yield
            return assign
        if isinstance(s, LetStmt):
            vid = s.var._id
            value = self.compile_expr(s.value)
            body = self.compile_stmt(s.body)
            def let(ctx):
                ctx.env[vid] = value(ctx)
                yield from body(ctx)
            return let
        if isinstance(s, ForStmt):
            vid = s.loop_var._id
            extent = self.compile_expr(s.extent)
            body = self.compile_stmt(s.body)
            def loop(ctx):
                env = ctx.env
                for i in range(extent(ctx)):
                    env[vid] = i
                    yield from body(ctx)
            return loop
        if isinstance(s, IfStmt):
            cond = self.compile_expr(s.cond)
            then_body = self.compile_stmt(s.then_body)
            else_body = self.compile_stmt(s.else_body) if s.else_body is not None else None
            def branch(ctx):
                if cond(ctx):
                    yield from then_body(ctx)
                elif else_body is not None:
                    yield from else_body(ctx)
            return branch
        if isinstance(s, BarrierStmt):
            def barrier(ctx):
                yield _BARRIER
            return barrier
        if isinstance(s, EvaluateStmt):
            expr = self.compile_expr(s.expr)
            def evaluate(ctx):
                expr(ctx)
                return
                yield
            return evaluate
        if isinstance(s, ForTaskStmt):
            raise InterpreterError('ForTaskStmt must be lowered before interpretation')
        raise NotImplementedError(f'cannot interpret statement {type(s).__name__}')

    def _compile_declare(self, s: DeclareStmt) -> Callable:
        var = s.var
        vid = var._id
        if isinstance(var.type, TensorType):
            ttype: TensorType = var.type
            shape, np_dtype = ttype.shape, ttype.dtype.np_dtype
            fill = np.nan if ttype.dtype.is_float else 0
            if ttype.scope == MemoryScope.SHARED:
                def declare_shared(ctx):
                    if vid not in ctx.shared:
                        ctx.shared[vid] = np.full(shape, fill, dtype=np_dtype)
                    return
                    yield
                return declare_shared
            if ttype.scope == MemoryScope.REGISTER:
                def declare_register(ctx):
                    ctx.env[vid] = np.full(shape, fill, dtype=np_dtype)
                    return
                    yield
                return declare_register
            raise InterpreterError(f'cannot declare a global buffer {var.name!r} inside a kernel')
        init = self.compile_expr(s.init) if s.init is not None else None
        def declare_scalar(ctx):
            ctx.env[vid] = init(ctx) if init is not None else 0
            return
            yield
        return declare_scalar

    # ------------------------------------------------------------------
    # launch
    # ------------------------------------------------------------------

    def run(self, args: Sequence) -> None:
        """Execute the kernel over its grid, mutating the numpy array arguments."""
        func = self.func
        if len(args) != len(func.params):
            raise InterpreterError(
                f'kernel {func.name!r} takes {len(func.params)} arguments, got {len(args)}')
        global_env: dict[int, object] = {}
        for param, arg in zip(func.params, args):
            if isinstance(param.type, TensorType):
                if not isinstance(arg, np.ndarray):
                    raise InterpreterError(f'argument {param.name!r} must be a numpy array')
                if tuple(arg.shape) != param.type.shape:
                    raise InterpreterError(
                        f'argument {param.name!r} has shape {tuple(arg.shape)}, '
                        f'expected {param.type.shape}')
                global_env[param._id] = arg
            else:
                global_env[param._id] = arg

        gx, gy, gz = func.grid_dim
        bx, by, bz = func.block_dim
        num_blocks = gx * gy * gz
        num_threads = bx * by * bz
        if self.max_blocks is not None and num_blocks > self.max_blocks:
            raise InterpreterError(
                f'grid of {num_blocks} blocks exceeds interpreter limit '
                f'({self.max_blocks}); use smaller shapes for functional tests')

        for bz_i, by_i, bx_i in itertools.product(range(gz), range(gy), range(gx)):
            self._run_block(global_env, (bx_i, by_i, bz_i), (bx, by, bz), num_threads)

    def _run_block(self, global_env: dict, block: tuple[int, int, int],
                   block_dim: tuple[int, int, int], num_threads: int) -> None:
        bx, by, bz = block_dim
        shared: dict[int, np.ndarray] = {}
        threads = []
        for tz_i, ty_i, tx_i in itertools.product(range(bz), range(by), range(bx)):
            ctx = _Ctx(dict(global_env), shared, (tx_i, ty_i, tz_i), block)
            threads.append(self._body(ctx))
        # lock-step execution between barriers
        alive = list(range(num_threads))
        while alive:
            still_alive = []
            barrier_hits = 0
            for t in alive:
                try:
                    signal = next(threads[t])
                except StopIteration:
                    continue
                if signal is _BARRIER:
                    barrier_hits += 1
                    still_alive.append(t)
                else:  # pragma: no cover - defensive
                    raise InterpreterError('unexpected yield from thread generator')
            if still_alive and barrier_hits != len(alive):
                raise InterpreterError(
                    f'barrier divergence: {barrier_hits} of {len(alive)} threads '
                    f'reached __syncthreads() — kernel would deadlock')
            alive = still_alive


def _has_for_task(stmt: Stmt) -> bool:
    return len(collect(stmt, ForTaskStmt)) > 0


def run_kernel(func: Function, args: Sequence, max_blocks: Optional[int] = 4096) -> None:
    """Lower (if needed) and execute ``func`` on numpy arguments."""
    KernelInterpreter(func, max_blocks=max_blocks).run(args)
