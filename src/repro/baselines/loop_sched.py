"""Declarative loop-oriented scheduling (paper §2.3, Table 1).

This is a working reimplementation of the TVM-style scheduling interface the
paper argues against:

1. :func:`create_default_program` turns a computation definition into a
   default loop nest (Figure 4 step 1);
2. :class:`LoopSchedule` applies declarative primitives — ``fuse``,
   ``split``, ``reorder``, ``bind``, ``unroll`` — to the loop structure
   (Figure 4 step 2, Table 1);
3. ``lower()`` materializes a kernel :class:`~repro.ir.func.Function` whose
   bound loops become launch dimensions.

The primitives transform the loop *structure only* — they cannot restructure
the loop body, which is exactly why double buffering (Figure 5) is
inexpressible here (§3.1): there is no primitive that splits one load into a
register prefetch and a later shared-memory commit.

Splits require perfect factors, matching the input-centric space restriction
of §3.3 ("only tile n-length loops with proper factors of n").
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..ir import (BinaryExpr, BlockIndex, Expr, Function, Stmt, ThreadIndex, Var,
                  convert, stmt_repr, substitute, var as make_var)
from ..ir.builders import FunctionBuilder
from ..ir.compute import ReduceCompute, TensorInput
from ..ir.functor import collect
from ..ir.stmt import BufferStoreStmt, ForStmt
from ..ir.task import Task
from ..sched.lower_compute import lower_compute_expr

__all__ = ['Loop', 'LoopSchedule', 'create_default_program', 'ScheduleError']

_BINDABLE = ('blockIdx.x', 'blockIdx.y', 'blockIdx.z',
             'threadIdx.x', 'threadIdx.y', 'threadIdx.z')


class ScheduleError(Exception):
    pass


@dataclass
class Loop:
    """One loop of the nest: an iteration variable, its extent, annotations."""

    var: Var
    extent: int
    bind: Optional[str] = None     # one of _BINDABLE, or None
    unroll: bool = False

    @property
    def name(self) -> str:
        return self.var.name


class LoopSchedule:
    """A loop nest plus the declarative primitives of Table 1."""

    def __init__(self, loops: Sequence[Loop], body: Stmt, task: Optional[Task] = None,
                 name: str = 'kernel'):
        self.loops: list[Loop] = list(loops)
        self.body = body
        self.task = task
        self.name = name
        self.params: list[Var] = []

    # -- queries ------------------------------------------------------------

    def loop_named(self, name: str) -> Loop:
        for loop in self.loops:
            if loop.name == name:
                return loop
        raise ScheduleError(f'no loop named {name!r}')

    def _index(self, loop: Loop) -> int:
        for i, l in enumerate(self.loops):
            if l is loop:
                return i
        raise ScheduleError(f'loop {loop.name!r} is not part of this schedule')

    # -- primitives (Table 1) -------------------------------------------------

    def split(self, loop: Loop | str, factor: int) -> tuple[Loop, Loop]:
        """``split(i, f)``: i -> (outer, inner) with ``i = outer * f + inner``.

        Only perfect splits are allowed (the input-centric restriction)."""
        loop = self.loop_named(loop) if isinstance(loop, str) else loop
        if loop.bind is not None:
            raise ScheduleError('cannot split a bound loop')
        if loop.extent % factor != 0:
            raise ScheduleError(
                f'split factor {factor} does not divide loop extent {loop.extent} '
                f'(loop-oriented schedulers only cover perfect tile sizes, §3.3)')
        idx = self._index(loop)
        outer = Loop(make_var(f'{loop.name}o', 'int32'), loop.extent // factor)
        inner = Loop(make_var(f'{loop.name}i', 'int32'), factor)
        self.body = substitute(self.body, {loop.var: outer.var * factor + inner.var})
        self.loops[idx:idx + 1] = [outer, inner]
        return outer, inner

    def fuse(self, first: Loop | str, second: Loop | str) -> Loop:
        """``fuse(i, j)``: two adjacent loops -> one loop of extent i*j."""
        first = self.loop_named(first) if isinstance(first, str) else first
        second = self.loop_named(second) if isinstance(second, str) else second
        i, j = self._index(first), self._index(second)
        if j != i + 1:
            raise ScheduleError('fuse requires adjacent loops (reorder first)')
        if first.bind or second.bind:
            raise ScheduleError('cannot fuse bound loops')
        fused = Loop(make_var(f'{first.name}{second.name}', 'int32'),
                     first.extent * second.extent)
        self.body = substitute(self.body, {
            first.var: fused.var // second.extent,
            second.var: fused.var % second.extent,
        })
        self.loops[i:j + 1] = [fused]
        return fused

    def reorder(self, *order: Loop | str) -> None:
        """``reorder(...)``: permute the listed loops into the given order."""
        loops = [self.loop_named(l) if isinstance(l, str) else l for l in order]
        positions = sorted(self._index(l) for l in loops)
        for pos, loop in zip(positions, loops):
            self.loops[pos] = loop

    def bind(self, loop: Loop | str, axis: str) -> None:
        """``bind(i, threadIdx.x)``: map a loop onto a hardware axis."""
        loop = self.loop_named(loop) if isinstance(loop, str) else loop
        if axis not in _BINDABLE:
            raise ScheduleError(f'cannot bind to {axis!r}')
        if any(l.bind == axis for l in self.loops):
            raise ScheduleError(f'{axis} is already bound')
        loop.bind = axis

    def unroll(self, loop: Loop | str) -> None:
        loop = self.loop_named(loop) if isinstance(loop, str) else loop
        loop.unroll = True

    # -- lowering ---------------------------------------------------------------

    def lower(self) -> Function:
        """Materialize the scheduled loop nest as a kernel function."""
        grid = {'x': 1, 'y': 1, 'z': 1}
        block = {'x': 1, 'y': 1, 'z': 1}
        body = self.body
        bind_subst: dict[Var, Expr] = {}
        serial: list[Loop] = []
        for loop in self.loops:
            if loop.bind is None:
                serial.append(loop)
                continue
            space, dim = loop.bind.split('.')
            target = grid if space == 'blockIdx' else block
            target[dim] = loop.extent
            bind_subst[loop.var] = (BlockIndex(dim) if space == 'blockIdx'
                                    else ThreadIndex(dim))
        body = substitute(body, bind_subst)
        for loop in reversed(serial):
            body = ForStmt(loop.var, convert(loop.extent), body, unroll=loop.unroll)
        return Function(self.name, self.params, body,
                        grid_dim=(grid['x'], grid['y'], grid['z']),
                        block_dim=(block['x'], block['y'], block['z']))

    def program_text(self) -> str:
        """Loop-nest pseudo-code (used to render Table 1)."""
        lines = []
        indent = 0
        for loop in self.loops:
            head = f'for {loop.name} in range({loop.extent}):'
            if loop.bind:
                head = f'{loop.name} = {loop.bind}  # bound'
                lines.append('    ' * indent + head)
                continue
            lines.append('    ' * indent + head)
            indent += 1
        lines.append(stmt_repr(self.body, indent))
        return '\n'.join(lines)


def create_default_program(task: Task, name: Optional[str] = None) -> LoopSchedule:
    """Generate the default loop nest of a computation (Figure 4 step 1)."""
    out = task.output
    fb = FunctionBuilder(name or f'{task.name}_default')
    bindings: dict[TensorInput, Var] = {
        inp: fb.tensor_param(inp.name, inp.dtype, inp.shape) for inp in task.inputs
    }
    out_param = fb.tensor_param(out.name, out.dtype, out.shape)

    loops = [Loop(make_var(f'i{d}', 'int32'), extent)
             for d, extent in enumerate(out.shape)]
    axis_subst = {axis: loop.var for axis, loop in zip(out.axes, loops)}
    value = substitute(out.value, axis_subst)

    reduces = collect(value, ReduceCompute)
    if not reduces:
        body: Stmt = BufferStoreStmt(out_param, [l.var for l in loops],
                                     lower_compute_expr(value, bindings))
    elif len(reduces) == 1 and value is reduces[0]:
        reduce_node = reduces[0]
        r_loops = [Loop(make_var(f'k{d}', 'int32'), extent)
                   for d, extent in enumerate(reduce_node.extents)]
        loops.extend(r_loops)
        r_subst = {axis: l.var for axis, l in zip(reduce_node.axes, r_loops)}
        element = lower_compute_expr(substitute(reduce_node.value, r_subst), bindings)
        out_idx = [l.var for l in loops[:len(out.shape)]]
        if reduce_node.op in ('sum', 'avg'):
            update = TensorUpdate = BufferStoreStmt(
                out_param, out_idx, out_param[tuple(out_idx)] + element)
        else:
            update = BufferStoreStmt(
                out_param, out_idx,
                BinaryExpr(reduce_node.op, out_param[tuple(out_idx)], element))
        body = update
    else:
        raise ScheduleError(
            f'task {task.name!r} is too complex for the default-program generator')

    schedule = LoopSchedule(loops, body, task=task, name=name or f'{task.name}_kernel')
    schedule.params = fb.params
    return schedule
