"""Template-based scheduling of reductions (the paper's second template).

§6.1: "we only implement two efficient schedule templates for matrix
multiplication and reduction operators (e.g., sum reduction) to cover all
operators in evaluated models."

The template reduces the **last axis** of a ``[rows, cols]`` view: one thread
block per row; each thread serially accumulates ``items_per_thread`` strided
elements, then the block combines partials with a shared-memory tree — a
task-mapping rendition of the classic two-phase block reduction.  Predicated
loads make it input-size agnostic (hardware-centric, §4.3).
"""
from __future__ import annotations

import math

from ..gpusim.stats import KernelStats, OVERLAP_NONE
from ..ir import (FunctionBuilder, IRModule, Var, block_idx, f32, if_then_else,
                  substitute, thread_idx)
from ..ir.compute import ReduceCompute, TensorInput
from ..ir.functor import collect
from ..ir.task import Task
from ..ir.taskmap import repeat, spatial
from .lower_compute import lower_compute_expr, ComputeLoweringError
from .schedule import ReduceSchedule

__all__ = ['build_reduce_module', 'reduce_stats', 'is_last_axis_reduction']


def is_last_axis_reduction(task: Task) -> bool:
    """Does the task reduce exactly its last input axis (template-compatible)?"""
    out = task.output
    reduces = collect(out.value, ReduceCompute)
    if len(reduces) != 1:
        return False
    reduce_node = reduces[0]
    return out.value is reduce_node and len(reduce_node.extents) == 1


def build_reduce_module(task: Task, sched: ReduceSchedule,
                        name: str | None = None) -> IRModule:
    """Instantiate the block-parallel reduction template for a task."""
    if not is_last_axis_reduction(task):
        raise ComputeLoweringError(
            f'task {task.name!r} is not a last-axis reduction; '
            f'use rule-based scheduling instead')
    name = name or task.name
    out = task.output
    reduce_node: ReduceCompute = out.value  # type: ignore[assignment]
    cols = reduce_node.extents[0]
    rows = out.num_elements
    block = sched.block_size
    op = reduce_node.op

    fb = FunctionBuilder(f'{name}_reduce_kernel', grid_dim=rows, block_dim=block,
                         attrs={'schedule': sched})
    bindings: dict[TensorInput, Var] = {
        inp: fb.tensor_param(inp.name, inp.dtype, inp.shape) for inp in task.inputs
    }
    out_param = fb.tensor_param(out.name, out.dtype, out.shape)
    smem = fb.shared_tensor('smem_partial', f32, [block])

    tid = thread_idx()
    row = block_idx('x')
    # bind output axes by de-linearizing the row id over the output shape
    axis_values: dict[Var, object] = {}
    rem_shape = out.shape
    flat = row
    for dim, extent in enumerate(rem_shape):
        stride = math.prod(rem_shape[dim + 1:])
        idx = flat // stride if stride > 1 else flat
        if dim > 0:
            idx = idx % extent
        axis_values[out.axes[dim]] = idx

    # phase 1: serial accumulation with a repeat × spatial task mapping
    acc = fb.declare_var('acc', 'float32', float(reduce_node.init_value))
    items = max(1, math.ceil(cols / block))
    phase1 = repeat(items) * spatial(block)
    (k_axis,) = reduce_node.axes
    with fb.for_task(phase1, worker=tid, names=('rk',)) as rk:
        mapping = dict(axis_values)
        mapping[k_axis] = rk
        element = lower_compute_expr(substitute(reduce_node.value, mapping), bindings)
        guarded = if_then_else(rk < cols, element, float(reduce_node.init_value))
        fb.assign(acc, reduce_node.combine(acc, guarded))

    fb.store(smem, [tid], acc)
    fb.sync()

    # phase 2: shared-memory tree combine
    stride = block // 2
    while stride >= 1:
        with fb.if_then(tid < stride):
            fb.store(smem, [tid], reduce_node.combine(smem[tid], smem[tid + stride]))
        fb.sync()
        stride //= 2

    with fb.if_then(tid.equals(0)):
        result = smem[0] / float(cols) if op == 'avg' else smem[0]
        fb.store(out_param, list(axis_values.values()), result)

    return IRModule([fb.finish()], name=name)


def reduce_stats(task: Task, sched: ReduceSchedule,
                 name: str | None = None) -> list[KernelStats]:
    """Kernel statistics of the reduction template (memory-bound streaming)."""
    name = name or task.name
    out = task.output
    reduce_node: ReduceCompute = out.value  # type: ignore[assignment]
    rows = out.num_elements
    cols = reduce_node.extents[0]
    read_bytes = float(sum(i.num_elements * i.dtype.nbytes for i in task.inputs))
    return [KernelStats(
        name=f'{name}_reduce_{sched.block_size}x{sched.items_per_thread}',
        grid_blocks=rows,
        threads_per_block=sched.block_size,
        flops=2.0 * rows * cols,
        gmem_read_bytes=read_bytes,
        gmem_write_bytes=float(rows * out.dtype.nbytes),
        smem_bytes_per_block=sched.block_size * 4,
        smem_traffic_bytes=float(rows * sched.block_size * 4 * 2),
        regs_per_thread=28,
        ilp=float(sched.items_per_thread),
        overlap=OVERLAP_NONE,
        is_memory_bound_hint=True,
    )]
