"""Rule-based scheduling (paper §5.1.3).

"Rule-based scheduling directly generates the tensor program from one
operator's computation definition, without any extra engineering efforts and
is used for the majority of operators in Hidet."

Two rules cover everything the evaluated models need:

* **injective rule** — one thread per output element over a flattened output
  grid (predicated tail block), used for elementwise arithmetic, transforms
  (reshape / transpose / concat / slice), img2col, and fused chains thereof;
* **serial-reduction rule** — one thread per output element, looping over the
  reduction domain, used for small/medium reductions (softmax statistics,
  pooling, mean).  Large reductions with few outputs go to the block-parallel
  :mod:`repro.sched.reduce_template` instead.
"""
from __future__ import annotations

import math

from ..gpusim.stats import KernelStats
from ..ir import FunctionBuilder, IRModule, Var, thread_idx, block_idx
from ..ir.compute import ReduceCompute, TensorInput
from ..ir.functor import collect
from ..ir.task import Task
from .lower_compute import emit_value

__all__ = ['build_rule_based_module', 'rule_based_stats', 'ELEMENTWISE_BLOCK']

ELEMENTWISE_BLOCK = 256


def _delinearize(flat, shape):
    """Split a flat index expression into multi-dimensional indices (row-major)."""
    indices = []
    for dim, extent in enumerate(shape):
        stride = math.prod(shape[dim + 1:])
        idx = flat // stride if stride > 1 else flat
        if dim > 0:
            idx = idx % extent
        indices.append(idx)
    return indices


def build_rule_based_module(task: Task, name: str | None = None) -> IRModule:
    """Generate the tensor program for a task via the rule-based mechanism."""
    name = name or task.name
    out = task.output
    total = out.num_elements
    grid = max(1, math.ceil(total / ELEMENTWISE_BLOCK))

    fb = FunctionBuilder(f'{name}_kernel', grid_dim=grid, block_dim=ELEMENTWISE_BLOCK,
                         attrs={'rule': 'reduce' if not task.is_injective else 'injective'})
    bindings: dict[TensorInput, Var] = {
        inp: fb.tensor_param(inp.name, inp.dtype, inp.shape) for inp in task.inputs
    }
    out_param = fb.tensor_param(out.name, out.dtype, out.shape)

    flat = block_idx('x') * ELEMENTWISE_BLOCK + thread_idx()
    with fb.if_then(flat < total):
        indices = _delinearize(flat, out.shape)
        axis_values = dict(zip(out.axes, indices))
        value = emit_value(fb, out.value, bindings, axis_values)
        fb.store(out_param, indices, value)

    return IRModule([fb.finish()], name=name)


def rule_based_stats(task: Task, inputs, output, name: str | None = None) -> KernelStats:
    """Kernel statistics of the (fused) rule-based kernel of a task.

    ``inputs`` are the tensors the kernel reads materialized (a fused group's
    outer inputs; inlined prologues do not appear) and ``output`` is the
    tensor it writes.  Rule-based kernels are memory-bound streaming kernels:
    every input is read once and the output written once; the arithmetic
    rides along for free unless the reduction is deep.
    """
    name = name or task.name
    total = task.output.num_elements
    reduces = collect(task.output.value, ReduceCompute)
    reduce_iters = max((r.num_iterations for r in reduces), default=1)
    depthwise = task.attrs.get('depthwise', False)
    # bytes actually touched per input: a gather (embedding) touches at most
    # one element per output element per reduce iteration, not the whole table
    touched_cap = total * reduce_iters
    read_bytes = float(sum(min(t.nbytes, touched_cap * t.dtype.nbytes)
                           for t in inputs))
    write_bytes = float(output.nbytes)
    return KernelStats(
        name=f'{name}_rule_based',
        grid_blocks=max(1, math.ceil(total / ELEMENTWISE_BLOCK)),
        threads_per_block=ELEMENTWISE_BLOCK,
        # ~2 flops per output element per arithmetic node; reductions add an
        # FMA per iteration
        flops=float(total) * (2.0 + 2.0 * (reduce_iters - 1)),
        gmem_read_bytes=read_bytes * (reduce_iters if depthwise else 1.0),
        gmem_write_bytes=write_bytes,
        regs_per_thread=32,
        ilp=2.0,
        # rule-based reductions re-walk their window per output element;
        # without shared-memory reuse the depthwise conv pays for it with
        # partially-uncoalesced gathers (why Ansor wins MobileNetV2)
        coalesce_factor=0.55 if depthwise else 1.0,
        is_memory_bound_hint=True,
    )
