"""Seeded-bad kernels: one compact fixture per analyzer failure class.

Each ``build_*`` function returns an ``IRModule`` containing exactly one
bug of one class — an out-of-bounds store, a coverage hole, duplicate
writers, or a missing barrier — so tests (and the ``--fixtures`` mode of
the lint CLI) can assert each check fires with a diagnostic naming the
right buffer.  :func:`strip_loop_barrier` additionally mutates a *real*
template module by deleting the trailing ``__syncthreads`` of its main
loop, turning a correct double-buffered matmul into a racy one — the
mutation the tuner gate rejects before measurement.
"""
from __future__ import annotations

from ..ir.builders import FunctionBuilder
from ..ir.expr import thread_idx
from ..ir.func import IRModule
from ..ir.functor import IRRewriter
from ..ir.stmt import BarrierStmt, ForStmt, SeqStmt, seq_stmt
from ..ir.taskmap import CustomTaskMapping
from ..sched import matmul_template


def build_oob_store_kernel(block: int = 64) -> IRModule:
    """Writes ``smem[tid + 1]``: the last thread stores one past the end."""
    fb = FunctionBuilder('oob_store', grid_dim=1, block_dim=block)
    out = fb.tensor_param('out', 'float32', [block])
    smem = fb.shared_tensor('smem', 'float32', [block])
    tid = thread_idx()
    fb.store(smem, [tid + 1], 1.0)
    fb.sync()
    fb.store(out, [tid], smem[tid])
    return IRModule([fb.finish()], name='fixture_oob_store')


def build_hole_mapping_kernel(block: int = 4) -> IRModule:
    """A custom mapping that only ever touches the even tasks."""
    mapping = CustomTaskMapping(task_shape=[2 * block], num_workers=block,
                                func=lambda w: [(w * 2,)], name='evens')
    fb = FunctionBuilder('hole_mapping', grid_dim=1, block_dim=block)
    out = fb.tensor_param('out', 'float32', [2 * block])
    smem = fb.shared_tensor('smem', 'float32', [2 * block])
    with fb.for_task(mapping, worker=thread_idx()) as t0:
        fb.store(smem, [t0], 1.0)
    fb.sync()
    with fb.for_task(mapping, worker=thread_idx()) as t0:
        fb.store(out, [t0], smem[t0])
    return IRModule([fb.finish()], name='fixture_hole_mapping')


def build_duplicate_writer_kernel(block: int = 8) -> IRModule:
    """Two workers per task: ``w`` and ``w + block/2`` write the same slot."""
    mapping = CustomTaskMapping(task_shape=[block // 2], num_workers=block,
                                func=lambda w: [(w % (block // 2),)],
                                name='doubled')
    fb = FunctionBuilder('duplicate_writer', grid_dim=1, block_dim=block)
    out = fb.tensor_param('out', 'float32', [block // 2])
    smem = fb.shared_tensor('smem', 'float32', [block // 2])
    tid = thread_idx()
    with fb.for_task(mapping, worker=tid) as t0:
        fb.store(smem, [t0], tid)
    fb.sync()
    with fb.if_then(tid < block // 2):
        fb.store(out, [tid], smem[tid])
    return IRModule([fb.finish()], name='fixture_duplicate_writer')


def build_missing_barrier_kernel(block: int = 64,
                                 missing_barrier: bool = True) -> IRModule:
    """Store ``smem[tid]`` then read the neighbour's slot.

    With ``missing_barrier=True`` there is no ``__syncthreads`` between the
    write and the cross-thread read — the classic phase bug.  With
    ``missing_barrier=False`` the same kernel is provably race-free, which
    is the control case tests use.
    """
    name = 'missing_barrier' if missing_barrier else 'synced_exchange'
    fb = FunctionBuilder(name, grid_dim=1, block_dim=block)
    out = fb.tensor_param('out', 'float32', [block])
    smem = fb.shared_tensor('smem', 'float32', [block])
    tid = thread_idx()
    fb.store(smem, [tid], tid)
    if not missing_barrier:
        fb.sync()
    fb.store(out, [tid], smem[(tid + 1) % block])
    return IRModule([fb.finish()], name=f'fixture_{name}')


class _BarrierStripper(IRRewriter):
    """Remove the trailing barrier of every loop body that ends in one."""

    def __init__(self):
        super().__init__()
        self.stripped = 0

    def visit_ForStmt(self, stmt: ForStmt):
        body = self.visit(stmt.body)
        stmts = list(body.stmts) if isinstance(body, SeqStmt) else [body]
        if stmts and isinstance(stmts[-1], BarrierStmt):
            self.stripped += 1
            stmts = stmts[:-1]
            body = seq_stmt(stmts)
        if body is stmt.body:
            return stmt
        return ForStmt(stmt.loop_var, stmt.extent, body, stmt.unroll)


def strip_loop_barrier(module: IRModule) -> IRModule:
    """Delete each loop-trailing ``BarrierStmt`` from a real template module.

    Applied to the double-buffered matmul template this removes the sync
    that separates one iteration's shared-memory commit from the next
    iteration's reads — a genuine write-read race the analyzer must catch.
    """
    out = IRModule(name=f'{module.name}__racy')
    stripped = 0
    for func in module:
        rewriter = _BarrierStripper()
        body = rewriter.visit(func.body)
        stripped += rewriter.stripped
        out.add(type(func)(func.name, func.params, body, func.grid_dim,
                           func.block_dim, dict(func.attrs)))
    if not stripped:
        raise ValueError(f'{module.name}: no loop-trailing barrier to strip')
    return out


def poisoned_matmul_builder(bad_sched):
    """A ``build_matmul_module`` clone that de-syncs one target schedule.

    Used by the tuner-gate tests and benchmarks: every schedule builds the
    genuine template except ``bad_sched``, whose main-loop barrier is
    stripped — so the analyzer must reject exactly that candidate and the
    tuning outcome must be byte-identical to an un-poisoned run.
    """
    def build(m, n, k, sched, name='matmul', batch=1):
        module = matmul_template.build_matmul_module(m, n, k, sched,
                                                     name=name, batch=batch)
        if sched == bad_sched:
            module = strip_loop_barrier(module)
        return module

    return build
