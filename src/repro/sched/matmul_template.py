"""Template-based scheduling of matrix multiplication (paper §2.2, §5.1).

The template is a tensor program written with *parameterized task mappings*;
a :class:`~repro.sched.schedule.MatmulSchedule` instantiates it.  The
structure mirrors the paper's Figures 2/3 (single-buffered) and Figure 5
(double-buffered):

1. the output is tiled into ``block_m × block_n`` sub-tasks, one per thread
   block (``blockIdx.y/x``); ``blockIdx.z`` optionally splits the reduction
   (parallel-k, §6.3.4);
2. per K-tile, all threads cooperatively load A and B fragments to shared
   memory via ``auto_map(block_m, block_k, workers=threads)`` — the
   ``repeat(4, 1) * spatial(16, 8)`` mapping of Figure 8;
3. the block-level MMA assigns C elements to threads with the composed
   mapping ``spatial(warps) * repeat(warp_outer) * spatial(lanes) *
   repeat(thread_tile)`` — the paper's
   ``spatial(4, 2) * repeat(2, 2) * spatial(4, 8) * repeat(4, 4)``;
4. results are written back with predicated stores.

All loads/stores are predicated against the true extents, so a single
schedule covers every input size — including primes, where loop-oriented
input-centric spaces have no valid tiling at all (Figure 19).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from ..gpusim.arith import ARRAY, EXACT_INT_LIMIT, SCALAR, Ops
from ..gpusim.device import DeviceSpec, RTX3090
from ..gpusim.perfmodel import PerfModel
from ..gpusim.stats import (KernelBatch, KernelStats, OVERLAP_DOUBLE_BUFFER,
                            OVERLAP_NONE)
from ..ir import (FunctionBuilder, Function, IRModule, f32, thread_idx, block_idx,
                  if_then_else, logical_and, min_expr, Var, convert)
from ..ir.compute import compute, reduce, tensor_input
from ..ir.task import Task
from ..ir.taskmap import auto_map, repeat, spatial
from .schedule import MatmulSchedule

__all__ = ['matmul_task', 'build_matmul_module', 'matmul_stats',
           'matmul_stats_batch', 'matmul_work_terms', 'ScheduleColumns',
           'MatmulSchedule']


def matmul_task(m: int, n: int, k: int, name: str = 'matmul') -> Task:
    """Computation definition of ``C[m, n] = sum_k A[m, k] * B[k, n]``."""
    a = tensor_input('A', f32, [m, k])
    b = tensor_input('B', f32, [k, n])
    c = compute('C', [m, n], lambda i, j: reduce([k], lambda kk: a[i, kk] * b[kk, j]))
    return Task(name, [a, b], c, attrs={'kind': 'matmul', 'm': m, 'n': n, 'k': k})


# ---------------------------------------------------------------------------
# kernel construction
# ---------------------------------------------------------------------------

def _flat_reg_index(load_map, i, kk):
    """Register-slot index of task (i, kk) under ``repeat(r) * spatial(s)``.

    The slot is the repeat-iteration id: ``(i // s0) * r1 + (kk // s1)``.
    Unit repeat dimensions contribute zero and fold away in simplification.
    """
    r0, r1 = load_map.outer.task_shape
    s0, s1 = load_map.inner.task_shape
    return (i // s0) * r1 + (kk // s1)


def build_matmul_module(m: int, n: int, k: int, sched: MatmulSchedule,
                        name: str = 'matmul', batch: int = 1) -> IRModule:
    """Instantiate the matmul template into kernels (1, or 2 with split-k).

    ``batch > 1`` compiles a batched matmul (``blockIdx.z`` selects the batch
    slice); batching and split-k are mutually exclusive because both live on
    the z grid dimension.
    """
    if not sched.is_valid():
        raise ValueError(f'invalid schedule {sched!r}')
    if batch > 1 and sched.split_k > 1:
        raise ValueError('batched matmul cannot use split-k (both use blockIdx.z)')
    bm, bn, bk = sched.block_m, sched.block_n, sched.block_k
    threads = sched.threads
    gx, gy, gz = sched.grid(m, n)
    split_k = sched.split_k
    grid = (gx, gy, batch if batch > 1 else gz)
    k_per_split = math.ceil(k / split_k)
    k_tiles = math.ceil(k_per_split / bk)
    stages = sched.smem_stages

    fb = FunctionBuilder(f'{name}_kernel', grid_dim=grid, block_dim=threads,
                         attrs={'schedule': sched, 'batch': batch})
    if batch > 1:
        a = fb.tensor_param('A', f32, [batch, m, k])
        b = fb.tensor_param('B', f32, [batch, k, n])
        c = fb.tensor_param('C', f32, [batch, m, n])
        partial = None
    elif split_k == 1:
        a = fb.tensor_param('A', f32, [m, k])
        b = fb.tensor_param('B', f32, [k, n])
        c = fb.tensor_param('C', f32, [m, n])
        partial = None
    else:
        a = fb.tensor_param('A', f32, [m, k])
        b = fb.tensor_param('B', f32, [k, n])
        partial = fb.tensor_param('C_partial', f32, [split_k, m, n])
        c = None

    def a_at(i, kk):
        return a[block_idx('z'), i, kk] if batch > 1 else a[i, kk]

    def b_at(kk, j):
        return b[block_idx('z'), kk, j] if batch > 1 else b[kk, j]

    smem_a = fb.shared_tensor('smem_a', f32, [stages, bm, bk])
    smem_b = fb.shared_tensor('smem_b', f32, [stages, bk, bn])

    wom, won = sched.warp_outer
    tm, tn = sched.thread_tile
    regs_c = fb.register_tensor('regs_c', f32, [wom * tm, won * tn])

    tid = thread_idx()
    offset_m = block_idx('y') * bm
    offset_n = block_idx('x') * bn
    k_start = convert(0) if batch > 1 else block_idx('z') * k_per_split
    k_end_v = fb.declare_var('k_end', 'int32', min_expr(k, k_start + k_per_split))

    # zero-initialize the accumulators
    with fb.for_task(repeat(wom * tm, won * tn), worker=0, names=('zi', 'zj')) as (zi, zj):
        fb.store(regs_c, [zi, zj], 0.0)

    load_a_map = auto_map(bm, bk, workers=threads)
    load_b_map = auto_map(bk, bn, workers=threads)

    def load_tile_to_smem(k0_expr, stage_expr):
        """Cooperative, predicated gmem -> smem load of one K-tile (Fig. 2 step 2)."""
        k_base = k_start + k0_expr * bk
        with fb.for_task(load_a_map, worker=tid, names=('ia', 'ka')) as (ia, ka):
            gi, gk = offset_m + ia, k_base + ka
            in_bounds = logical_and(gi < m, gk < k_end_v)
            fb.store(smem_a, [stage_expr, ia, ka],
                     if_then_else(in_bounds, a_at(gi, gk), 0.0))
        with fb.for_task(load_b_map, worker=tid, names=('kb', 'jb')) as (kb, jb):
            gk, gj = k_base + kb, offset_n + jb
            in_bounds = logical_and(gk < k_end_v, gj < n)
            fb.store(smem_b, [stage_expr, kb, jb],
                     if_then_else(in_bounds, b_at(gk, gj), 0.0))

    # the paper's block-MMA task mapping (Fig. 13 / §5.1.2 example)
    c_map = (spatial(*sched.block_warps) * repeat(*sched.warp_outer)
             * spatial(*sched.thread_layout) * repeat(*sched.thread_tile))
    tlm, tln = sched.thread_layout

    def reg_indices(i, j):
        rm = (i // (tlm * tm)) % wom * tm + i % tm
        rn = (j // (tln * tn)) % won * tn + j % tn
        return rm, rn

    def block_mma(stage_expr):
        """One K-tile of block-level MMA (Fig. 2 step 3)."""
        with fb.for_range(bk, name='k1', unroll=bk <= 8) as k1:
            with fb.for_task(c_map, worker=tid, names=('mi', 'mj')) as (mi, mj):
                rm, rn = reg_indices(mi, mj)
                fb.store(regs_c, [rm, rn],
                         regs_c[rm, rn] + smem_a[stage_expr, mi, k1] * smem_b[stage_expr, k1, mj])

    if not sched.double_buffer:
        # Figure 3: load / sync / mma / sync per tile
        with fb.for_range(k_tiles, name='k0') as k0:
            load_tile_to_smem(k0, 0)
            fb.sync()
            block_mma(0)
            fb.sync()
    else:
        # Figure 5: two buffers; preload next tile into registers while
        # computing the current tile, then commit registers to the other buffer
        elems_a = (bm * bk) // threads
        elems_b = (bk * bn) // threads
        regs_ld_a = fb.register_tensor('regs_ld_a', f32, [max(1, elems_a)])
        regs_ld_b = fb.register_tensor('regs_ld_b', f32, [max(1, elems_b)])

        def load_tile_to_regs(k0_expr):
            k_base = k_start + k0_expr * bk
            with fb.for_task(load_a_map, worker=tid, names=('pa', 'qa')) as (ia, ka):
                gi, gk = offset_m + ia, k_base + ka
                in_bounds = logical_and(gi < m, gk < k_end_v)
                fb.store(regs_ld_a, [_flat_reg_index(load_a_map, ia, ka)],
                         if_then_else(in_bounds, a_at(gi, gk), 0.0))
            with fb.for_task(load_b_map, worker=tid, names=('pb', 'qb')) as (kb, jb):
                gk, gj = k_base + kb, offset_n + jb
                in_bounds = logical_and(gk < k_end_v, gj < n)
                fb.store(regs_ld_b, [_flat_reg_index(load_b_map, kb, jb)],
                         if_then_else(in_bounds, b_at(gk, gj), 0.0))

        def commit_regs_to_smem(stage_expr):
            with fb.for_task(load_a_map, worker=tid, names=('sa', 'ta')) as (ia, ka):
                fb.store(smem_a, [stage_expr, ia, ka],
                         regs_ld_a[_flat_reg_index(load_a_map, ia, ka)])
            with fb.for_task(load_b_map, worker=tid, names=('sb', 'tb')) as (kb, jb):
                fb.store(smem_b, [stage_expr, kb, jb],
                         regs_ld_b[_flat_reg_index(load_b_map, kb, jb)])

        load_tile_to_smem(0, 0)
        fb.sync()
        with fb.for_range(k_tiles - 1, name='k0') as k0:
            load_tile_to_regs(k0 + 1)     # L8 in Fig. 5: preload next tile
            block_mma(k0 % 2)             # L9: compute on current buffer
            commit_regs_to_smem((k0 + 1) % 2)  # L10: publish next buffer
            fb.sync()
        block_mma((k_tiles - 1) % 2)      # L12: epilogue tile

    # write back (Fig. 2 step 4), predicated against the true extents
    with fb.for_task(c_map, worker=tid, names=('wi', 'wj')) as (wi, wj):
        gi, gj = offset_m + wi, offset_n + wj
        rm, rn = reg_indices(wi, wj)
        with fb.if_then(logical_and(gi < m, gj < n)):
            if batch > 1:
                fb.store(c, [block_idx('z'), gi, gj], regs_c[rm, rn])
            elif split_k == 1:
                fb.store(c, [gi, gj], regs_c[rm, rn])
            else:
                fb.store(partial, [block_idx('z'), gi, gj], regs_c[rm, rn])

    kernels = [fb.finish()]
    if split_k > 1:
        kernels.append(_build_split_k_reduce(m, n, split_k, partial, name))
    return IRModule(kernels, name=name)


def _build_split_k_reduce(m: int, n: int, split_k: int, partial_param: Var,
                          name: str) -> Function:
    """Second kernel of split-k: sum the partial products over the split axis."""
    threads = 256
    total = m * n
    grid = math.ceil(total / threads)
    fb = FunctionBuilder(f'{name}_splitk_reduce', grid_dim=grid, block_dim=threads)
    # reuse the same Var for the workspace so fusion passes see one buffer
    fb.params.append(partial_param)
    c = fb.tensor_param('C', f32, [m, n])
    flat = block_idx('x') * threads + thread_idx()
    with fb.if_then(flat < total):
        i = fb.declare_var('i', 'int32', flat // n)
        j = fb.declare_var('j', 'int32', flat % n)
        acc = fb.declare_var('acc', 'float32', 0.0)
        with fb.for_range(split_k, name='z', unroll=split_k <= 8) as z:
            fb.assign(acc, acc + partial_param[z, i, j])
        fb.store(c, [i, j], acc)
    return fb.finish()


# ---------------------------------------------------------------------------
# performance statistics
# ---------------------------------------------------------------------------

def matmul_stats(m: int, n: int, k: int, sched: MatmulSchedule,
                 name: str = 'matmul',
                 extra_read_bytes: float = 0.0,
                 extra_write_bytes: float = 0.0,
                 batch: int = 1,
                 device: DeviceSpec = RTX3090) -> list[KernelStats]:
    """Kernel statistics of the instantiated template (one entry per kernel).

    Work terms are computed on the *padded* extents: a 2039³ matmul under a
    64×64 tile does the work of 2048×2048, the tail being predicated away —
    the hardware-centric trade-off of §4.3.  ``extra_*_bytes`` account for
    fused prologue/epilogue traffic (extra inputs read, different output
    written).  :func:`matmul_stats_batch` evaluates the same terms for a
    whole candidate list at once.
    """
    if batch > 1 and sched.split_k > 1:
        raise ValueError('batched matmul cannot use split-k')
    wom, won = sched.warp_outer
    tm, tn = sched.thread_tile
    blocks, flops, gmem_read, gmem_write, smem_traffic, _ = matmul_work_terms(
        SCALAR, m, n, k, sched.block_m, sched.block_n, sched.block_k,
        sched.split_k, sched.threads, wom * tm + won * tn, batch,
        device.l2_cache_bytes, extra_read_bytes, extra_write_bytes)
    main = KernelStats(
        name=f'{name}_{m}x{n}x{k}_{sched.short_repr()}',
        grid_blocks=blocks,
        threads_per_block=sched.threads,
        flops=flops,
        gmem_read_bytes=gmem_read,
        gmem_write_bytes=gmem_write,
        smem_bytes_per_block=sched.smem_bytes,
        regs_per_thread=sched.regs_per_thread,
        smem_traffic_bytes=smem_traffic,
        overlap=OVERLAP_DOUBLE_BUFFER if sched.double_buffer else OVERLAP_NONE,
        ilp=float(tm * tn),
        coalesce_factor=1.0,
    )
    kernels = [main]
    if sched.split_k > 1:
        grid, flops, gmem_read, gmem_write, _ = _reduce_terms(
            SCALAR, m, n, sched.split_k, extra_write_bytes)
        kernels.append(KernelStats(
            name=f'{name}_splitk_reduce',
            grid_blocks=grid,
            threads_per_block=_REDUCE_THREADS,
            flops=flops,
            gmem_read_bytes=gmem_read,
            gmem_write_bytes=gmem_write,
            regs_per_thread=_REDUCE_REGS,
            ilp=4.0,
            overlap=OVERLAP_NONE,
            is_memory_bound_hint=True,
        ))
    return kernels


#: launch shape of the split-k reduce kernel (see _build_split_k_reduce)
_REDUCE_THREADS = 256
_REDUCE_REGS = 24


def matmul_work_terms(ops: Ops, m, n, k, bm, bn, bk, split_k, threads, frags,
                      batch, l2_cache_bytes, extra_read_bytes, extra_write_bytes):
    """Work terms of the main kernel, over one schedule (:data:`SCALAR`) or
    schedule columns (:data:`ARRAY`).  ``frags`` is the per-thread A+B
    fragment length ``wom·tm + won·tn``; the loop-oriented baselines'
    tiled kernels (:mod:`repro.baselines.tiling`) use the same terms.

    Returns ``(grid_blocks, flops, gmem_read, gmem_write, smem_traffic,
    widest)``; ``widest`` bounds every integer term (for the exactness check
    of the array path).
    """
    ceil, sqrt, minimum, maximum, where, to_float = ops
    gx, gy, gz = ceil(n / bn), ceil(m / bm), split_k
    k_per_split = ceil(k / split_k)
    k_tiles = ceil(k_per_split / bk)
    blocks = gx * gy * gz * batch

    flops = 2.0 * blocks * bm * bn * k_tiles * bk
    # DRAM traffic: every block streams its A and B strips.  When a whole
    # input matrix fits in L2, the strips re-read by other tiles hit cache
    # (this is what makes skinny transformer matmuls bandwidth-reasonable).
    l2_budget = l2_cache_bytes * 0.6
    reads_a = to_float(blocks) * bm * bk * k_tiles * 4     # gx copies of padded A
    reads_b = to_float(blocks) * bk * bn * k_tiles * 4     # gy copies of padded B
    unique_a = to_float(gy * bm) * (gz * k_tiles * bk) * 4 * batch
    unique_b = to_float(gx * bn) * (gz * k_tiles * bk) * 4 * batch
    reads_a = where(unique_a <= l2_budget, unique_a, reads_a)
    reads_b = where(unique_b <= l2_budget, unique_b, reads_b)
    gmem_read = reads_a + reads_b + extra_read_bytes
    out_bytes = gx * bn * gy * bm * 4 * batch
    smem_read = blocks * k_tiles * threads * frags * bk * 4
    smem_traffic = smem_read + to_float(blocks) * (bm * bk + bk * bn) * 4 * k_tiles

    partial_bytes = out_bytes * gz  # split-k: partial products to the workspace
    gmem_write = where(split_k == 1, out_bytes + extra_write_bytes, partial_bytes)
    return (blocks, flops, gmem_read, gmem_write, smem_traffic,
            maximum(smem_read, partial_bytes))


def _reduce_terms(ops: Ops, m, n, split_k, extra_write_bytes):
    """Work terms of the split-k reduce kernel: ``(grid_blocks, flops,
    gmem_read, gmem_write, widest)``, as :func:`matmul_work_terms`."""
    ceil, sqrt, minimum, maximum, where, to_float = ops
    partials = split_k * m * n
    return (ceil(m * n / _REDUCE_THREADS), to_float(partials),
            to_float(partials * 4), to_float(m * n * 4) + extra_write_bytes,
            partials * 4)


@dataclass(frozen=True)
class ScheduleColumns:
    """Matmul schedules as a struct of arrays, one row per schedule: one
    int64 column per quantity the work terms read, plus each schedule's
    occupancy limit on the device the columns were built for.

    Every column depends only on (device, schedule), so a tuner builds them
    once per candidate list and takes row subsets with :meth:`take`.
    """

    block_m: np.ndarray
    block_n: np.ndarray
    block_k: np.ndarray
    split_k: np.ndarray
    threads: np.ndarray
    frags: np.ndarray               # wom·tm + won·tn
    thread_tile: np.ndarray         # tm·tn, the kernel's ILP
    double_buffer: np.ndarray       # 0 / 1
    regs_per_thread: np.ndarray
    resident_blocks_per_sm: np.ndarray

    @classmethod
    def build(cls, schedules: Sequence[MatmulSchedule],
              model: PerfModel) -> 'ScheduleColumns':
        rows = np.array([_schedule_row(s, model) for s in schedules],
                        dtype=np.int64).reshape(len(schedules), len(fields(cls)))
        return cls(*rows.T)

    def take(self, rows) -> 'ScheduleColumns':
        """The columns of the given row indices, in that order."""
        return ScheduleColumns(*(getattr(self, f.name)[rows]
                                 for f in fields(self)))


def _schedule_row(s: MatmulSchedule, model: PerfModel) -> tuple:
    wom, won = s.warp_outer
    tm, tn = s.thread_tile
    threads = s.threads
    resident = (model.occupancy(threads, s.smem_bytes, s.regs_per_thread)
                .resident_blocks_per_sm if threads > 0 else 0)
    return (s.block_m, s.block_n, s.block_k, s.split_k, threads,
            wom * tm + won * tn, tm * tn, s.double_buffer,
            s.regs_per_thread, resident)


def matmul_stats_batch(m: int, n: int, k: int, cols: ScheduleColumns,
                       extra_read_bytes: float = 0.0,
                       extra_write_bytes: float = 0.0,
                       batch: int = 1,
                       device: DeviceSpec = RTX3090,
                       ) -> tuple[KernelBatch, np.ndarray, KernelBatch]:
    """:func:`matmul_stats` for every row of ``cols`` in one array pass.

    Returns ``(main, split_rows, reduce)``: the main kernel of every row;
    the indices of the split-k rows; and their reduce kernels, one row per
    split-k row.  Rows with a non-positive tile extent, split-k on a
    batched problem, or an integer term of 2**53 or more come out with
    ``grid_blocks == 0``, so :meth:`KernelBatch.launchable` rejects them;
    :func:`matmul_stats` on such a row raises the precise error or, for a
    wide integer term, computes the exact value.
    """
    with np.errstate(all='ignore'):
        blocks, flops, gmem_read, gmem_write, smem_traffic, widest = \
            matmul_work_terms(ARRAY, m, n, k, cols.block_m, cols.block_n,
                        cols.block_k, cols.split_k, cols.threads, cols.frags,
                        batch, device.l2_cache_bytes, extra_read_bytes,
                        extra_write_bytes)
        split_rows = np.flatnonzero(cols.split_k > 1)
        gz = cols.split_k[split_rows]
        grid, r_flops, r_read, r_write, r_widest = _reduce_terms(
            ARRAY, m, n, gz, extra_write_bytes)
    ok = ((cols.block_m > 0) & (cols.block_n > 0) & (cols.block_k > 0)
          & (cols.split_k > 0) & (np.abs(widest) < EXACT_INT_LIMIT)
          & ((batch == 1) | (cols.split_k == 1)))
    ok[split_rows] &= np.abs(r_widest) < EXACT_INT_LIMIT
    main = KernelBatch(
        grid_blocks=np.where(ok, blocks, 0),
        threads_per_block=cols.threads,
        regs_per_thread=cols.regs_per_thread,
        resident_blocks_per_sm=cols.resident_blocks_per_sm,
        flops=flops,
        gmem_bytes=gmem_read + gmem_write,
        smem_traffic_bytes=smem_traffic,
        overlap=np.where(cols.double_buffer, OVERLAP_DOUBLE_BUFFER,
                         OVERLAP_NONE),
        ilp=cols.thread_tile,
    )
    reduce = KernelBatch(
        grid_blocks=np.full(len(split_rows), grid, dtype=np.float64),
        threads_per_block=_REDUCE_THREADS,
        regs_per_thread=_REDUCE_REGS,
        resident_blocks_per_sm=PerfModel(device).occupancy(
            _REDUCE_THREADS, 0, _REDUCE_REGS).resident_blocks_per_sm,
        flops=r_flops,
        gmem_bytes=r_read + r_write,
        smem_traffic_bytes=0.0,
        overlap=OVERLAP_NONE,
        ilp=4.0,
    )
    return main, split_rows, reduce
