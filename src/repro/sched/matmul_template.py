"""Template-based scheduling of matrix multiplication (paper §2.2, §5.1).

The template is a tensor program written with *parameterized task mappings*;
a :class:`~repro.core.schedule.MatmulSchedule` instantiates it.  The
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
from dataclasses import replace

from ..core.schedule import MatmulSchedule
from ..core.taskmap import auto_map, repeat, spatial
from ..core.space import matmul_schedule_space
from ..gpusim.device import DeviceSpec, RTX3090
from ..gpusim.stats import (KernelStats, OVERLAP_DOUBLE_BUFFER, OVERLAP_NONE)
from ..ir import (FunctionBuilder, Function, IRModule, f32, thread_idx, block_idx,
                  if_then_else, logical_and, min_expr, Var, convert)
from ..ir.compute import compute, reduce, tensor_input
from ..ir.task import Task

__all__ = ['matmul_task', 'build_matmul_module', 'matmul_stats', 'MatmulSchedule']


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
    written).
    """
    if batch > 1 and sched.split_k > 1:
        raise ValueError('batched matmul cannot use split-k')
    bm, bn, bk = sched.block_m, sched.block_n, sched.block_k
    gx, gy, gz = sched.grid(m, n)
    threads = sched.threads
    k_per_split = math.ceil(k / sched.split_k)
    k_tiles = math.ceil(k_per_split / bk)
    blocks = gx * gy * gz * batch

    flops = 2.0 * blocks * bm * bn * k_tiles * bk
    # DRAM traffic: every block streams its A and B strips.  When a whole
    # input matrix fits in L2, the strips re-read by other tiles hit cache
    # (this is what makes skinny transformer matmuls bandwidth-reasonable).
    l2_budget = device.l2_cache_bytes * 0.6
    reads_a = float(blocks) * bm * bk * k_tiles * 4        # gx copies of padded A
    reads_b = float(blocks) * bk * bn * k_tiles * 4        # gy copies of padded B
    unique_a = float(gy * bm) * (gz * k_tiles * bk) * 4 * batch
    unique_b = float(gx * bn) * (gz * k_tiles * bk) * 4 * batch
    if unique_a <= l2_budget:
        reads_a = unique_a
    if unique_b <= l2_budget:
        reads_b = unique_b
    gmem_read = reads_a + reads_b + extra_read_bytes
    out_bytes = gx * bn * gy * bm * 4 * batch
    wom, won = sched.warp_outer
    tm, tn = sched.thread_tile
    smem_read = blocks * k_tiles * threads * (wom * tm + won * tn) * bk * 4
    smem_traffic = smem_read + float(blocks) * (bm * bk + bk * bn) * 4 * k_tiles

    if sched.split_k == 1:
        gmem_write = out_bytes + extra_write_bytes
    else:
        gmem_write = out_bytes * gz  # partial products to the workspace

    main = KernelStats(
        name=f'{name}_{m}x{n}x{k}_{sched.short_repr()}',
        grid_blocks=blocks,
        threads_per_block=threads,
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
        reduce_threads = 256
        kernels.append(KernelStats(
            name=f'{name}_splitk_reduce',
            grid_blocks=math.ceil(m * n / reduce_threads),
            threads_per_block=reduce_threads,
            flops=float(gz * m * n),
            gmem_read_bytes=float(gz * m * n * 4),
            gmem_write_bytes=float(m * n * 4) + extra_write_bytes,
            regs_per_thread=24,
            ilp=4.0,
            overlap=OVERLAP_NONE,
            is_memory_bound_hint=True,
        ))
    return kernels
