"""The matmul template: functional correctness of every scheduling variant."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.interpreter import run_kernel
from repro.core.tuning import MatmulTuner
from repro.gpusim.device import RTX3090
from repro.gpusim.stats import OVERLAP_DOUBLE_BUFFER, OVERLAP_NONE
from repro.sched.matmul_template import build_matmul_module, matmul_stats, matmul_task
from repro.sched.schedule import MatmulSchedule
from repro.tune.features import featurize

SMALL = MatmulSchedule(block_warps=(1, 1), warp_outer=(1, 1), thread_layout=(4, 8),
                       thread_tile=(4, 4), block_k=8, double_buffer=False)
SMALL_DB = MatmulSchedule(block_warps=(1, 1), warp_outer=(1, 1), thread_layout=(4, 8),
                          thread_tile=(4, 4), block_k=8, double_buffer=True)
TWO_WARP = MatmulSchedule(block_warps=(2, 1), warp_outer=(1, 2), thread_layout=(4, 8),
                          thread_tile=(2, 2), block_k=8, double_buffer=True)


def _run(m, n, k, sched, batch=1, seed=0):
    mod = build_matmul_module(m, n, k, sched, batch=batch)
    rng = np.random.default_rng(seed)
    if batch == 1:
        a = rng.standard_normal((m, k), dtype=np.float32)
        b = rng.standard_normal((k, n), dtype=np.float32)
        c = np.full((m, n), np.nan, dtype=np.float32)
    else:
        a = rng.standard_normal((batch, m, k), dtype=np.float32)
        b = rng.standard_normal((batch, k, n), dtype=np.float32)
        c = np.full((batch, m, n), np.nan, dtype=np.float32)
    if sched.split_k == 1:
        run_kernel(mod[0], [a, b, c])
    else:
        partial = np.full((sched.split_k, m, n), np.nan, dtype=np.float32)
        run_kernel(mod[0], [a, b, partial])
        run_kernel(mod[1], [partial, c])
    ref = a @ b
    np.testing.assert_allclose(c, ref, atol=1e-3, rtol=1e-4)


class TestCorrectness:
    def test_exact_tile_single_buffer(self):
        _run(16, 32, 16, SMALL)

    def test_exact_tile_double_buffer(self):
        _run(16, 32, 24, SMALL_DB)

    def test_predicated_all_dims(self):
        _run(13, 29, 19, SMALL)       # nothing divides the tiles

    def test_predicated_double_buffer(self):
        _run(17, 37, 23, SMALL_DB)

    def test_prime_size_like_fig19(self):
        """The hardware-centric schedule handles primes (2039-style)."""
        _run(31, 31, 31, SMALL_DB)

    def test_two_warp_schedule(self):
        _run(32, 64, 16, TWO_WARP)

    def test_split_k(self):
        sched = MatmulSchedule(block_warps=(1, 1), warp_outer=(1, 1),
                               thread_layout=(4, 8), thread_tile=(4, 4),
                               block_k=8, double_buffer=True, split_k=4)
        _run(16, 32, 64, sched)

    def test_split_k_uneven_reduction(self):
        sched = MatmulSchedule(block_warps=(1, 1), warp_outer=(1, 1),
                               thread_layout=(4, 8), thread_tile=(4, 4),
                               block_k=8, double_buffer=False, split_k=2)
        _run(16, 32, 27, sched)       # 27 does not divide by split or tile

    def test_batched(self):
        _run(16, 32, 16, SMALL_DB, batch=3)

    def test_batch_and_split_k_conflict(self):
        sched = MatmulSchedule(split_k=2)
        with pytest.raises(ValueError, match='blockIdx.z'):
            build_matmul_module(64, 64, 64, sched, batch=2)

    def test_invalid_schedule_rejected(self):
        bad = MatmulSchedule(thread_layout=(3, 8))   # 24 lanes != warp size
        assert not bad.is_valid()
        with pytest.raises(ValueError):
            build_matmul_module(16, 16, 16, bad)

    @given(st.integers(5, 40), st.integers(5, 40), st.integers(5, 40))
    @settings(max_examples=8, deadline=None)
    def test_random_shapes_double_buffer(self, m, n, k):
        _run(m, n, k, SMALL_DB, seed=m * n * k)


class TestStats:
    def test_l2_budget_comes_from_the_device(self):
        # a 512^3 matmul's A and B (1 MiB each) fit the default 6 MiB L2, so
        # re-read strips hit cache; on a 64 KiB L2 every strip goes to DRAM
        small_l2 = replace(RTX3090, l2_cache_bytes=64 * 1024)
        sched = MatmulSchedule()
        default = matmul_stats(512, 512, 512, sched)[0]
        assert default == matmul_stats(512, 512, 512, sched, device=RTX3090)[0]
        small = matmul_stats(512, 512, 512, sched, device=small_l2)[0]
        assert small.gmem_read_bytes > default.gmem_read_bytes
        assert featurize(512, 512, 512, sched, device=small_l2) != \
            featurize(512, 512, 512, sched, device=RTX3090)
        assert MatmulTuner(small_l2).measure(512, 512, 512, sched) > \
            MatmulTuner(RTX3090).measure(512, 512, 512, sched)

    def test_executor_bills_its_own_device_l2(self):
        from repro.graph import from_numpy, ops, symbol, trace
        from repro.runtime import HidetExecutor, ScheduleCache
        small_l2 = replace(RTX3090, l2_cache_bytes=64 * 1024)
        x = symbol([512, 512], name='x')
        w = from_numpy(np.ones((512, 512), dtype=np.float32), name='w')
        compiled = HidetExecutor(small_l2, cache=ScheduleCache()).compile(
            trace(ops.matmul(x, w)))
        (op,) = compiled.ops
        assert op.stats[0].gmem_read_bytes == matmul_stats(
            512, 512, 512, op.schedule, device=small_l2)[0].gmem_read_bytes
        assert op.stats[0].gmem_read_bytes > matmul_stats(
            512, 512, 512, op.schedule, device=RTX3090)[0].gmem_read_bytes

    def test_stats_reflect_double_buffering(self):
        sb = matmul_stats(256, 256, 256, SMALL)[0]
        db = matmul_stats(256, 256, 256, SMALL_DB)[0]
        assert sb.overlap == OVERLAP_NONE and db.overlap == OVERLAP_DOUBLE_BUFFER
        assert db.smem_bytes_per_block == 2 * sb.smem_bytes_per_block
        assert db.regs_per_thread > sb.regs_per_thread

    def test_padding_waste_counted(self):
        """2039-ish sizes do the work of the padded tile grid (§4.3)."""
        exact = matmul_stats(64, 64, 64, SMALL)[0]
        padded = matmul_stats(63, 63, 63, SMALL)[0]
        assert padded.flops == exact.flops
        assert padded.grid_blocks == exact.grid_blocks

    def test_split_k_adds_reduce_kernel(self):
        sched = MatmulSchedule(split_k=4)
        stats = matmul_stats(128, 128, 2048, sched)
        assert len(stats) == 2
        main, reduce = stats
        assert main.grid_blocks == 4 * matmul_stats(128, 128, 2048, MatmulSchedule())[0].grid_blocks
        assert reduce.is_memory_bound_hint

    def test_batch_scales_work(self):
        single = matmul_stats(64, 64, 64, SMALL_DB)[0]
        batched = matmul_stats(64, 64, 64, SMALL_DB, batch=4)[0]
        assert batched.grid_blocks == 4 * single.grid_blocks
        assert batched.flops == 4 * single.flops

    def test_task_definition(self):
        task = matmul_task(8, 12, 16)
        assert not task.is_injective
        assert task.attrs['kind'] == 'matmul'
        assert task.output.shape == (8, 12)


class TestScheduleGeometry:
    def test_paper_running_example(self):
        """spatial(4,2)*repeat(2,2)*spatial(4,8)*repeat(4,4) => 128x128, 256 threads."""
        sched = MatmulSchedule(block_warps=(4, 2), warp_outer=(2, 2),
                               thread_layout=(4, 8), thread_tile=(4, 4))
        assert (sched.block_m, sched.block_n) == (128, 128)
        assert sched.threads == 256

    def test_grid_covers_problem(self):
        sched = MatmulSchedule()
        gx, gy, gz = sched.grid(1000, 500)
        assert gx * sched.block_n >= 500 and gy * sched.block_m >= 1000

    def test_short_repr_mentions_buffering(self):
        assert MatmulSchedule(double_buffer=True).short_repr().endswith('.db')
        assert MatmulSchedule(double_buffer=False).short_repr().endswith('.sb')
