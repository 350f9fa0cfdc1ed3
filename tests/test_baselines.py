"""Baseline systems: loop-oriented scheduling, tuners, library, frameworks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.interpreter import run_kernel
from repro.baselines import (Ansor, AutoTVM, KernelLibrary, OnnxRuntimeLike,
                             PyTorchLike, TensorRTLike, divisors,
                             factor_splits_count, iter_tile_configs)
from repro.baselines.input_space import (autotvm_conv_space_size,
                                         resnet50_conv_workloads)
from repro.baselines.loop_sched import (LoopSchedule, ScheduleError,
                                        create_default_program)
from repro.baselines.tiling import TileConfig, tiled_matmul_stats
from repro.gpusim.device import A100, LAPTOP_GPU, RTX3090, DeviceSpec
from repro.gpusim.stats import KernelStats, OVERLAP_DOUBLE_BUFFER, OVERLAP_NONE
from repro.graph import from_numpy, ops, symbol, trace
from repro.ir.compute import compute, reduce, tensor_input
from repro.ir.task import Task

RNG = np.random.default_rng(11)


class TestLoopScheduling:
    """Table 1: the declarative primitives."""

    def _program(self):
        a = tensor_input('A', 'float32', [128, 4])
        out = compute('B', [128, 4], lambda i, j: a[i, j] * 2.0)
        return create_default_program(Task('copy', [a], out))

    def _check_runs(self, sched, grid_block_expected=None):
        func = sched.lower()
        a = RNG.standard_normal((128, 4)).astype(np.float32)
        b = np.full((128, 4), np.nan, dtype=np.float32)
        run_kernel(func, [a, b])
        np.testing.assert_allclose(b, 2 * a)
        if grid_block_expected:
            assert (func.grid_dim, func.block_dim) == grid_block_expected

    def test_default_program_runs(self):
        self._check_runs(self._program())

    def test_split(self):
        s = self._program()
        outer, inner = s.split('i0', 32)
        assert outer.extent == 4 and inner.extent == 32
        self._check_runs(s)

    def test_split_requires_perfect_factor(self):
        s = self._program()
        with pytest.raises(ScheduleError, match='perfect tile'):
            s.split('i0', 48)

    def test_fuse_and_reorder(self):
        s = self._program()
        fused = s.fuse('i0', 'i1')
        assert fused.extent == 512
        self._check_runs(s)
        s2 = self._program()
        s2.reorder('i1', 'i0')
        assert [l.name for l in s2.loops] == ['i1', 'i0']
        self._check_runs(s2)

    def test_fuse_requires_adjacent(self):
        a = tensor_input('A', 'float32', [2, 3, 4])
        out = compute('B', [2, 3, 4], lambda i, j, k: a[i, j, k] * 2.0)
        s = create_default_program(Task('t', [a], out))
        with pytest.raises(ScheduleError, match='adjacent'):
            s.fuse('i0', 'i2')

    def test_bind_to_hardware_axes(self):
        s = self._program()
        fused = s.fuse('i0', 'i1')
        outer, inner = s.split(fused, 128)
        s.bind(outer, 'blockIdx.x')
        s.bind(inner, 'threadIdx.x')
        self._check_runs(s, ((4, 1, 1), (128, 1, 1)))

    def test_double_bind_rejected(self):
        s = self._program()
        s.bind('i0', 'threadIdx.x')
        with pytest.raises(ScheduleError, match='already bound'):
            s.bind('i1', 'threadIdx.x')

    def test_reduction_default_program(self):
        a = tensor_input('A', 'float32', [8, 16])
        out = compute('B', [8], lambda i: reduce([16], lambda k: a[i, k]))
        s = create_default_program(Task('sum', [a], out))
        func = s.lower()
        av = RNG.standard_normal((8, 16)).astype(np.float32)
        bv = np.zeros(8, dtype=np.float32)   # reduction accumulates in-place
        run_kernel(func, [av, bv])
        np.testing.assert_allclose(bv, av.sum(1), rtol=1e-4, atol=1e-5)

    def test_program_text_table1_shapes(self):
        s = self._program()
        s.split('i0', 32)
        text = s.program_text()
        assert 'for i0o in range(4):' in text and 'for i0i in range(32):' in text


class TestInputCentricSpace:
    def test_factor_splits_count(self):
        # 512 = 2^9 into 4 ordered factors: C(12, 3)
        assert factor_splits_count(512, 4) == math.comb(12, 3)
        assert factor_splits_count(7, 2) == 2
        assert factor_splits_count(1, 4) == 1

    def test_divisors(self):
        assert divisors(12) == (1, 2, 3, 4, 6, 12)
        assert divisors(13) == (1, 13)

    def test_space_size_grows_with_divisors(self):
        workloads = {str(w): autotvm_conv_space_size(w)
                     for w in resnet50_conv_workloads()}
        assert max(workloads.values()) > 1e7
        assert min(workloads.values()) > 1e4

    def test_prime_extents_have_no_valid_tiles(self):
        assert list(iter_tile_configs(2039, 2039, 2039)) == []
        assert len(list(iter_tile_configs(2048, 2048, 2048))) > 100


def _reference_tiled_matmul_stats(m: int, n: int, k: int, config: TileConfig, name: str,
                                  double_buffer: bool = False,
                                  batch: int = 1,
                                  extra_read_bytes: float = 0.0,
                                  extra_write_bytes: float = 0.0,
                                  coalesce_factor: float = 1.0,
                                  device: DeviceSpec = RTX3090) -> KernelStats:
    """``tiled_matmul_stats`` as it was with its own copy of the traffic/L2
    formula, kept verbatim as the oracle of the template's work terms."""
    gx = math.ceil(n / config.bn)
    gy = math.ceil(m / config.bm)
    k_tiles = math.ceil(k / config.bk)
    blocks = gx * gy * batch

    flops = 2.0 * blocks * config.bm * config.bn * k_tiles * config.bk
    l2_budget = device.l2_cache_bytes * 0.6
    reads_a = float(blocks) * config.bm * config.bk * k_tiles * 4
    reads_b = float(blocks) * config.bk * config.bn * k_tiles * 4
    unique_a = float(gy * config.bm) * k_tiles * config.bk * 4 * batch
    unique_b = float(gx * config.bn) * k_tiles * config.bk * 4 * batch
    if unique_a <= l2_budget:
        reads_a = unique_a
    if unique_b <= l2_budget:
        reads_b = unique_b

    threads = config.threads
    smem_read = float(blocks) * k_tiles * threads * (config.tm + config.tn) * config.bk * 4
    smem_traffic = smem_read + float(blocks) * (config.bm + config.bn) * config.bk * 4 * k_tiles

    stages = 2 if double_buffer else 1
    return KernelStats(
        name=name,
        grid_blocks=blocks,
        threads_per_block=threads,
        flops=flops,
        gmem_read_bytes=reads_a + reads_b + extra_read_bytes,
        gmem_write_bytes=float(gx * config.bn * gy * config.bm * 4 * batch) + extra_write_bytes,
        smem_bytes_per_block=config.smem_bytes * stages,
        regs_per_thread=config.regs_per_thread + (
            (config.bm + config.bn) * config.bk // max(1, threads) if double_buffer else 0),
        smem_traffic_bytes=smem_traffic,
        overlap=OVERLAP_DOUBLE_BUFFER if double_buffer else OVERLAP_NONE,
        ilp=float(config.tm * config.tn),
        coalesce_factor=coalesce_factor,
    )


class TestTiledStats:
    """The baselines' tiled kernels use the template's work terms."""

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 6000), n=st.integers(1, 6000),
           k=st.integers(1, 6000),
           tile=st.tuples(st.integers(1, 256), st.integers(1, 256),
                          st.integers(1, 64), st.integers(1, 16),
                          st.integers(1, 16)),
           batch=st.integers(1, 16), double_buffer=st.booleans(),
           extra=st.tuples(st.sampled_from([0.0, 4096.0, 1.5e6]),
                           st.sampled_from([0.0, 512.0, 3.25e5])),
           device=st.sampled_from([RTX3090, A100, LAPTOP_GPU]))
    def test_matches_the_hand_copied_formula(self, m, n, k, tile, batch,
                                             double_buffer, extra, device):
        bm, bn, bk, tm, tn = tile
        config = TileConfig(bm, bn, bk, min(tm, bm), min(tn, bn))
        kwargs = dict(double_buffer=double_buffer, batch=batch,
                      extra_read_bytes=extra[0], extra_write_bytes=extra[1],
                      coalesce_factor=0.8, device=device)
        got = tiled_matmul_stats(m, n, k, config, 'g', **kwargs)
        want = _reference_tiled_matmul_stats(m, n, k, config, 'g', **kwargs)
        assert repr(got) == repr(want)


class TestTuners:
    def test_autotvm_weak_transformer_template(self):
        at = AutoTVM()
        space = at.candidate_space(128, 768, 768, 'dense')
        assert 0 < len(space) < 20           # paper: "less than 20 schedules"
        assert all(c.tm == 1 and c.tn == 1 for c in space)

    def test_autotvm_conv_space_is_rich(self):
        at = AutoTVM()
        assert len(at.candidate_space(196, 512, 2304, 'conv')) > 100

    def test_ansor_beats_autotvm_search(self):
        """Same space, better search: Ansor's best <= AutoTVM's best."""
        at = AutoTVM(seed=3)
        an = Ansor(seed=3)
        r_at = at.tune_contraction(784, 128, 576, kind='conv', name='t')
        r_an = an.tune_contraction(784, 128, 576, kind='conv', name='t')
        assert r_an.best_latency <= r_at.best_latency * 1.05

    def test_prime_size_fails(self):
        at = AutoTVM()
        result = at.tune_contraction(2039, 2039, 2039, kind='conv', name='prime')
        assert result.failed

    def test_task_results_cached(self):
        at = AutoTVM()
        r1 = at.tune_contraction(256, 256, 256, kind='conv', name='x')
        t = at.clock.elapsed_seconds
        r2 = at.tune_contraction(256, 256, 256, kind='conv', name='x')
        assert r1 is r2 and at.clock.elapsed_seconds == t

    def test_depthwise_quality_ordering(self):
        """Ansor's depthwise sketch > AutoTVM's template (paper Fig. 16)."""
        x = symbol([1, 32, 56, 56])
        w = from_numpy(RNG.standard_normal((32, 1, 3, 3)).astype(np.float32))
        g = trace(ops.conv2d(x, w, padding=1, groups=32))
        r_ansor = Ansor().compile(g)
        r_autotvm = AutoTVM().compile(g)
        assert r_ansor.latency < r_autotvm.latency


class TestLibraryAndFrameworks:
    def test_gemm_tile_pick_prefers_occupancy(self):
        lib = KernelLibrary()
        big = lib.pick_gemm_tile(4096, 4096, 1024)
        small = lib.pick_gemm_tile(128, 768, 768)
        assert big.bm * big.bn > small.bm * small.bn

    def test_framework_ordering_on_cnn(self):
        """ORT (fused, low overhead) < PyTorch (eager) on the same graph."""
        x = symbol([1, 16, 28, 28])
        w = from_numpy(RNG.standard_normal((32, 16, 3, 3)).astype(np.float32))
        s = from_numpy(RNG.standard_normal((32, 1, 1)).astype(np.float32))
        b = from_numpy(RNG.standard_normal((32, 1, 1)).astype(np.float32))
        g = trace(ops.relu(ops.batch_norm(ops.conv2d(x, w, padding=1), s, b)))
        pt = PyTorchLike().compile(g)
        ort = OnnxRuntimeLike().compile(g)
        assert ort.latency < pt.latency
        assert ort.num_kernels < pt.num_kernels

    def test_pytorch_views_are_free(self):
        x = symbol([4, 6])
        g = trace(ops.transpose(x, [1, 0]))
        report = PyTorchLike().compile(g)
        assert report.num_kernels == 0

    def test_tensorrt_fuses_attention(self):
        from repro.models.bert import transformer_encoder_layer
        from repro.models.common import WeightFactory
        wf = WeightFactory(5)
        x = symbol([128, 768])
        g = trace(transformer_encoder_layer(wf, x, 768, 12, 3072, name='L'))
        trt = TensorRTLike().compile(g)
        ort = OnnxRuntimeLike().compile(g)
        assert any('fused_attention' in name for name, _ in trt.kernel_latencies)
        assert trt.latency < ort.latency

    def test_report_row_formatting(self):
        x = symbol([4])
        report = PyTorchLike().compile(trace(ops.relu(x)))
        assert 'pytorch' in report.row()
