"""The batched measure path against the per-candidate formulas it replaced.

``_reference_matmul_stats`` and ``_reference_estimate`` are verbatim copies
of ``matmul_stats`` and ``PerfModel.estimate`` as they were before the work
terms and the latency formula were written once over scalar and array
arithmetic.  Every latency the tuner reports must equal theirs exactly
(``==``, as a Python ``float``), and the tuner must insert latencies in the
order the per-candidate loop did: the record log and ``min`` ties depend on
both.
"""
from __future__ import annotations

import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tuning import MatmulTuner
from repro.gpusim.device import A100, LAPTOP_GPU, RTX3090, DeviceSpec
from repro.gpusim.occupancy import compute_occupancy
from repro.gpusim.perfmodel import ModelParams, PerfModel
from repro.gpusim.stats import (KernelStats, LaunchStats,
                                OVERLAP_DOUBLE_BUFFER, OVERLAP_NONE)
from repro.graph.passes import fold_constants, lower_conv_to_gemm
import repro.models
from repro.sched.matmul_template import (ScheduleColumns, matmul_stats,
                                         matmul_stats_batch)
from repro.sched.schedule import MatmulSchedule
from repro.sched.space import matmul_schedule_space

DEVICES = (RTX3090, A100, LAPTOP_GPU)


# -- the reference formulas (verbatim) ---------------------------------------

def _reference_matmul_stats(m: int, n: int, k: int, sched: MatmulSchedule,
                            name: str = 'matmul',
                            extra_read_bytes: float = 0.0,
                            extra_write_bytes: float = 0.0,
                            batch: int = 1,
                            device: DeviceSpec = RTX3090) -> list[KernelStats]:
    if batch > 1 and sched.split_k > 1:
        raise ValueError('batched matmul cannot use split-k')
    bm, bn, bk = sched.block_m, sched.block_n, sched.block_k
    gx, gy, gz = sched.grid(m, n)
    threads = sched.threads
    k_per_split = math.ceil(k / sched.split_k)
    k_tiles = math.ceil(k_per_split / bk)
    blocks = gx * gy * gz * batch

    flops = 2.0 * blocks * bm * bn * k_tiles * bk
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


def _reference_estimate(device: DeviceSpec, params: ModelParams,
                        stats: KernelStats) -> LaunchStats:
    regs = min(stats.regs_per_thread, device.max_registers_per_thread)
    spilled = max(0, stats.regs_per_thread - device.max_registers_per_thread)
    occ = compute_occupancy(device, stats.threads_per_block,
                            stats.smem_bytes_per_block, regs)
    if not occ.viable:
        raise ValueError(
            f'kernel {stats.name!r} cannot launch: limited by {occ.limited_by} '
            f'(threads={stats.threads_per_block}, smem={stats.smem_bytes_per_block}, '
            f'regs={stats.regs_per_thread})')

    concurrent_per_sm = min(occ.resident_blocks_per_sm,
                            math.ceil(stats.grid_blocks / device.num_sms))
    warps_per_block = math.ceil(stats.threads_per_block / device.warp_size)
    occupancy = min(1.0, concurrent_per_sm * warps_per_block / device.max_warps_per_sm)

    ilp = max(1.0, stats.ilp)
    c_demand = max(params.min_occ_demand, params.compute_occ_demand / math.sqrt(ilp))
    m_demand = max(params.min_occ_demand, params.memory_occ_demand / math.sqrt(ilp))
    eff_c = params.base_compute_efficiency * min(1.0, occupancy / c_demand)
    eff_m = params.base_memory_efficiency * min(1.0, occupancy / m_demand)
    if spilled:
        eff_c /= (1.0 + params.spill_penalty_per_reg * spilled)
    eff_c = max(params.divergence_floor, eff_c)
    eff_m = max(params.divergence_floor, eff_m)

    t_compute = stats.flops / (device.peak_flops * eff_c)
    t_memory = stats.gmem_bytes / (device.peak_bandwidth * eff_m * stats.coalesce_factor)
    t_smem = (stats.smem_traffic_bytes * stats.smem_conflict_factor
              / device.peak_shared_bandwidth)

    alpha = stats.overlap
    t_body = max(t_compute, t_memory) + (1.0 - alpha) * min(t_compute, t_memory)
    t_body = max(t_body, t_smem)

    capacity = concurrent_per_sm * device.num_sms
    waves = stats.grid_blocks / capacity
    quant = math.ceil(waves) / waves
    t_body *= quant

    t_body = max(t_body, params.min_block_latency * math.ceil(waves))
    latency = t_body + device.kernel_launch_overhead

    return LaunchStats(
        latency=latency,
        compute_time=t_compute,
        memory_time=t_memory,
        smem_time=t_smem,
        occupancy=occupancy,
        resident_blocks_per_sm=concurrent_per_sm,
        waves=waves,
        limited_by=occ.limited_by,
    )


def _reference_measure(device, m, n, k, sched, extra_read_bytes=0.0,
                       extra_write_bytes=0.0, batch=1) -> float:
    """``MatmulTuner.measure`` over the reference formulas."""
    stats = _reference_matmul_stats(
        m, n, k, sched, batch=batch, device=device,
        extra_read_bytes=extra_read_bytes, extra_write_bytes=extra_write_bytes)
    return sum(_reference_estimate(device, ModelParams(), s).latency
               for s in stats)


# -- helpers -------------------------------------------------------------------

def _zoo_problems() -> list[tuple[int, int, int, int]]:
    """The distinct (m, n, k, batch) GEMMs of the five zoo models, as built
    and after conv lowering."""
    problems = set()
    for build in repro.models.MODEL_BUILDERS.values():
        graph = build()
        for g in (graph, lower_conv_to_gemm(fold_constants(graph))):
            for op in g.nodes:
                attrs = op.task.attrs
                if attrs.get('kind') == 'matmul':
                    problems.add((attrs['m'], attrs['n'], attrs['k'],
                                  attrs.get('batch', 1)))
    return sorted(problems)


ZOO = _zoo_problems()


def _extras(index: int, m: int, n: int) -> tuple[float, float]:
    """Fused traffic for the index-th problem: none, a bias plus a
    different output, or byte counts whose sums round (so an operation
    reordered in the formulas shows)."""
    return [(0.0, 0.0), (4.0 * n, 2.0 * m * n), (0.1 * m + 1 / 3, 1e-3 * n)
            ][index % 3]


def _assert_exact(got: list, want: list) -> None:
    assert all(type(x) is float for x in got)
    assert got == want


def _typed(values: tuple) -> tuple:
    return tuple((type(v), v) for v in values)


# -- the batched path against the reference --------------------------------------

class TestBatchedMatchesReference:
    @pytest.mark.parametrize('device', DEVICES, ids=lambda d: d.name)
    def test_zoo_shapes_full_candidate_set(self, device):
        """Exhaustive tunes of every zoo GEMM: the whole space plus split-k
        variants, batch 1 and batch > 1, with and without fused bytes."""
        tuner = MatmulTuner(device)
        checked = 0
        for i, (m, n, k, batch) in enumerate(ZOO):
            extra_read, extra_write = _extras(i, m, n)
            result = tuner.tune(m, n, k, batch=batch,
                                extra_read_bytes=extra_read,
                                extra_write_bytes=extra_write)
            cands = tuner.candidates(m, n, k, batch=batch)
            assert list(result.latencies) == cands
            _assert_exact(list(result.latencies.values()),
                          [_reference_measure(device, m, n, k, s, extra_read,
                                              extra_write, batch)
                           for s in cands])
            checked += len(cands)
        assert checked > 20000

    def test_batched_problems(self):
        """Batch > 1 beyond the zoo's attention GEMMs."""
        tuner = MatmulTuner(A100)
        for batch in (2, 7, 64):
            result = tuner.tune(96, 200, 300, batch=batch,
                                extra_read_bytes=128.0)
            _assert_exact(list(result.latencies.values()),
                          [_reference_measure(A100, 96, 200, 300, s, 128.0,
                                              0.0, batch)
                           for s in result.latencies])

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(1, 5000), n=st.integers(1, 5000),
           k=st.integers(1, 20000),
           extra_read=st.floats(0.0, 1e9, allow_nan=False),
           extra_write=st.floats(0.0, 1e9, allow_nan=False),
           device=st.sampled_from(DEVICES))
    def test_drawn_problems(self, m, n, k, extra_read, extra_write, device):
        result = MatmulTuner(device).tune(m, n, k,
                                          extra_read_bytes=extra_read,
                                          extra_write_bytes=extra_write)
        _assert_exact(list(result.latencies.values()),
                      [_reference_measure(device, m, n, k, s, extra_read,
                                          extra_write)
                       for s in result.latencies])

    def test_split_k_space_on_every_device(self):
        """Every split factor on every base schedule, via the array
        functions directly."""
        for device in DEVICES:
            space = [replace(s, split_k=f)
                     for s in matmul_schedule_space(device)
                     for f in (1, 2, 4, 8, 3)]
            model = PerfModel(device)
            cols = ScheduleColumns.build(space, model)
            main, split_rows, reduce = matmul_stats_batch(
                196, 512, 4608, cols, extra_write_bytes=1000.0, device=device)
            assert main.launchable().all() and reduce.launchable().all()
            total = model.estimate_batch(main)
            total[split_rows] += model.estimate_batch(reduce)
            _assert_exact(total.tolist(),
                          [_reference_measure(device, 196, 512, 4608, s, 0.0,
                                              1000.0) for s in space])

    @pytest.mark.parametrize('device', DEVICES, ids=lambda d: d.name)
    def test_scalar_path_unchanged(self, device):
        """The scalar ``matmul_stats`` and ``estimate`` still return the
        reference values with the reference types."""
        model = PerfModel(device)
        space = matmul_schedule_space(device)
        for m, n, k, batch in ZOO[::7]:
            for sched in space[::5] + [replace(space[3], split_k=4)]:
                if batch > 1 and sched.split_k > 1:
                    continue
                got = matmul_stats(m, n, k, sched, name='g', batch=batch,
                                   extra_write_bytes=3.0, device=device)
                want = _reference_matmul_stats(m, n, k, sched, name='g',
                                               batch=batch,
                                               extra_write_bytes=3.0,
                                               device=device)
                assert [_typed(astuple(s)) for s in got] == \
                    [_typed(astuple(s)) for s in want]
                for s in want:
                    assert _typed(astuple(model.estimate(s))) == _typed(
                        astuple(_reference_estimate(device, model.params, s)))

    def test_spilling_launches(self):
        """The spill penalty, which the reference skips when nothing
        spills: scalar launches and a tune over schedules whose register
        footprint exceeds the device budget."""
        model = PerfModel(RTX3090)
        for regs in range(250, 420, 7):
            for ilp in (1.0, 3.0, 16.0):
                stats = KernelStats(name='spill', grid_blocks=300,
                                    threads_per_block=64, flops=1e9 / 3,
                                    gmem_read_bytes=1e7, gmem_write_bytes=1e6,
                                    regs_per_thread=regs, ilp=ilp)
                assert model.estimate(stats) == _reference_estimate(
                    RTX3090, model.params, stats)
        spilling = [MatmulSchedule(block_warps=bw, warp_outer=(2, 2),
                                   thread_tile=(8, 8), block_k=bk)
                    for bw in ((1, 1), (1, 2), (2, 1)) for bk in (8, 16)]
        assert all(s.regs_per_thread > 255 for s in spilling)
        result = MatmulTuner(RTX3090).tune(300, 500, 700, space=spilling,
                                           try_split_k=False)
        _assert_exact(list(result.latencies.values()),
                      [_reference_measure(RTX3090, 300, 500, 700, s)
                       for s in spilling])


# -- insertion order of the measured latencies --------------------------------

class _RankingStub:
    """A duck-typed cost model: ranks candidates by a fixed permutation."""

    def __init__(self, top_k: int, calibration_tolerance: float):
        self.top_k = top_k
        self.calibration_tolerance = calibration_tolerance

    def rank(self, m, n, k, cands, batch=1, extra_read_bytes=0.0,
             extra_write_bytes=0.0):
        order = sorted(range(len(cands)), key=lambda i: (i * 37) % len(cands))
        return [(cands[i], 1e-5 * (1 + j)) for j, i in enumerate(order)]


class TestLatencyOrder:
    M, N, K = 196, 512, 2304

    def _loop(self, device, schedules, latencies):
        """The per-candidate measure loop the batched pass replaced."""
        for sched in schedules:
            if sched not in latencies:
                latencies[sched] = _reference_measure(device, self.M, self.N,
                                                      self.K, sched)

    def test_exhaustive(self):
        tuner = MatmulTuner(RTX3090)
        result = tuner.tune(self.M, self.N, self.K)
        want: dict = {}
        self._loop(RTX3090, tuner.candidates(self.M, self.N, self.K), want)
        assert list(result.latencies.items()) == list(want.items())

    def test_guided(self):
        tuner = MatmulTuner(RTX3090)
        stub = _RankingStub(top_k=20, calibration_tolerance=1e9)
        result = tuner.tune(self.M, self.N, self.K, cost_model=stub)
        assert result.used_cost_model and result.fallback_reason is None
        ordered = [s for s, _ in stub.rank(
            self.M, self.N, self.K, tuner.candidates(self.M, self.N, self.K))]
        want: dict = {}
        self._loop(RTX3090, ordered[:20], want)
        assert list(result.latencies.items()) == list(want.items())

    def test_escalated(self):
        tuner = MatmulTuner(RTX3090)
        stub = _RankingStub(top_k=20, calibration_tolerance=-1.0)
        result = tuner.tune(self.M, self.N, self.K, cost_model=stub)
        assert result.fallback_reason.startswith('miscalibrated')
        ordered = [s for s, _ in stub.rank(
            self.M, self.N, self.K, tuner.candidates(self.M, self.N, self.K))]
        want: dict = {}
        self._loop(RTX3090, ordered[:20], want)
        self._loop(RTX3090, ordered[20:], want)
        assert list(result.latencies.items()) == list(want.items())
        assert len(want) == result.num_candidates

    def test_duplicates_in_an_explicit_space(self):
        space = matmul_schedule_space()[:6]
        space = space + space[2:4]
        result = MatmulTuner().tune(64, 64, 64, space=space, try_split_k=False)
        want: dict = {}
        for sched in space:
            if sched not in want:
                want[sched] = _reference_measure(RTX3090, 64, 64, 64, sched)
        assert list(result.latencies.items()) == list(want.items())


# -- error path and candidate memo -----------------------------------------------

#: 1024 threads at 109 registers each exceed LAPTOP_GPU's register file, so
#: not even one block fits on an SM
_UNLAUNCHABLE = MatmulSchedule(block_warps=(4, 8), warp_outer=(2, 2),
                               thread_layout=(4, 8), thread_tile=(4, 4),
                               block_k=8)


class TestErrorsAndMemo:
    def test_unlaunchable_schedule_raises_the_estimate_error(self):
        m, n, k = 256, 512, 128
        expected = None
        try:
            PerfModel(LAPTOP_GPU).estimate(
                matmul_stats(m, n, k, _UNLAUNCHABLE, device=LAPTOP_GPU)[0])
        except ValueError as err:
            expected = str(err)
        assert expected is not None and 'cannot launch' in expected
        assert f'matmul_{m}x{n}x{k}_{_UNLAUNCHABLE.short_repr()}' in expected
        space = matmul_schedule_space(LAPTOP_GPU)[:5] + [_UNLAUNCHABLE]
        with pytest.raises(ValueError) as info:
            MatmulTuner(LAPTOP_GPU).tune(m, n, k, space=space,
                                         try_split_k=False)
        assert str(info.value) == expected

    def test_batched_split_k_raises_the_stats_error(self):
        space = [replace(matmul_schedule_space()[0], split_k=2)]
        with pytest.raises(ValueError,
                           match='batched matmul cannot use split-k'):
            MatmulTuner().tune(64, 64, 512, space=space, try_split_k=False,
                               batch=2)

    def test_empty_grid_raises_the_stats_error(self):
        with pytest.raises(ValueError, match='empty launch configuration'):
            MatmulTuner().tune(0, 64, 64)

    def test_candidates_returns_a_fresh_list(self):
        tuner = MatmulTuner()
        first = tuner.candidates(196, 512, 4608)
        snapshot = list(first)
        first.clear()
        first.append(_UNLAUNCHABLE)
        second = tuner.candidates(196, 512, 4608)
        assert second == snapshot and second is not first
        # problems with the same split-k factors share one candidate set
        assert tuner.candidates(196, 256, 4608) == snapshot

    def test_candidate_memo_is_per_space(self):
        tuner = MatmulTuner()
        space = matmul_schedule_space()[:4]
        assert tuner.candidates(64, 64, 64, space=space,
                                try_split_k=False) == space
        assert len(tuner.candidates(64, 64, 64)) == len(
            matmul_schedule_space())

    def test_columns_match_the_schedules(self):
        model = PerfModel(A100)
        space = matmul_schedule_space(A100)
        cols = ScheduleColumns.build(space, model)
        rows = [5, 0, 3]
        sub = cols.take(rows)
        for i, row in enumerate(rows):
            s = space[row]
            assert sub.block_m[i] == s.block_m and sub.threads[i] == s.threads
            assert sub.regs_per_thread[i] == s.regs_per_thread
            assert sub.resident_blocks_per_sm[i] == model.occupancy(
                s.threads, s.smem_bytes, s.regs_per_thread).resident_blocks_per_sm
        assert cols.block_m.dtype == np.int64
