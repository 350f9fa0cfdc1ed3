"""The compilation cache: task signatures, schedule reuse, disk persistence.

Covers the acceptance property of the cache subsystem — a second
``optimize()`` of the same graph through a warmed :class:`ScheduleCache`
performs zero tuner measurements, charges zero simulated seconds, and yields
the identical modeled latency — plus regression tests for the tuner
cache-hit accounting, the empty-reduce-space fallback, and the batched
split-k decision surfacing.
"""
import dataclasses
import json
import math

import numpy as np
import pytest

from repro.core.schedule import MatmulSchedule, ReduceSchedule, schedule_fields
from repro.core.space import matmul_schedule_space
from repro.core.tuning import MatmulTuner
from repro.graph import from_numpy, ops, symbol, trace
from repro.gpusim import RTX3090, A100, SimulatedClock
from repro.models.common import WeightFactory, conv_bn_relu
from repro.runtime import (HidetExecutor, ScheduleCache, default_schedule_cache,
                           optimize, task_signature)
from repro.runtime.cache import (CACHE_FORMAT_VERSION, CacheEntry,
                                 _schedule_to_dict)

RNG = np.random.default_rng(11)


def small_cnn():
    x = symbol([1, 4, 12, 12], name='x')
    wf = WeightFactory(5)
    y = conv_bn_relu(wf, x, 8, kernel=3, padding=1, name='c1')
    y = conv_bn_relu(wf, y, 8, kernel=3, padding=1, name='c2')
    y = ops.global_avg_pool(y)
    return trace(y, name='cache_cnn')


def softmax_graph(rows=4, cols=512):
    x = symbol([rows, cols], name='x')
    return trace(ops.softmax(x), name='cache_softmax')


class TestTaskSignature:
    def test_stable_across_rebuilds(self):
        """The same model built twice yields identical signatures."""
        def sigs(graph):
            return sorted(task_signature(op.task, RTX3090)
                          for op in graph.nodes)
        assert sigs(small_cnn()) == sigs(small_cnn())

    def test_distinguishes_shapes_and_devices(self):
        a = symbol([32, 64], name='a')
        t1 = ops.MatmulOp(a, from_numpy(
            RNG.standard_normal((64, 16)).astype(np.float32))).task
        b = symbol([32, 128], name='b')
        t2 = ops.MatmulOp(b, from_numpy(
            RNG.standard_normal((128, 16)).astype(np.float32))).task
        assert task_signature(t1, RTX3090) != task_signature(t2, RTX3090)
        assert task_signature(t1, RTX3090) != task_signature(t1, A100)
        assert task_signature(t1, RTX3090) == task_signature(t1, RTX3090)

    def test_extras_and_fusion_change_signature(self):
        task = small_cnn().nodes[0].task
        assert (task_signature(task, RTX3090, extras=('matmul', True))
                != task_signature(task, RTX3090, extras=('matmul', False)))
        assert (task_signature(task, RTX3090, fusion=(('p',), ()))
                != task_signature(task, RTX3090, fusion=None))


class TestScheduleCacheCore:
    def test_hit_miss_accounting_and_kind_guard(self):
        cache = ScheduleCache()
        assert cache.get('sig', kind='matmul') is None
        cache.put('sig', 'matmul', MatmulSchedule())
        assert cache.get('sig', kind='matmul') == MatmulSchedule()
        # a reduce lookup must not be served a matmul schedule
        assert cache.get('sig', kind='reduce') is None
        assert cache.stats == {'entries': 1, 'hits': 1, 'misses': 2,
                               'transfer_hits': 0, 'device_transfer_hits': 0,
                               'evictions': 0}
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_disk_round_trip(self, tmp_path):
        cache = ScheduleCache()
        msched = MatmulSchedule(block_warps=(2, 4), warp_outer=(1, 2),
                                block_k=16, double_buffer=False, split_k=4)
        rsched = ReduceSchedule(block_size=128, items_per_thread=2)
        cache.put('m-sig', 'matmul', msched)
        cache.put('r-sig', 'reduce', rsched)
        path = str(tmp_path / 'schedules.json')
        cache.save(path)

        loaded = ScheduleCache.load(path)
        assert len(loaded) == 2
        assert loaded.get('m-sig', kind='matmul') == msched
        assert loaded.get('r-sig', kind='reduce') == rsched
        # loaded schedules are real frozen dataclasses, not dicts
        assert loaded.get('m-sig', kind='matmul').block_m == msched.block_m

    def test_version_field_written_and_checked(self, tmp_path):
        cache = ScheduleCache()
        cache.put('s', 'matmul', MatmulSchedule())
        data = cache.to_json()
        assert data['version'] == CACHE_FORMAT_VERSION
        with pytest.raises(ValueError, match='version'):
            ScheduleCache().merge_json({'version': -1, 'entries': {}})

    def test_unknown_schedule_kind_rejected(self):
        with pytest.raises(ValueError, match='kind'):
            CacheEntry.from_json({'kind': 'conv3d', 'schedule': {}})

    def test_schedule_fields_match_dataclasses_helpers(self):
        """Record keys and the record log are built from plain field
        tuples; they must equal ``astuple``/``asdict`` so key order and
        log bytes stay what they were."""
        schedules = (list(matmul_schedule_space(RTX3090))
                     + [ReduceSchedule(),
                        ReduceSchedule(block_size=128, items_per_thread=2)])
        for sched in schedules:
            assert schedule_fields(sched) == dataclasses.astuple(sched)
            assert (json.dumps(_schedule_to_dict(sched))
                    == json.dumps(dataclasses.asdict(sched)))


class TestWarmCompile:
    def test_warm_optimize_charges_nothing_and_matches_latency(self):
        graph = small_cnn()
        cache = ScheduleCache()
        cold_clock = SimulatedClock()
        cold = optimize(graph, clock=cold_clock, cache=cache)
        assert cold.tuning_seconds > 0
        assert cold.cache_misses > 0

        warm_clock = SimulatedClock()
        warm = optimize(graph, clock=warm_clock, cache=cache)
        assert warm_clock.elapsed_seconds == 0.0     # zero simulated seconds
        assert warm_clock.events == []               # zero tuner measurements
        assert warm.tuning_seconds == 0.0
        assert warm.cache_misses == 0 and warm.cache_hits > 0
        assert warm.latency == cold.latency          # identical modeled latency

    def test_warm_from_disk_in_fresh_process_emulation(self, tmp_path):
        """Rebuild the model AND reload the cache: still a zero-cost compile."""
        cache = ScheduleCache()
        cold = HidetExecutor(cache=cache).compile(small_cnn())
        path = str(tmp_path / 'cnn.schedules.json')
        cache.save(path)

        warmed = ScheduleCache.load(path)
        executor = HidetExecutor(cache=warmed)
        warm = executor.compile(small_cnn())         # freshly built graph
        assert warm.tuning_seconds == 0.0
        assert executor.clock.events == []
        assert warm.cache_misses == 0
        assert warm.latency == cold.latency

    def test_cache_shared_across_executor_instances(self):
        graph = small_cnn()
        cache = ScheduleCache()
        HidetExecutor(cache=cache).compile(graph)
        second = HidetExecutor(cache=cache)
        compiled = second.compile(graph)
        assert compiled.tuning_seconds == 0.0 and compiled.cache_misses == 0

    def test_default_cache_is_process_wide(self):
        assert default_schedule_cache() is default_schedule_cache()
        e1, e2 = HidetExecutor(), HidetExecutor()
        assert e1.cache is e2.cache is default_schedule_cache()

    def test_restricted_space_does_not_consume_full_space_records(self):
        graph = small_cnn()
        cache = ScheduleCache()
        HidetExecutor(cache=cache, double_buffer=True).compile(graph)
        sb = HidetExecutor(cache=cache, double_buffer=False).compile(graph)
        # different space fingerprint -> cold for the matmul groups
        assert sb.tuning_seconds > 0

    def test_reduce_schedules_cached_too(self):
        graph = softmax_graph()
        cache = ScheduleCache()
        cold = HidetExecutor(cache=cache).compile(graph)
        assert any(op.kind == 'reduce_template' for op in cold.ops)
        warm = HidetExecutor(cache=cache).compile(softmax_graph())
        assert warm.cache_misses == 0
        assert warm.latency == cold.latency

    def test_prologue_constants_distinguish_signatures(self):
        """Regression: groups differing only in prologue constants (clip
        bounds) must not share a signature — or the IR cache would serve the
        wrong fused module."""
        w = from_numpy(RNG.standard_normal((4, 4)).astype(np.float32))
        g1 = trace(ops.matmul(ops.clip(symbol([4, 4], name='x'), 0.0, 6.0), w))
        g2 = trace(ops.matmul(ops.clip(symbol([4, 4], name='x'), -1.0, 1.0), w))
        executor = HidetExecutor(cache=ScheduleCache(), build_ir=True)
        c1 = executor.compile(g1)
        c2 = executor.compile(g2)
        assert c1.ops[0].module is not c2.ops[0].module
        x = RNG.standard_normal((4, 4)).astype(np.float32)
        np.testing.assert_allclose(c2.run(x)[0], g2.run(x)[0],
                                   rtol=1e-4, atol=1e-5)

    def test_ir_cache_reuses_built_modules(self):
        graph = small_cnn()
        executor = HidetExecutor(cache=ScheduleCache(), build_ir=True)
        first = executor.compile(graph)
        assert len(executor._ir_cache) > 0
        second = executor.compile(graph)
        for a, b in zip(first.ops, second.ops):
            if a.module is not None:
                assert a.module is b.module          # lowered exactly once


class TestTunerHitAccounting:
    def test_cache_hit_reports_zero_tuning_seconds(self):
        """Regression: a hit used to report the original tuning time."""
        clock = SimulatedClock()
        tuner = MatmulTuner(RTX3090, clock=clock)
        first = tuner.tune(384, 384, 384)
        assert first.tuning_seconds > 0
        elapsed = clock.elapsed_seconds
        hit = tuner.tune(384, 384, 384)
        assert hit.tuning_seconds == 0.0
        assert clock.elapsed_seconds == elapsed
        assert hit.best_schedule == first.best_schedule
        assert hit.best_latency == first.best_latency


class TestReduceFallback:
    def test_empty_reduce_space_falls_back_to_rule_based(self, monkeypatch):
        """Regression: ``best_sched=None`` used to crash ``reduce_stats``."""
        monkeypatch.setattr('repro.runtime.executor.reduce_schedule_space',
                            lambda device: [])
        graph = softmax_graph()
        compiled = HidetExecutor(cache=ScheduleCache()).compile(graph)
        assert all(op.kind != 'reduce_template' for op in compiled.ops)
        assert any(op.kind == 'rule_based' for op in compiled.ops)
        x = RNG.standard_normal((4, 512)).astype(np.float32)
        np.testing.assert_allclose(compiled.run(x)[0], graph.run(x)[0],
                                   rtol=1e-4, atol=1e-5)


class TestSplitKDecision:
    def test_batched_matmul_disables_split_k_visibly(self):
        tuner = MatmulTuner(RTX3090)
        batched = tuner.tune(196, 512, 4608, batch=8, try_split_k=True)
        assert batched.split_k_tried is False
        assert 'batch=8' in batched.split_k_disabled_reason
        assert batched.best_schedule.split_k == 1

    def test_unbatched_small_output_tries_split_k(self):
        tuner = MatmulTuner(RTX3090)
        single = tuner.tune(196, 512, 4608, batch=1, try_split_k=True)
        assert single.split_k_tried is True
        assert single.split_k_disabled_reason is None
        assert single.best_schedule.split_k > 1

    def test_caller_opt_out_is_not_reported_as_batch_disable(self):
        tuner = MatmulTuner(RTX3090)
        result = tuner.tune(256, 256, 256, try_split_k=False)
        assert result.split_k_tried is False
        assert result.split_k_disabled_reason is None

    def test_opt_out_does_not_alias_batch_disable_in_tuner_cache(self):
        """Regression: both calls enumerate the same space, but the cached
        result must keep each caller's own split-k decision metadata."""
        tuner = MatmulTuner(RTX3090)
        forced = tuner.tune(196, 512, 4608, batch=8, try_split_k=True)
        opted_out = tuner.tune(196, 512, 4608, batch=8, try_split_k=False)
        assert forced.split_k_disabled_reason is not None
        assert opted_out.split_k_disabled_reason is None
        assert opted_out.best_latency == forced.best_latency
