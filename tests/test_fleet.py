"""The fleet layer: placement policies, the multi-replica simulator, the
device-family transfer tier, and admission control.
"""
import numpy as np
import pytest

from repro.gpusim.device import (A100, LAPTOP_GPU, RTX3090, DeviceSpec,
                                 device_family_key)
from repro.graph import ops, symbol, trace
from repro.models.common import WeightFactory, conv_bn_relu, linear
from repro.runtime import HidetExecutor, ScheduleCache
from repro.sched.schedule import MatmulSchedule
from repro.sched.space import matmul_schedule_space
from repro.serve import (BatchingPolicy, DynamicBatcher, Fleet, FleetSimulator,
                         LeastLoadedPlacement, ModelAffinePlacement,
                         ModelRegistry, Request, RoundRobinPlacement,
                         format_fleet_report, poisson_trace)


def tiny_cnn(batch: int):
    x = symbol([batch, 4, 12, 12], name='x')
    wf = WeightFactory(5)
    y = conv_bn_relu(wf, x, 8, kernel=3, padding=1, name='c1')
    return trace(ops.global_avg_pool(y), name=f'cnn_b{batch}')


def tiny_mlp(batch: int):
    x = symbol([batch, 32], name='x')
    wf = WeightFactory(9)
    y = ops.relu(linear(wf, x, 64, name='fc1'))
    return trace(linear(wf, y, 8, name='fc2'), name=f'mlp_b{batch}')


def two_model_fleet(placement, devices=(RTX3090, RTX3090), **kwargs) -> Fleet:
    fleet = Fleet(list(devices), placement=placement, **kwargs)
    fleet.register('cnn', tiny_cnn, max_batch=8)
    fleet.register('mlp', tiny_mlp, max_batch=8)
    return fleet


# ---------------------------------------------------------------------------
# placement policies


class TestPlacementPartition:
    def test_round_robin_hosts_everything_everywhere(self):
        assert RoundRobinPlacement().partition(['a', 'b'], 3) == {
            'a': (0, 1, 2), 'b': (0, 1, 2)}

    def test_model_affine_balanced_split(self):
        assert ModelAffinePlacement().partition(['a', 'b'], 4) == {
            'a': (0, 1), 'b': (2, 3)}
        # uneven: first models absorb the remainder
        assert ModelAffinePlacement().partition(['a', 'b', 'c'], 4) == {
            'a': (0, 1), 'b': (2,), 'c': (3,)}
        # more models than replicas: wrap around
        assert ModelAffinePlacement().partition(['a', 'b', 'c'], 2) == {
            'a': (0,), 'b': (1,), 'c': (0,)}

    def test_model_affine_explicit_assignment_validated(self):
        explicit = ModelAffinePlacement({'a': (1,), 'b': (0, 1)})
        assert explicit.partition(['a', 'b'], 2) == {'a': (1,), 'b': (0, 1)}
        with pytest.raises(ValueError, match='misses models'):
            ModelAffinePlacement({'a': (0,)}).partition(['a', 'b'], 2)
        with pytest.raises(ValueError, match='invalid replicas'):
            ModelAffinePlacement({'a': (5,)}).partition(['a'], 2)

    def test_round_robin_routing_is_deterministic_after_reset(self):
        policy = RoundRobinPlacement()
        req = Request(0, 'a', 1, 0.0)
        first = [policy.choose(req, (0, 1, 2), None, 0.0) for _ in range(5)]
        policy.reset()
        again = [policy.choose(req, (0, 1, 2), None, 0.0) for _ in range(5)]
        assert first == again == [0, 1, 2, 0, 1]


@pytest.fixture(scope='module')
def affine_fleet():
    return two_model_fleet(ModelAffinePlacement()).build()


class TestFleet:
    def test_build_partitions_and_compiles_hosted_models_only(self, affine_fleet):
        assert affine_fleet.hosting == {'cnn': (0,), 'mlp': (1,)}
        assert sorted(affine_fleet.replicas[0].registry.models) == ['cnn']
        assert sorted(affine_fleet.replicas[1].registry.models) == ['mlp']
        # each replica paid only its own models' tuning bill
        assert affine_fleet.total_compile_seconds == sum(
            r.compile_seconds for r in affine_fleet.replicas)

    def test_register_after_build_rejected(self, affine_fleet):
        with pytest.raises(RuntimeError, match='already built'):
            affine_fleet.register('late', tiny_cnn)

    def test_unknown_model_and_empty_fleet_rejected(self, affine_fleet):
        with pytest.raises(KeyError, match='not registered'):
            affine_fleet.hosts('nope')
        with pytest.raises(ValueError, match='at least one replica'):
            Fleet([])
        with pytest.raises(ValueError, match='no models'):
            Fleet([RTX3090]).build()

    def test_corrupt_warm_file_boots_cold(self, tmp_path):
        bad = tmp_path / 'bad.json'
        bad.write_text('{not json')
        fleet = Fleet([RTX3090], warm_from=str(bad))
        fleet.register('cnn', tiny_cnn, buckets=[1])
        fleet.build()
        assert fleet.total_compile_seconds > 0      # cold, but booted

    def test_simulation_is_deterministic(self, affine_fleet):
        sim = FleetSimulator(affine_fleet,
                             BatchingPolicy(max_batch=8, max_wait=1e-3))
        trace_ = poisson_trace(qps=30000, num_requests=400,
                               models=['cnn', 'mlp'], seed=3, sizes=(1, 2))
        r1, r2 = sim.run(trace_), sim.run(trace_)
        key = lambda r: [(c.request.req_id, c.completion, c.replica)  # noqa: E731
                         for c in r.completions]
        assert key(r1) == key(r2)
        assert sorted(c.request.req_id for c in r1.completions) == \
            list(range(400))
        assert sum(b.size for b in r1.batches) == sum(r.size for r in trace_)

    def test_affine_routes_models_to_home_replicas(self, affine_fleet):
        sim = FleetSimulator(affine_fleet,
                             BatchingPolicy(max_batch=8, max_wait=1e-3))
        result = sim.run(poisson_trace(qps=20000, num_requests=300,
                                       models=['cnn', 'mlp'], seed=4))
        for completion in result.completions:
            expected = affine_fleet.hosting[completion.request.model]
            assert completion.replica in expected
        report = format_fleet_report(result)
        assert 'per replica' in report and 'r0:RTX3090' in report

    def test_least_loaded_avoids_the_busy_replica(self):
        fleet = Fleet([RTX3090, RTX3090], placement=LeastLoadedPlacement())
        fleet.register('cnn', tiny_cnn, max_batch=8)
        fleet.build()
        sim = FleetSimulator(fleet, BatchingPolicy(max_batch=8, max_wait=1e-3))
        result = sim.run(poisson_trace(qps=50000, num_requests=400,
                                       models=['cnn'], seed=5))
        served = {b.replica for b in result.batches}
        assert served == {0, 1}          # both replicas carry load
        per = result.per_replica()
        shares = [row['requests'] for row in per]
        assert min(shares) > 0.3 * max(shares)   # roughly balanced

    def test_per_replica_rows_cover_all_batches(self, affine_fleet):
        sim = FleetSimulator(affine_fleet,
                             BatchingPolicy(max_batch=8, max_wait=1e-3))
        result = sim.run(poisson_trace(qps=20000, num_requests=200,
                                       models=['cnn', 'mlp'], seed=6))
        rows = result.per_replica()
        assert sum(r['batches'] for r in rows) == len(result.batches)
        assert all(0 <= r['utilization'] <= 1 for r in rows)


# ---------------------------------------------------------------------------
# device-family transfer tier


class TestDeviceFamilyCache:
    def test_device_family_key_ignores_capacity(self):
        assert device_family_key(RTX3090) == device_family_key(A100)
        assert device_family_key(RTX3090) == device_family_key(LAPTOP_GPU)
        narrow = DeviceSpec(name='narrow', num_sms=8,
                            max_threads_per_block=256)
        assert device_family_key(narrow) != device_family_key(RTX3090)

    def test_get_device_transfer_counts_and_validates(self):
        cache = ScheduleCache()
        sched = MatmulSchedule()
        cache.put('sig', 'matmul', sched, device_family='fam')
        # a failed validation is not a transfer hit
        assert cache.get_device_transfer('fam', 'matmul',
                                         validate=lambda s: False) is None
        assert cache.device_transfer_hits == 0
        assert cache.get_device_transfer('fam', 'matmul') == sched
        assert cache.device_transfer_hits == 1
        assert cache.get_device_transfer('other', 'matmul') is None
        assert cache.get_device_transfer('fam', 'reduce') is None

    def test_eviction_relinks_device_family(self):
        cache = ScheduleCache(max_entries=2)
        old = MatmulSchedule(block_k=8)
        cache.put('d-old', 'matmul', old, device_family='dfam')
        cache.put('d-new', 'matmul', MatmulSchedule(block_k=16),
                  device_family='dfam')
        cache.get('d-old', kind='matmul')            # make 'd-new' the LRU
        cache.put('other', 'matmul', MatmulSchedule())   # evicts 'd-new'
        assert cache.get_device_transfer('dfam', 'matmul') == old

    def test_save_load_round_trips_device_family(self, tmp_path):
        path = str(tmp_path / 'cache.json')
        cache = ScheduleCache()
        cache.put('sig', 'matmul', MatmulSchedule(), device_family='dfam')
        cache.save(path)
        loaded = ScheduleCache.load(path)
        assert loaded.get_device_transfer('dfam', 'matmul') is not None


class TestCrossDeviceTransfer:
    @pytest.fixture(scope='class')
    def donor_cache_file(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp('donor') / 'rtx.json')
        donor = ModelRegistry(device=RTX3090, cache_path=path)
        donor.register('cnn', tiny_cnn, buckets=[1, 2])
        return path

    def test_warm_replica_tunes_for_fewer_seconds(self, donor_cache_file):
        cold = ModelRegistry(device=LAPTOP_GPU)
        cold.register('cnn', tiny_cnn, buckets=[1, 2])

        warm = ModelRegistry(device=LAPTOP_GPU,
                             cache=ScheduleCache.load(donor_cache_file),
                             enable_device_transfer=True)
        model = warm.register('cnn', tiny_cnn, buckets=[1, 2])

        traffic = model.cache_traffic()
        # every bucket's GEMM adopts the foreign schedule: one device
        # transfer per miss, no size-family transfers (the adopted record
        # must not claim its candidates were compiled locally)
        assert traffic['device_transfer_hits'] == traffic['misses'] > 0
        assert traffic['transfer_hits'] == 0
        assert 0 < warm.total_compile_seconds < 0.5 * cold.total_compile_seconds
        # the adopted schedules were re-validated against the local device
        for compiled in model.buckets.values():
            for op in compiled.ops:
                if op.kind == 'matmul_template':
                    assert op.schedule.is_valid(LAPTOP_GPU)

    def test_transfer_charges_compile_and_measure_once_each(self,
                                                            donor_cache_file):
        warm = ModelRegistry(device=LAPTOP_GPU,
                             cache=ScheduleCache.load(donor_cache_file),
                             enable_device_transfer=True)
        warm.register('cnn', tiny_cnn, buckets=[1])
        labels = [label for label, _ in warm.clock.events]
        assert labels and all('retarget' in label for label in labels)

    def test_device_transfer_off_by_default(self, donor_cache_file):
        plain = ModelRegistry(device=LAPTOP_GPU,
                              cache=ScheduleCache.load(donor_cache_file))
        model = plain.register('cnn', tiny_cnn, buckets=[1])
        assert model.cache_traffic()['device_transfer_hits'] == 0

    def test_restricted_space_rejects_foreign_record_outside_it(self):
        """Regression: the device-family key cannot carry the (device-
        derived) space fingerprint, so space isolation is enforced at
        adoption time — an executor whose restricted space excludes the
        foreign schedule must fall back to a full tune, not adopt it."""
        def donor_cache():
            cache = ScheduleCache()
            donor = HidetExecutor(RTX3090, cache=cache,
                                  space=[MatmulSchedule()])  # db=True record
            donor.compile(tiny_cnn(1))
            return cache

        restricted = HidetExecutor(
            LAPTOP_GPU, cache=donor_cache(),
            space=matmul_schedule_space(LAPTOP_GPU, double_buffer=False),
            enable_device_transfer=True)
        assert all(not s.double_buffer for s in restricted.space)
        compiled = restricted.compile(tiny_cnn(1))
        assert compiled.compile_report.device_transfer_hits == 0
        assert not compiled.ops[0].schedule.double_buffer

        # a full-space executor over the same donor does adopt the record
        # (fresh cache: the restricted full-tune above would otherwise have
        # replaced the donor record as the family's newest member)
        full = HidetExecutor(LAPTOP_GPU, cache=donor_cache(),
                             enable_device_transfer=True)
        adopted = full.compile(tiny_cnn(1))
        assert adopted.compile_report.device_transfer_hits > 0
        assert adopted.ops[0].schedule == MatmulSchedule()

    def test_same_device_restart_still_exact_hits(self, donor_cache_file):
        """Device transfer must not shadow the exact tier: a same-device
        registry over the same file tunes nothing at all."""
        same = ModelRegistry(device=RTX3090, cache_path=donor_cache_file,
                             enable_device_transfer=True)
        model = same.register('cnn', tiny_cnn, buckets=[1, 2])
        assert same.total_compile_seconds == 0.0
        assert model.cache_traffic()['device_transfer_hits'] == 0

    def test_fleet_warm_from_foreign_cache(self, donor_cache_file):
        fleet = Fleet([RTX3090, LAPTOP_GPU], warm_from=donor_cache_file)
        fleet.register('cnn', tiny_cnn, buckets=[1, 2])
        fleet.build()
        rtx, laptop = fleet.replicas
        assert rtx.compile_seconds == 0.0            # exact hits
        assert laptop.compile_seconds > 0.0          # retargeted, not free
        traffic = laptop.registry['cnn'].cache_traffic()
        assert traffic['device_transfer_hits'] > 0


# ---------------------------------------------------------------------------
# admission control


@pytest.fixture(scope='module')
def cnn_registry():
    registry = ModelRegistry()
    registry.register('cnn', tiny_cnn, max_batch=8)
    return registry


class TestAdmissionControl:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match='max_queue'):
            BatchingPolicy(max_batch=8, max_queue=4)
        assert BatchingPolicy(max_batch=8, max_queue=8).max_queue == 8

    def test_offer_rejects_over_cap_without_enqueueing(self):
        batcher = DynamicBatcher(BatchingPolicy(max_batch=2, max_queue=3),
                                 {'m': (1, 2)})
        assert batcher.offer(Request(0, 'm', 2, 0.0))
        assert batcher.offer(Request(1, 'm', 1, 0.0))
        assert not batcher.offer(Request(2, 'm', 1, 0.0))   # would be 4 > 3
        assert batcher.pending('m') == 3
        with pytest.raises(KeyError, match='not registered'):
            batcher.offer(Request(3, 'nope', 1, 0.0))

    def test_unbounded_policy_never_rejects(self):
        batcher = DynamicBatcher(BatchingPolicy(max_batch=2), {'m': (1, 2)})
        assert all(batcher.offer(Request(i, 'm', 1, 0.0)) for i in range(50))

    def test_oversized_request_raises_even_near_the_cap(self):
        """Regression: malformed input must raise regardless of queue
        depth — it used to be silently counted as an admission rejection
        when the queue happened to be near its cap."""
        batcher = DynamicBatcher(BatchingPolicy(max_batch=4, max_queue=8),
                                 {'m': (1, 2, 4)})
        for i in range(5):
            assert batcher.offer(Request(i, 'm', 1, 0.0))
        with pytest.raises(ValueError, match='max_batch'):
            batcher.offer(Request(9, 'm', 5, 0.0))

    def test_simulator_counts_rejections_and_conserves_requests(self,
                                                                cnn_registry):
        from repro.serve import ServerSimulator
        service1 = cnn_registry['cnn'].latency(1)
        overload = poisson_trace(qps=6.0 / service1, num_requests=1500,
                                 models=['cnn'], seed=7)
        sim = ServerSimulator(cnn_registry,
                              BatchingPolicy(max_batch=8, max_wait=1e-3,
                                             max_queue=32))
        result = sim.run(overload)
        stats = result.stats(cnn_registry)
        assert stats.num_rejected == len(result.rejected) > 0
        assert stats.num_requests + stats.num_rejected == 1500
        assert stats.offered_requests == 1500
        assert 0 < stats.rejection_rate < 1
        # no rejected request ever completed
        done = {c.request.req_id for c in result.completions}
        assert done.isdisjoint({r.req_id for r in result.rejected})

    def test_admission_bounds_the_tail(self, cnn_registry):
        """The point of load shedding: past saturation, a bounded queue's
        p99 stays near the service time while the unbounded queue's p99
        grows with the backlog."""
        from repro.serve import ServerSimulator
        service1 = cnn_registry['cnn'].latency(1)
        overload = poisson_trace(qps=6.0 / service1, num_requests=1500,
                                 models=['cnn'], seed=8)
        unbounded = ServerSimulator(
            cnn_registry, BatchingPolicy(max_batch=8, max_wait=1e-3))
        bounded = ServerSimulator(
            cnn_registry, BatchingPolicy(max_batch=8, max_wait=1e-3,
                                         max_queue=32))
        p99_unbounded = unbounded.run(overload).stats(cnn_registry).latency_p99_ms
        p99_bounded = bounded.run(overload).stats(cnn_registry).latency_p99_ms
        assert p99_bounded < 0.5 * p99_unbounded

    def test_fleet_simulator_applies_admission_control(self, affine_fleet):
        service1 = affine_fleet.replicas[0].registry['cnn'].latency(1)
        overload = poisson_trace(qps=8.0 / service1, num_requests=1200,
                                 models=['cnn', 'mlp'], seed=9)
        sim = FleetSimulator(affine_fleet,
                             BatchingPolicy(max_batch=8, max_wait=1e-3,
                                            max_queue=16))
        result = sim.run(overload)
        stats = result.stats()
        assert stats.num_rejected > 0
        assert stats.num_requests + stats.num_rejected == 1200

    def test_rejection_surfaced_in_report(self, cnn_registry):
        from repro.serve import ServerSimulator, format_serving_report
        service1 = cnn_registry['cnn'].latency(1)
        sim = ServerSimulator(cnn_registry,
                              BatchingPolicy(max_batch=8, max_wait=1e-3,
                                             max_queue=16))
        result = sim.run(poisson_trace(qps=8.0 / service1, num_requests=800,
                                       models=['cnn'], seed=10))
        text = format_serving_report(result.stats(cnn_registry))
        assert 'rejected' in text and '% of offered' in text
