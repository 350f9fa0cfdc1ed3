"""The device-memory layer: footprints, ledgers, capacity-aware placement.

Covers the thread from :mod:`repro.gpusim.device` (DRAM capacity on the
device spec) through :mod:`repro.serve.memory` (footprints measured from
real FlowGraphs, the committed-bytes ledger), capacity-checked placement
(base trimming, first-fit-decreasing packing), the fleet's
register/evict/rehome accounting, memory-pressure autoscaling, and the
declarative spec's memory fields.
"""
import json
from dataclasses import replace

import pytest

from repro.gpusim.device import A100, LAPTOP_GPU, RTX3090, device_family_key
from repro.models import for_batch
from repro.serve import (Fleet, FleetSimulator, MemoryModel,
                         MemoryOverflowError, MemoryPressurePolicy,
                         ModelRegistry, PlacementPolicy, MemoryAwarePolicy,
                         footprint_from_graphs, format_bytes, poisson_trace)
from repro.serve.batcher import BatchingPolicy
from repro.serve.lifecycle import FailureEvent
from repro.serve.memory import graph_tensor_bytes

TINY = dict(layers=1, seq_length=8, vocab_size=100, hidden=16, heads=2)


def tiny_builder(b):
    return for_batch('bert', b, **TINY)


# ---------------------------------------------------------------------------
# device layer


def test_device_specs_carry_dram_capacity():
    assert RTX3090.memory_bytes == 24 * 1024 ** 3
    assert A100.memory_bytes == 40 * 1024 ** 3
    assert LAPTOP_GPU.memory_bytes == 8 * 1024 ** 3


def test_family_key_ignores_dram_capacity():
    # capacity is a residency question, not a launch-compatibility one: a
    # 24 GiB and a 12 GiB part with the same SM limits share schedules
    halved = replace(RTX3090, memory_bytes=12 * 1024 ** 3)
    assert device_family_key(halved) == device_family_key(RTX3090)


# ---------------------------------------------------------------------------
# format_bytes / MemoryModel


def test_format_bytes_units():
    assert format_bytes(512) == '512 B'
    assert format_bytes(2048) == '2.0 KiB'
    assert format_bytes(3 * 1024 ** 2) == '3.0 MiB'
    assert format_bytes(5 * 1024 ** 3) == '5.0 GiB'


def test_memory_model_commit_accumulates_and_release_pops():
    mem = MemoryModel(100, label='r0')
    mem.commit('a', 40)
    mem.commit('a', 10)                     # ladder growth: same key
    mem.commit('b', 30)
    assert mem.reserved('a') == 50
    assert mem.committed_bytes == 80
    assert mem.free_bytes == 20
    assert mem.utilization == pytest.approx(0.8)
    assert mem.release('a') == 50           # whole reservation at once
    assert mem.committed_bytes == 30
    assert mem.release('missing') == 0


def test_memory_model_peak_is_monotone():
    mem = MemoryModel(100)
    mem.commit('a', 70)
    mem.release('a')
    mem.commit('b', 20)
    assert mem.peak_committed_bytes == 70   # survives the release
    assert mem.committed_bytes == 20


def test_memory_model_overflow_is_loud_and_carries_numbers():
    mem = MemoryModel(100, label='r0:RTX3090')
    mem.commit('a', 90)
    with pytest.raises(MemoryOverflowError) as err:
        mem.commit('b', 20)
    exc = err.value
    assert (exc.key, exc.requested) == ('b', 20)
    assert (exc.capacity, exc.committed) == (100, 90)
    assert 'r0:RTX3090' in str(exc)
    # the failed commit left the ledger untouched
    assert mem.committed_bytes == 90 and mem.reserved('b') == 0


def test_memory_model_rejects_bad_values():
    with pytest.raises(ValueError):
        MemoryModel(0)
    mem = MemoryModel(10)
    with pytest.raises(ValueError):
        mem.commit('a', -1)


# ---------------------------------------------------------------------------
# footprints from real graphs


def test_graph_tensor_bytes_splits_weights_and_activations():
    split = graph_tensor_bytes(tiny_builder(1))
    # a transformer has both parameters and intermediates, and the largest
    # single transient is by definition no bigger than all of them
    assert split['weights'] > 0
    assert split['activations'] > 0
    assert 0 < split['workspace'] <= split['activations']


def test_footprint_scales_activations_with_batch():
    graphs = {1: tiny_builder(1), 4: tiny_builder(4)}
    fp = footprint_from_graphs('tiny', graphs)
    # weights are batch-independent; activations grow with the bucket
    assert fp.activation_bytes[4] > fp.activation_bytes[1]
    assert fp.total_bytes == (fp.weights_bytes + fp.workspace_bytes
                              + sum(fp.activation_bytes.values()))
    assert fp.bytes_for([1]) < fp.total_bytes
    assert fp.bucket_bytes(4) == fp.activation_bytes[4]
    assert fp.bucket_bytes(999) == 0


def test_footprint_requires_graphs():
    with pytest.raises(ValueError, match='no graphs'):
        footprint_from_graphs('empty', {})


# ---------------------------------------------------------------------------
# capacity-checked placement


def test_base_partition_without_memory_info_hosts_everywhere():
    hosting = PlacementPolicy().partition(['a', 'b'], 3)
    assert hosting == {'a': (0, 1, 2), 'b': (0, 1, 2)}


def test_base_partition_trims_to_capacity_with_coverage_first():
    # cap 10: both models cannot be everywhere, but each gets a home and
    # the remaining room is spread
    hosting = PlacementPolicy().partition(
        ['a', 'b'], 2, footprints={'a': 6, 'b': 6}, capacities=[10, 10])
    assert hosting['a'] and hosting['b']
    assert set(hosting['a']) | set(hosting['b']) == {0, 1}
    assert set(hosting['a']).isdisjoint(hosting['b'])     # no room to spread


def test_base_partition_abundant_dram_reproduces_host_everywhere():
    hosting = PlacementPolicy().partition(
        ['a', 'b'], 3, footprints={'a': 1, 'b': 1},
        capacities=[100, 100, 100])
    assert hosting == {'a': (0, 1, 2), 'b': (0, 1, 2)}


def test_base_partition_raises_when_a_model_fits_nowhere():
    with pytest.raises(MemoryOverflowError):
        PlacementPolicy().partition(['a'], 2, footprints={'a': 50},
                                    capacities=[10, 10])


def test_memory_aware_partition_packs_first_fit_decreasing():
    policy = MemoryAwarePolicy()
    hosting = policy.partition(
        ['big', 'small', 'tiny'], 3,
        footprints={'big': 8, 'small': 3, 'tiny': 2},
        capacities=[10, 10, 10])
    # FFD: big -> r0, small (no room on r0) -> r1, tiny -> back onto r0
    assert hosting == {'big': (0,), 'small': (1,), 'tiny': (0,)}


def test_memory_aware_partition_degrades_without_memory_info():
    assert MemoryAwarePolicy().partition(['a'], 2) == {'a': (0, 1)}


def test_memory_aware_rehome_prefers_most_free_survivor():
    policy = MemoryAwarePolicy()
    assert policy.rehome('m', [0, 1, 2], (3,),
                         free_bytes={0: 5, 1: 9, 2: 9}, need_bytes=4) == 1
    assert policy.rehome('m', [0, 1], (2,),
                         free_bytes={0: 1, 1: 1}, need_bytes=4) is None


def test_memory_aware_join_takes_thinnest_fitting_models():
    policy = MemoryAwarePolicy()
    chosen = policy.models_for_join(
        ['a', 'b', 'c'], 3, {'a': 2, 'b': 1, 'c': 1},
        footprints={'a': 4, 'b': 6, 'c': 3}, capacity=8)
    # b and c are thinnest-hosted; b takes 6 of the 8 bytes, after which
    # neither c (3) nor a (4) fits the remaining 2
    assert chosen == ['b']
    assert policy.models_for_join(['a', 'b'], 2, {'a': 1, 'b': 1}) == ['a', 'b']


# ---------------------------------------------------------------------------
# registry + fleet accounting


def test_registry_commits_measured_footprint_and_evicts():
    mem = MemoryModel(64 * 1024 ** 2, label='test')
    registry = ModelRegistry(memory=mem)
    registry.register('tiny', builder=tiny_builder, buckets=(1,))
    reserved = mem.reserved('tiny')
    assert reserved > 0
    paid = registry.total_compile_seconds
    assert paid > 0
    freed = registry.evict('tiny')
    assert freed == reserved
    assert mem.committed_bytes == 0
    assert 'tiny' not in registry
    # the tuning bill is a monotone cold-start cost, not a residency census
    assert registry.total_compile_seconds == paid


def test_registry_add_bucket_checks_capacity_before_compiling():
    registry = ModelRegistry(memory=MemoryModel(64 * 1024 ** 2))
    model = registry.register('tiny', builder=tiny_builder, buckets=(1,))
    base = registry.memory.committed_bytes
    registry.add_bucket('tiny', 2)
    assert registry.memory.committed_bytes > base     # incremental commit
    assert 2 in model.bucket_sizes or 2 in registry['tiny'].bucket_sizes


def test_registry_register_overflows_loudly():
    # a capacity a few KiB wide cannot hold even the tiny transformer
    registry = ModelRegistry(memory=MemoryModel(4096))
    with pytest.raises(MemoryOverflowError):
        registry.register('tiny', builder=tiny_builder, buckets=(1,))
    assert 'tiny' not in registry
    assert registry.memory.committed_bytes == 0


def _tight_fleet():
    """Three 10-byte replicas, three declared-footprint models, FFD-packed:
    big(8)+tiny(2) on r0, small(3) on r1, r2 empty."""
    fleet = Fleet(devices=[replace(RTX3090, memory_bytes=10)] * 3,
                  placement=MemoryAwarePolicy())
    fleet.register('big', builder=tiny_builder, buckets=(1,), memory_bytes=8)
    fleet.register('small', builder=tiny_builder, buckets=(1,), memory_bytes=3)
    fleet.register('tiny', builder=tiny_builder, buckets=(1,), memory_bytes=2)
    return fleet


def test_fleet_build_packs_and_accounts_declared_bytes():
    fleet = _tight_fleet().build()
    assert fleet.hosting == {'big': (0,), 'small': (1,), 'tiny': (0,)}
    assert fleet.replicas[0].memory.committed_bytes == 10
    assert fleet.replicas[1].memory.committed_bytes == 3
    assert fleet.replicas[2].memory.committed_bytes == 0
    assert fleet.model_footprints() == {'big': 8, 'small': 3, 'tiny': 2}


def test_fleet_evict_model_frees_bytes_and_unroutes():
    fleet = _tight_fleet().build()
    freed = fleet.evict_model(0, 'tiny')
    assert freed == 2
    assert fleet.hosting['tiny'] == ()
    assert fleet.replicas[0].memory.committed_bytes == 8
    with pytest.raises(KeyError):
        fleet.evict_model(0, 'tiny')


def test_fleet_rejects_model_that_fits_no_replica():
    fleet = Fleet(devices=[replace(RTX3090, memory_bytes=10)],
                  placement=MemoryAwarePolicy())
    fleet.register('huge', builder=tiny_builder, buckets=(1,),
                   memory_bytes=11)
    with pytest.raises(MemoryOverflowError):
        fleet.build()


def test_failover_evicts_redundant_idle_model_to_fit_orphan():
    """The eviction pressure valve: a dead replica's big model fits no
    survivor until a redundantly-hosted idle model is evicted."""
    fleet = _tight_fleet().build()
    # host 'small' and 'tiny' redundantly on the spare replica: after r0
    # dies, the orphaned 'big' (8 bytes) fits neither r1 (free 7) nor r2
    # (free 5) until a redundant idle model is evicted
    fleet.host_model(2, 'small')
    fleet.host_model(2, 'tiny')
    trace = poisson_trace(qps=500.0, num_requests=60,
                          models=['big', 'small', 'tiny'], seed=0)
    kill_at = trace[len(trace) // 2].arrival
    sim = FleetSimulator(fleet, BatchingPolicy(max_batch=1, max_wait=1e-4),
                         failures=[FailureEvent(time=kill_at, replica=0)])
    result = sim.run(trace)
    kinds = [e.kind for e in result.events]
    assert 'kill' in kinds and 'rehome' in kinds and 'evict' in kinds
    rehomed = [e for e in result.events if e.kind == 'rehome']
    assert any(e.detail == 'big' for e in rehomed)
    for replica in fleet.replicas:
        assert (replica.memory.peak_committed_bytes
                <= replica.memory.capacity_bytes)
    # conservation: nothing vanished in the shuffle
    assert len(trace) == (len(result.completions) + len(result.rejected)
                          + len(result.lost))


def test_scale_down_absorb_guard():
    """A victim whose queued samples exceed the survivors' admission
    headroom is skipped by the autoscaler's victim picker."""
    from repro.serve.trace import Request

    fleet = Fleet(devices=[RTX3090] * 2)    # host-everywhere round-robin
    fleet.register('tiny', builder=tiny_builder, buckets=(1,))
    sim = FleetSimulator(fleet, BatchingPolicy(max_batch=1, max_wait=1e-4,
                                               max_queue=2))
    sim.run(poisson_trace(qps=100.0, num_requests=4, models=['tiny'], seed=0))
    # stuff the victim's queue past what the survivor can absorb
    for i in range(2):
        assert sim._batchers[1].offer(
            Request(req_id=100 + i, model='tiny', size=1, arrival=0.0))
    assert sim._batchers[0].offer(
        Request(req_id=200, model='tiny', size=1, arrival=0.0))
    # survivor r0 has headroom 2 - 1 = 1 < 2 pending on the victim
    assert not sim._can_absorb(1, set())
    assert sim._retire_victims(1) == []
    # drain the victim's queue and the guard opens again
    sim._batchers[1].drain()
    assert sim._can_absorb(1, set())
    assert sim._retire_victims(1) == [1]


def test_memory_pressure_policy_scales_on_utilization():
    class View:
        def __init__(self, utils):
            self.utils = utils

        def serving_replicas(self):
            return list(range(len(self.utils)))

        def memory_utilization(self, r):
            return self.utils[r]

    policy = MemoryPressurePolicy(scale_up_utilization=0.8,
                                  scale_down_utilization=0.3)
    assert policy.desired_replicas(View([0.9, 0.9]), 0.0, 2) == 3
    assert policy.desired_replicas(View([0.5, 0.5]), 0.0, 2) == 2
    assert policy.desired_replicas(View([0.1, 0.1]), 0.0, 2) == 1
    assert policy.desired_replicas(View([]), 0.0, 2) == 2
    with pytest.raises(ValueError):
        MemoryPressurePolicy(scale_up_utilization=0.2,
                             scale_down_utilization=0.5)


def test_memory_pressure_policy_is_registered():
    from repro.serve import available_autoscale_policies, make_autoscale_policy
    assert 'memory_pressure' in available_autoscale_policies()
    assert isinstance(make_autoscale_policy('memory_pressure'),
                      MemoryPressurePolicy)


# ---------------------------------------------------------------------------
# declarative spec: memory fields


def _memory_spec():
    from repro.serve import (BatchingSpec, DeploymentSpec, ModelSpec,
                             PlacementSpec, ReplicaGroupSpec)
    return DeploymentSpec(
        models=(ModelSpec(name='bert', max_batch=2, buckets=(1, 2),
                          config=dict(TINY), memory_bytes=4 * 1024 ** 2),),
        replicas=(ReplicaGroupSpec(device='RTX3090', count=2,
                                   memory_bytes=16 * 1024 ** 2),),
        batching=BatchingSpec(max_batch=2),
        placement=PlacementSpec(policy='memory_aware'))


def test_spec_memory_fields_round_trip_byte_identical():
    from repro.serve import DeploymentSpec
    spec = _memory_spec()
    text = spec.to_json()
    again = DeploymentSpec.from_json(text)
    assert again == spec
    assert again.to_json() == text
    payload = json.loads(text)
    assert payload['models'][0]['memory_bytes'] == 4 * 1024 ** 2
    assert payload['replicas'][0]['memory_bytes'] == 16 * 1024 ** 2


def test_spec_rejects_model_bigger_than_any_group():
    from repro.serve import SpecValidationError
    spec = _memory_spec()
    over = replace(spec, models=(replace(spec.models[0],
                                         memory_bytes=17 * 1024 ** 2),))
    with pytest.raises(SpecValidationError) as err:
        over.validate()
    assert err.value.field == 'models[0].memory_bytes'
    assert str(err.value) == (
        "models[0].memory_bytes: 17825792 bytes exceeds the largest replica "
        "capacity (16777216 bytes) — model 'bert' fits no replica group")


def test_spec_rejects_overcommitted_fleet_total():
    from repro.serve import ModelSpec, SpecValidationError
    spec = _memory_spec()
    # three 12 MiB models on two 16 MiB replicas: each fits *some* group,
    # but the fleet's 32 MiB cannot hold the declared 36 MiB total
    crowd = tuple(ModelSpec(name=f'm{i}', max_batch=2, buckets=(1, 2),
                            memory_bytes=12 * 1024 ** 2) for i in range(3))
    over = replace(spec, models=crowd)
    with pytest.raises(SpecValidationError) as err:
        over.validate()
    assert err.value.field == 'replicas'
    assert str(err.value) == (
        'replicas: declared model reservations total 37748736 bytes but the '
        'replica groups provide 33554432 bytes of DRAM — the assigned '
        'models cannot fit')


def test_spec_rejects_nonpositive_memory_bytes():
    from repro.serve import SpecValidationError
    spec = _memory_spec()
    bad_model = replace(spec, models=(replace(spec.models[0],
                                              memory_bytes=0),))
    with pytest.raises(SpecValidationError) as err:
        bad_model.validate()
    assert err.value.field == 'models[0].memory_bytes'
    assert str(err.value) == ('models[0].memory_bytes: must be >= 1 when '
                              'given, got 0')
    bad_group = replace(spec, replicas=(replace(spec.replicas[0],
                                                memory_bytes=0),))
    with pytest.raises(SpecValidationError) as err:
        bad_group.validate()
    assert err.value.field == 'replicas[0].memory_bytes'
    assert str(err.value) == ('replicas[0].memory_bytes: must be >= 1 when '
                              'given, got 0')


def test_deployment_threads_group_memory_override_to_replicas():
    from repro.serve import Deployment
    deployment = Deployment(_memory_spec()).build()
    for replica in deployment.fleet.replicas:
        assert replica.memory.capacity_bytes == 16 * 1024 ** 2
        assert replica.device.name == 'RTX3090'
    # the registered device itself is untouched
    assert RTX3090.memory_bytes == 24 * 1024 ** 3


def test_serve_stats_report_memory_fraction():
    from repro.serve import Deployment, format_serving_report
    deployment = Deployment(_memory_spec())
    trace = poisson_trace(qps=200.0, num_requests=40, models=['bert'], seed=0)
    stats = deployment.run(trace).stats()
    assert stats.peak_memory_bytes                     # per-replica labels
    assert 0.0 < stats.peak_memory_utilization <= 1.0
    assert 'DRAM committed' in format_serving_report(stats)
