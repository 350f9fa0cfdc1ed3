"""The declarative deployment API: spec round-trips, validation, façade.

Three contracts are pinned here:

* **round-trip fidelity** — ``DeploymentSpec.from_json(spec.to_json()) ==
  spec`` for a spec exercising every node type, and a :class:`Deployment`
  built from the round-tripped spec reproduces the byte-identical
  ``format_fleet_report`` on a seeded trace (a deployment *is* its spec);
* **actionable validation** — every rejection is a
  :class:`SpecValidationError` whose ``field`` names the offending field;
* **pluggability** — placement/autoscale policies and devices are
  string-keyed registries third parties extend without touching core.
"""
import dataclasses
import os

import pytest

from repro.gpusim.device import DeviceSpec, LAPTOP_GPU, RTX3090
from repro.serve import (AutoscaleSpec, BatchingPolicy, BatchingSpec,
                         CacheSpec, DecodeSpec, Deployment, DeploymentSpec,
                         FailureSpec,
                         FleetSimulator, ModelSpec, PlacementPolicy,
                         PlacementSpec, ReplicaGroupSpec, ServerSimulator,
                         SpecValidationError, format_fleet_report,
                         poisson_trace, register_autoscale_policy,
                         register_device, register_placement)
from repro.serve.deployment import main as deployment_main
from repro.serve.lifecycle import AutoscalePolicy, FailureEvent

TINY_BERT = {'layers': 1, 'seq_length': 16, 'vocab_size': 500,
             'hidden': 32, 'heads': 2}
TINY_GPT2 = {'layers': 1, 'seq_length': 16, 'vocab_size': 500,
             'hidden': 48, 'heads': 4}


def tiny_spec(**overrides) -> DeploymentSpec:
    """A fast two-model, two-replica spec; kwargs override spec fields."""
    base = dict(
        models=(ModelSpec('bert', max_batch=2, buckets=(1, 2),
                          config=TINY_BERT),
                ModelSpec('gpt2', max_batch=2, buckets=(1, 2),
                          config=TINY_GPT2)),
        replicas=(ReplicaGroupSpec('RTX3090', count=2),),
        batching=BatchingSpec(max_batch=2, max_wait=1e-3, max_queue=64),
        placement=PlacementSpec('model_affine'),
    )
    base.update(overrides)
    return DeploymentSpec(**base)


#: the one-mode failure rejection, shared by three parametrize cases
BOTH_MODES = ('give either explicit events or a seeded schedule '
              '(num_failures/num_replicas/span/seed/mttr), not both — the '
              'seeded fields are ignored when events are explicit')


def full_spec() -> DeploymentSpec:
    """A spec populating every node type (autoscale, failures, cache)."""
    return tiny_spec(
        autoscale=AutoscaleSpec(
            policy='scheduled_diurnal',
            options={'schedule': [[0.0, 2], [0.05, 3]]},
            min_replicas=1, max_replicas=4, interval=0.01, cooldown=0.0,
            scale_increment=2, provision_delay=0.001, device='LaptopGPU'),
        failures=FailureSpec(
            events=(FailureEvent(time=0.02, replica=0, revive_at=0.04),)),
        cache=CacheSpec(warm_from='w.json', save_to='s.json', max_entries=32,
                        enable_transfer=True, enable_device_transfer=True))


class TestRoundTrip:
    def test_full_spec_round_trips_through_json(self):
        spec = full_spec()
        restored = DeploymentSpec.from_json(spec.to_json())
        assert restored == spec
        assert spec.diff(restored) == {}

    def test_seeded_failures_and_defaults_round_trip(self):
        spec = tiny_spec(failures=FailureSpec(num_failures=3, num_replicas=2,
                                              span=0.5, seed=9, mttr=0.1))
        assert DeploymentSpec.from_json(spec.to_json()) == spec
        minimal = DeploymentSpec(models=(ModelSpec('bert'),))
        assert DeploymentSpec.from_json(minimal.to_json()) == minimal

    def test_tuple_and_list_specs_are_one_canonical_value(self):
        """JSON hands back lists; a spec built with tuples must compare
        equal to its round-trip, so sequence-valued options canonicalize."""
        a = tiny_spec(autoscale=AutoscaleSpec(
            policy='scheduled_diurnal', max_replicas=4,
            options={'schedule': ((0.0, 1), (0.1, 2))}))
        b = tiny_spec(autoscale=AutoscaleSpec(
            policy='scheduled_diurnal', max_replicas=4,
            options={'schedule': [[0.0, 1], [0.1, 2]]}))
        assert a == b
        assert DeploymentSpec.from_json(a.to_json()) == a

    def test_failure_event_mappings_are_coerced(self):
        spec = FailureSpec(events=({'time': 0.1, 'replica': 1},))
        assert spec.events == (FailureEvent(time=0.1, replica=1),)

    def test_decode_node_round_trips_and_coerces_mappings(self):
        decode = DecodeSpec(kv_bytes_per_token=73728, max_tokens=64,
                            max_width=4, admission='unbounded',
                            kv_capacity_bytes=16 << 20, seq_length=32)
        spec = tiny_spec(models=(
            ModelSpec('bert', max_batch=2, buckets=(1, 2), config=TINY_BERT),
            ModelSpec('gpt2', max_batch=2, buckets=(1, 2), config=TINY_GPT2,
                      decode=decode)))
        restored = DeploymentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.models[1].decode == decode
        assert spec.validate() is spec
        # JSON hands the node back as a mapping; ModelSpec coerces it
        as_mapping = ModelSpec('gpt2', max_batch=2, buckets=(1, 2),
                               decode={'kv_bytes_per_token': 64})
        assert as_mapping.decode == DecodeSpec(kv_bytes_per_token=64)
        # an unknown decode key names the field instead of leaking TypeError
        with pytest.raises(SpecValidationError, match='decode'):
            ModelSpec('gpt2', decode={'kv_bytes_per_tok': 64})

    def test_round_tripped_spec_reproduces_identical_fleet_result(self):
        """The acceptance claim: spec → JSON → spec → run is byte-identical
        to running the original spec on the same seeded trace."""
        trace = poisson_trace(qps=4000, num_requests=200,
                              models=['bert', 'gpt2'], seed=3)
        original = Deployment(tiny_spec())
        restored = Deployment.from_json(original.to_json())
        report_a = format_fleet_report(original.run(trace), 'ab')
        report_b = format_fleet_report(restored.run(trace), 'ab')
        assert report_a == report_b
        assert 'per replica' in report_a

    def test_from_dict_rejects_unknown_and_versioned_input(self):
        good = tiny_spec().to_dict()
        with pytest.raises(SpecValidationError, match='bogus'):
            DeploymentSpec.from_dict({**good, 'bogus': 1})
        with pytest.raises(SpecValidationError, match=r'models\[0\]'):
            DeploymentSpec.from_dict({**good, 'models': [None]})
        with pytest.raises(SpecValidationError, match=r'replicas\[1\]'):
            DeploymentSpec.from_dict(
                {**good, 'replicas': [{'device': 'RTX3090'}, None]})
        with pytest.raises(SpecValidationError) as excinfo:
            DeploymentSpec.from_dict(
                {**good, 'failures': {'events': [None]}})
        # the nested error's precise field survives the outer _node wrap
        assert excinfo.value.field == 'failures.events[0]'

    def test_from_dict_rejects_explicit_null_for_required_nodes(self):
        """'\"placement\": null' is a templating bug, not a request for
        defaults — only autoscale/failures are legitimately null."""
        good = tiny_spec().to_dict()
        for key in ('models', 'replicas', 'batching', 'placement', 'cache'):
            with pytest.raises(SpecValidationError) as excinfo:
                DeploymentSpec.from_dict({**good, key: None})
            assert excinfo.value.field == key
        spec = DeploymentSpec.from_dict(
            {**good, 'autoscale': None, 'failures': None})
        assert spec.autoscale is None and spec.failures is None
        with pytest.raises(SpecValidationError, match='version'):
            DeploymentSpec.from_dict({**good, 'version': 99})
        for sneaky in (True, 1.0, '1'):     # bool/float/str never pass as 1
            with pytest.raises(SpecValidationError, match='version'):
                DeploymentSpec.from_dict({**good, 'version': sneaky})
        with pytest.raises(SpecValidationError, match='batching.nope'):
            DeploymentSpec.from_dict(
                {**good, 'batching': {'max_batch': 2, 'nope': 1}})
        with pytest.raises(SpecValidationError, match='spec'):
            DeploymentSpec.from_json('not json at all')

    def test_diff_names_the_changed_knob(self):
        base = tiny_spec()
        candidate = dataclasses.replace(
            base, batching=BatchingSpec(max_batch=2, max_wait=5e-4,
                                        max_queue=64))
        assert base.diff(candidate) == {'batching.max_wait': (1e-3, 5e-4)}
        grown = dataclasses.replace(
            base, replicas=(ReplicaGroupSpec('RTX3090', count=3),))
        assert base.diff(grown) == {'replicas[0].count': (2, 3)}


#: (overrides, rejected field, exact message after the ``field: `` prefix);
#: ``{devices}``/``{placements}``/``{autoscalers}`` stand for the registry
#: listings, which other tests extend
VALIDATION_CASES = [
    (dict(models=()), 'models', 'at least one ModelSpec is required'),
    (dict(models=(ModelSpec('bert', max_batch=2, buckets=(1, 2)),
                  ModelSpec('bert', max_batch=2, buckets=(1, 2)))),
     'models[1].name', "duplicate model 'bert'"),
    (dict(models=(ModelSpec('bert', max_batch=0),)),
     'models[0].max_batch', 'must be >= 1, got 0'),
    (dict(models=(ModelSpec('bert', max_batch=2, buckets=(0, 2)),)),
     'models[0].buckets', 'buckets must be >= 1, got [0]'),
    (dict(models=(ModelSpec('bert', max_batch=2, buckets=(1,)),)),
     'batching.max_batch',
     "2 exceeds the largest compiled bucket (1) of model 'bert' — grow "
     "models[0].buckets or lower batching.max_batch"),
    (dict(batching=BatchingSpec(max_batch=2, max_queue=1)), 'batching',
     'max_queue=1 must be at least max_batch=2, or a full batch could '
     'never accumulate'),
    (dict(replicas=()), 'replicas',
     'at least one ReplicaGroupSpec is required'),
    (dict(replicas=(ReplicaGroupSpec('RTX3090', count=0),)),
     'replicas[0].count', 'must be >= 1, got 0'),
    (dict(replicas=(ReplicaGroupSpec('TPUv9'),)), 'replicas[0].device',
     "unknown device 'TPUv9' (registered: {devices}; register_device() "
     "adds more)"),
    (dict(placement=PlacementSpec('warmest_gpu')), 'placement.policy',
     "unknown placement policy 'warmest_gpu' (registered: {placements}; "
     "register_placement() adds more)"),
    (dict(placement=PlacementSpec('model_affine', {'no_such_knob': 1})),
     'placement.options',
     "ModelAffinePlacement.__init__() got an unexpected keyword argument "
     "'no_such_knob'"),
    (dict(autoscale=AutoscaleSpec(policy='vibes', max_replicas=4)),
     'autoscale.policy',
     "unknown autoscale policy 'vibes' (registered: {autoscalers}; "
     "register_autoscale_policy() adds more)"),
    (dict(autoscale=AutoscaleSpec(policy='queue_depth', max_replicas=4,
                                  options={'no_such_knob': 1})),
     'autoscale.options',
     "QueueDepthPolicy.__init__() got an unexpected keyword argument "
     "'no_such_knob'"),
    (dict(autoscale=AutoscaleSpec(max_replicas=4, cooldown=-1.0)),
     'autoscale', 'cooldown and provision_delay must be >= 0'),
    (dict(autoscale=AutoscaleSpec(min_replicas=3, max_replicas=4)),
     'autoscale.min_replicas',
     '3 exceeds the 2 replica(s) the replica groups provide — the fleet '
     'would start below its own floor'),
    (dict(autoscale=AutoscaleSpec(max_replicas=1)),
     'autoscale.max_replicas',
     '1 is below the 2 replica(s) the replica groups provide — the fleet '
     'would start above its own ceiling'),
    (dict(autoscale=AutoscaleSpec(max_replicas=4, device='TPUv9')),
     'autoscale.device',
     "unknown device 'TPUv9' (registered: {devices}; register_device() "
     "adds more)"),
    (dict(failures=FailureSpec(events=(FailureEvent(0.1, 0),),
                               num_failures=1)), 'failures', BOTH_MODES),
    (dict(failures=FailureSpec(events=(FailureEvent(0.1, 0),),
                               mttr=0.25)), 'failures', BOTH_MODES),
    (dict(failures=FailureSpec(events=(FailureEvent(0.1, 0),),
                               seed=7)), 'failures', BOTH_MODES),
    (dict(failures=FailureSpec(num_failures=1, span=0.5)),
     'failures.num_replicas',
     'a seeded schedule needs num_replicas >= 1, got None'),
    (dict(failures=FailureSpec(num_failures=1, num_replicas=2)),
     'failures.span', 'a seeded schedule needs span > 0, got None'),
    (dict(failures=FailureSpec(num_failures=1, num_replicas=2, span=0.5,
                               mttr=0.0)),
     'failures.mttr', 'must be > 0 when given, got 0.0'),
    (dict(cache=CacheSpec(max_entries=0)), 'cache.max_entries',
     'must be >= 1 when given, got 0'),
    # wrong-typed JSON scalars must name the field, not leak TypeError
    (dict(models=(ModelSpec('bert', max_batch='8'),)),
     'models[0].max_batch', "must be of type int, got '8'"),
    (dict(replicas=(ReplicaGroupSpec('RTX3090', count='2'),)),
     'replicas[0].count', "must be of type int, got '2'"),
    (dict(batching=BatchingSpec(max_batch=2, max_wait='soon')),
     'batching.max_wait', "must be of type int/float, got 'soon'"),
    # the batching node is vetted before the ladder comparison loop
    (dict(batching=BatchingSpec(max_batch='8')), 'batching.max_batch',
     "must be of type int, got '8'"),
    # bool subclasses int and must not pass where an int is required
    (dict(replicas=(ReplicaGroupSpec('RTX3090', count=True),)),
     'replicas[0].count', 'must be of type int, got True'),
    (dict(batching=BatchingSpec(max_batch=True)), 'batching.max_batch',
     'must be of type int, got True'),
    (dict(autoscale=AutoscaleSpec(max_replicas=4, interval='0.05')),
     'autoscale.interval', "must be of type int/float, got '0.05'"),
    (dict(cache=CacheSpec(warm_from=3)), 'cache.warm_from',
     'must be of type str/NoneType, got 3'),
    # the decode node: every rejection names its dotted field path
    (dict(models=(ModelSpec('gpt2', max_batch=2, buckets=(1, 2),
                            decode=DecodeSpec(kv_bytes_per_token=0)),)),
     'models[0].decode.kv_bytes_per_token', 'must be >= 1, got 0'),
    (dict(models=(ModelSpec('gpt2', max_batch=2, buckets=(1, 2),
                            decode=DecodeSpec(kv_bytes_per_token=64,
                                              max_tokens=0)),)),
     'models[0].decode.max_tokens', 'must be >= 1, got 0'),
    (dict(models=(ModelSpec('gpt2', max_batch=2, buckets=(1, 2),
                            decode=DecodeSpec(kv_bytes_per_token=64,
                                              admission='hopeful')),)),
     'models[0].decode.admission',
     "unknown admission policy 'hopeful' (one of ['reserve', 'unbounded'])"),
    (dict(models=(ModelSpec('gpt2', max_batch=2, buckets=(1, 2),
                            decode=DecodeSpec(
                                kv_bytes_per_token=64, max_tokens=16,
                                kv_capacity_bytes=512)),)),
     'models[0].decode.kv_capacity_bytes',
     '512 bytes cannot hold even one max-length generation (16 tokens x '
     '64 bytes/token = 1024 bytes) — every decode request would be '
     'rejected'),
    # wrong-typed JSON scalars in the decode node name the field too
    (dict(models=(ModelSpec('gpt2', max_batch=2, buckets=(1, 2),
                            decode=DecodeSpec(kv_bytes_per_token='64')),)),
     'models[0].decode.kv_bytes_per_token', "must be of type int, got '64'"),
    (dict(models=(ModelSpec('gpt2', max_batch=2, buckets=(1, 2),
                            decode=DecodeSpec(kv_bytes_per_token=64,
                                              max_width=True)),)),
     'models[0].decode.max_width', 'must be of type int, got True'),
    # every other message shape: empty names and ladders, whole nodes of
    # the wrong type, optional and bool scalars, the remaining bounds
    (dict(models=(ModelSpec('', max_batch=2, buckets=(1, 2)),)),
     'models[0].name', 'must be a non-empty string'),
    (dict(models=(ModelSpec('bert', max_batch=2, buckets=()),)),
     'models[0].buckets', 'must be non-empty when given'),
    (dict(batching='fast'), 'batching', "must be a BatchingSpec, got 'fast'"),
    (dict(placement=None), 'placement', 'must be a PlacementSpec, got None'),
    (dict(autoscale='on'), 'autoscale', "must be an AutoscaleSpec, got 'on'"),
    (dict(cache='none'), 'cache', "must be a CacheSpec, got 'none'"),
    (dict(placement=PlacementSpec('model_affine', options=[1])),
     'placement.options', 'must be of type dict, got [1]'),
    (dict(models=(ModelSpec('bert', max_batch=2, buckets=(1, 2),
                            config=[1]),)),
     'models[0].config', 'must be of type dict, got [1]'),
    (dict(models=(ModelSpec('bert', max_batch=2, buckets=(1, 2),
                            memory_bytes='1'),)),
     'models[0].memory_bytes', "must be of type int/NoneType, got '1'"),
    (dict(failures=FailureSpec(num_failures=1, num_replicas=2, span='0.5')),
     'failures.span', "must be of type int/float/NoneType, got '0.5'"),
    (dict(failures=FailureSpec(num_failures=-1, num_replicas=2, span=0.5)),
     'failures.num_failures', 'must be >= 0, got -1'),
    # ...and an int must not pass where a bool is required
    (dict(cache=CacheSpec(enable_transfer=1)), 'cache.enable_transfer',
     'must be of type bool, got 1'),
    (dict(cache=CacheSpec(enable_device_transfer=1)),
     'cache.enable_device_transfer', 'must be of type bool/NoneType, got 1'),
    (dict(models=(ModelSpec('gpt2', max_batch=2, buckets=(1, 2),
                            decode=DecodeSpec(kv_bytes_per_token=64,
                                              seq_length=0)),)),
     'models[0].decode.seq_length', 'must be >= 1, got 0'),
    (dict(models=(ModelSpec('gpt2', max_batch=2, buckets=(1, 2),
                            decode=DecodeSpec(kv_bytes_per_token=64,
                                              kv_capacity_bytes=0)),)),
     'models[0].decode.kv_capacity_bytes', 'must be >= 1 when given, got 0'),
]


class TestValidation:
    @pytest.mark.parametrize('overrides,field,message', [
        pytest.param(*case, id=f'overrides{i}-{case[1]}')
        for i, case in enumerate(VALIDATION_CASES)])
    def test_each_error_path_names_the_offending_field(self, overrides, field,
                                                       message):
        from repro.serve import (available_autoscale_policies,
                                 available_devices, available_placements)
        with pytest.raises(SpecValidationError) as excinfo:
            tiny_spec(**overrides).validate()
        assert excinfo.value.field == field
        assert str(excinfo.value) == field + ': ' + message.format(
            devices=available_devices(), placements=available_placements(),
            autoscalers=available_autoscale_policies())

    def test_non_spec_elements_are_rejected_with_field_paths(self):
        with pytest.raises(SpecValidationError) as excinfo:
            tiny_spec(models=(ModelSpec('bert', max_batch=2, buckets=(1, 2)),
                              None)).validate()
        assert excinfo.value.field == 'models[1]'
        assert str(excinfo.value) == 'models[1]: must be a ModelSpec, got None'
        with pytest.raises(SpecValidationError) as excinfo:
            tiny_spec(replicas=('RTX3090',)).validate()
        assert excinfo.value.field == 'replicas[0]'
        assert str(excinfo.value) == (
            "replicas[0]: must be a ReplicaGroupSpec, got 'RTX3090'")

    def test_deployment_validates_at_construction(self):
        with pytest.raises(SpecValidationError, match='placement.policy'):
            Deployment(tiny_spec(placement=PlacementSpec('warmest_gpu')))

    def test_builders_for_unknown_models_are_rejected(self):
        with pytest.raises(SpecValidationError, match='builders'):
            Deployment(tiny_spec(), builders={'resnet51': lambda b: None})

    def test_non_zoo_model_without_builder_fails_fast(self):
        """A misspelled zoo name must surface at construction as a
        field-named error, not as a KeyError mid-compile."""
        spec = tiny_spec(models=(ModelSpec('resnet51', max_batch=2,
                                           buckets=(1, 2)),))
        with pytest.raises(SpecValidationError) as excinfo:
            Deployment(spec)
        assert excinfo.value.field == 'models[0].name'
        # the same name with a builder is fine — that is the escape hatch
        Deployment(spec, builders={'resnet51': lambda b: None})

    def test_buckets_reject_strings_and_floats(self):
        """int() coercion would parse \"12\" into the ladder (1, 2) and
        truncate floats; both must be loud errors instead."""
        with pytest.raises(ValueError, match='sequence of ints'):
            ModelSpec('bert', buckets='12')
        with pytest.raises(ValueError, match='must be ints'):
            ModelSpec('bert', buckets=(2.5,))
        good = tiny_spec().to_dict()
        good['models'][0]['buckets'] = '12'
        with pytest.raises(SpecValidationError, match=r'models\[0\]'):
            DeploymentSpec.from_dict(good)

    def test_valid_spec_validates_and_chains(self):
        spec = full_spec()
        assert spec.validate() is spec


class TestRegistries:
    def test_custom_placement_plugs_in_by_name(self):
        class FirstHostPlacement(PlacementPolicy):
            name = 'first_host'

            def choose(self, request, hosts, fleet, now):
                return hosts[0]

        register_placement('first_host', FirstHostPlacement)
        register_placement('first_host', FirstHostPlacement)   # idempotent
        spec = tiny_spec(placement=PlacementSpec('first_host'))
        deployment = Deployment(spec).build()
        assert type(deployment.fleet.placement) is FirstHostPlacement
        with pytest.raises(ValueError, match='already registered'):
            register_placement('first_host', PlacementPolicy)

    def test_custom_autoscale_policy_plugs_in_by_name(self):
        class HoldSteady(AutoscalePolicy):
            name = 'hold_steady'

            def desired_replicas(self, view, now, active):
                return active

        register_autoscale_policy('hold_steady', HoldSteady)
        spec = tiny_spec(autoscale=AutoscaleSpec(policy='hold_steady',
                                                 max_replicas=4))
        assert spec.validate() is spec
        with pytest.raises(ValueError, match='already registered'):
            register_autoscale_policy('hold_steady', AutoscalePolicy)

    def test_device_registry_guards_against_rebinding(self):
        custom = DeviceSpec(name='TestPart', num_sms=4)
        register_device(custom)
        register_device(custom)                                # idempotent
        tiny_spec(replicas=(ReplicaGroupSpec('TestPart'),)).validate()
        with pytest.raises(ValueError, match='already registered'):
            register_device(DeviceSpec(name='TestPart', num_sms=8))

    def test_experiments_accept_parameter_tweaked_stock_devices(self):
        """A DeviceSpec that reuses a stock name with different parameters
        (the natural way to sweep hardware knobs) must get a derived
        registry name instead of colliding with the registered original."""
        from repro.experiments.fleet import _device_name, run_device_transfer
        tweaked = dataclasses.replace(LAPTOP_GPU, num_sms=96)
        name = _device_name(tweaked)
        assert name != LAPTOP_GPU.name
        assert _device_name(tweaked) == name               # stable
        assert _device_name(LAPTOP_GPU) == LAPTOP_GPU.name  # original intact
        report = run_device_transfer(model='bert', buckets=(1, 2),
                                     target=tweaked, smoke=True)
        assert report.target_device == name
        assert report.device_transfer_hits > 0


class TestDeploymentFacade:
    def test_cache_save_to_makes_the_next_deployment_free(self, tmp_path):
        path = str(tmp_path / 'schedules.json')
        spec = tiny_spec(cache=CacheSpec(save_to=path))
        donor = Deployment(spec).build()
        assert os.path.exists(path)
        assert donor.fleet.total_compile_seconds > 0
        warm = Deployment(
            tiny_spec(cache=CacheSpec(warm_from=path))).build()
        assert warm.fleet.total_compile_seconds == 0.0

    def test_lifecycle_specs_rebuild_per_run_and_replay_identically(self):
        spec = tiny_spec(
            replicas=(ReplicaGroupSpec('RTX3090', count=2),),
            failures=FailureSpec(
                events=(FailureEvent(time=0.01, replica=0),)))
        trace = poisson_trace(qps=4000, num_requests=150,
                              models=['bert', 'gpt2'], seed=5)
        deployment = Deployment(spec)
        first = format_fleet_report(deployment.run(trace), 'replay')
        fleet_a = deployment.fleet
        second = format_fleet_report(deployment.run(trace), 'replay')
        assert deployment.fleet is not fleet_a   # fresh fleet per mutation
        assert first == second                   # deterministic replay

    def test_report_requires_a_run(self):
        deployment = Deployment(tiny_spec())
        with pytest.raises(RuntimeError, match='run'):
            deployment.report()


class TestCli:
    def test_validate_accepts_a_good_spec_file(self, tmp_path, capsys):
        path = tmp_path / 'spec.json'
        path.write_text(full_spec().to_json())
        assert deployment_main(['--validate', str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith('OK:') and 'scheduled_diurnal' in out

    def test_validate_rejects_a_bad_spec_naming_the_field(self, tmp_path,
                                                          capsys):
        path = tmp_path / 'spec.json'
        path.write_text(
            tiny_spec(placement=PlacementSpec('warmest_gpu')).to_json())
        assert deployment_main(['--validate', str(path)]) == 1
        assert 'placement.policy' in capsys.readouterr().err

    def test_validate_reports_unreadable_files(self, tmp_path, capsys):
        assert deployment_main(
            ['--validate', str(tmp_path / 'missing.json')]) == 2
        assert 'error:' in capsys.readouterr().err


class TestSatelliteFixes:
    def test_simulators_no_longer_share_a_default_policy(self):
        """The module-load-time default ``BatchingPolicy()`` was one shared
        instance across every simulator; defaults are now per-instance."""
        s1, s2 = ServerSimulator(None), ServerSimulator(None)
        assert s1.policy is not s2.policy
        f1, f2 = FleetSimulator(None), FleetSimulator(None)
        assert f1.policy is not f2.policy
        assert isinstance(f1.policy, BatchingPolicy)

    def test_top_level_package_exports_match_its_docstring(self):
        import repro
        assert callable(repro.optimize)
        assert repro.serve.DeploymentSpec is DeploymentSpec
        assert 'optimize' in repro.__all__ and 'serve' in repro.__all__
        with pytest.raises(AttributeError):
            repro.no_such_symbol
