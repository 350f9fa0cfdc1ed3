"""Fleet lifecycle: diurnal traces, autoscaling guard rails, replica
failures (re-homing, requeue/loss accounting), and drain-before-retire.
"""
import pytest

from repro.graph import ops, symbol, trace
from repro.gpusim.device import RTX3090
from repro.models.common import WeightFactory, conv_bn_relu, linear
from repro.runtime import ScheduleCache
from repro.serve import (Autoscaler, AutoscalerConfig, BatchingPolicy,
                         DynamicBatcher, FailureEvent, FailureInjector, Fleet,
                         FleetSimulator, LeastLoadedPlacement,
                         ModelAffinePlacement, P99TargetPolicy,
                         QueueDepthPolicy, RoundRobinPlacement,
                         ScheduledDiurnalPolicy, diurnal_trace, poisson_trace)


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


def two_model_fleet(placement, n=2, **kwargs) -> Fleet:
    fleet = Fleet([RTX3090] * n, placement=placement, **kwargs)
    fleet.register('cnn', tiny_cnn, max_batch=8)
    fleet.register('mlp', tiny_mlp, max_batch=8)
    return fleet


def conserved(trace_, result) -> bool:
    """Nothing is ever silently dropped: every request is accounted for."""
    return len(trace_) == (len(result.completions) + len(result.rejected)
                           + len(result.lost))


# ---------------------------------------------------------------------------
# diurnal traces


class TestDiurnalTrace:
    def test_deterministic_and_bounded(self):
        kwargs = dict(base_qps=100, peak_qps=5000, period=0.2, duration=0.4,
                      models=['m'], seed=3)
        a, b = diurnal_trace(**kwargs), diurnal_trace(**kwargs)
        assert [r.arrival for r in a] == [r.arrival for r in b]
        assert all(0 <= r.arrival < 0.4 for r in a)
        assert [r.req_id for r in a] == list(range(len(a)))

    def test_rate_swells_at_the_crest(self):
        reqs = diurnal_trace(base_qps=50, peak_qps=5000, period=1.0,
                             duration=1.0, models=['m'], seed=0)
        crest = sum(1 for r in reqs if 0.4 <= r.arrival < 0.6)
        trough = sum(1 for r in reqs if r.arrival < 0.1
                     or r.arrival >= 0.9)
        assert crest > 5 * trough

    def test_validation(self):
        with pytest.raises(ValueError, match='base_qps'):
            diurnal_trace(0, 10, 1.0, 1.0, ['m'])
        with pytest.raises(ValueError, match='base_qps'):
            diurnal_trace(20, 10, 1.0, 1.0, ['m'])
        with pytest.raises(ValueError, match='period and duration'):
            diurnal_trace(1, 10, 0.0, 1.0, ['m'])


# ---------------------------------------------------------------------------
# autoscaler guard rails (policy unit level)


class _View:
    """Stub load view for policy unit tests."""

    def __init__(self, depths=None, p99=None):
        self.depths = depths if depths is not None else {0: 0}
        self.p99 = p99

    def serving_replicas(self):
        return sorted(self.depths)

    def queued_samples(self, replica):
        return self.depths[replica]

    def backlog_seconds(self, replica, now):
        return 0.0

    def recent_p99_ms(self, now, window):
        return self.p99


class TestAutoscalerGuardRails:
    def test_cooldown_prevents_flapping(self):
        # the queue oscillates around the thresholds every tick; without a
        # cooldown the scaler would act every tick, with one it must not
        scaler = Autoscaler(QueueDepthPolicy(scale_up_depth=10,
                                             scale_down_depth=1),
                            AutoscalerConfig(min_replicas=1, max_replicas=8,
                                             interval=0.01, cooldown=0.1))
        actions = []
        active = 2
        for tick in range(100):
            now = tick * 0.01
            view = _View({r: (50 if tick % 2 else 0) for r in range(active)})
            target = scaler.decide(view, now, active)
            if target != active:
                scaler.record_action(now)    # the fleet acts on the wish
                actions.append(now)
                active = target
        assert actions, 'the scaler never acted at all'
        gaps = [b - a for a, b in zip(actions, actions[1:])]
        assert all(gap >= 0.1 - 1e-12 for gap in gaps), (
            f'actions inside the cooldown window: {actions}')

    def test_blocked_wish_does_not_burn_the_cooldown(self):
        # a scale-down wish the fleet cannot satisfy (sole-host guard) is
        # never record_action()ed, so a genuine scale-up wish right after
        # must go through instead of being cooldown-suppressed
        scaler = Autoscaler(QueueDepthPolicy(scale_up_depth=10,
                                             scale_down_depth=1),
                            AutoscalerConfig(min_replicas=1, max_replicas=4,
                                             cooldown=1.0))
        wish_down = scaler.decide(_View({0: 0, 1: 0}), 0.0, 2)
        assert wish_down == 1                # down-wish issued...
        # ...but the fleet found no safe victim: no record_action call
        spike = scaler.decide(_View({0: 50, 1: 50}), 0.01, 2)
        assert spike == 3, 'the scale-up wish must not be cooldown-blocked'

    def test_bounds_and_increment_clamp(self):
        scaler = Autoscaler(ScheduledDiurnalPolicy([(0.0, 10)]),
                            AutoscalerConfig(min_replicas=1, max_replicas=4,
                                             cooldown=0.0, scale_increment=2))
        assert scaler.decide(_View(), 0.0, 1) == 3     # +2, not +9
        assert scaler.decide(_View(), 1.0, 3) == 4     # capped at max
        down = Autoscaler(ScheduledDiurnalPolicy([(0.0, 1)]),
                          AutoscalerConfig(min_replicas=2, max_replicas=8,
                                           cooldown=0.0))
        assert down.decide(_View(), 0.0, 2) == 2       # floored at min

    def test_scheduled_policy_is_a_step_function(self):
        policy = ScheduledDiurnalPolicy([(0.0, 1), (1.0, 3), (2.0, 2)])
        assert policy.desired_replicas(None, 0.5, 9) == 1
        assert policy.desired_replicas(None, 1.0, 9) == 3
        assert policy.desired_replicas(None, 5.0, 9) == 2

    def test_p99_policy_scales_on_the_window(self):
        policy = P99TargetPolicy(target_p99_ms=2.0, headroom=0.5)
        assert policy.desired_replicas(_View(p99=None), 0.0, 2) == 2
        assert policy.desired_replicas(_View(p99=5.0), 0.0, 2) == 3
        assert policy.desired_replicas(_View(p99=0.5), 0.0, 2) == 1
        assert policy.desired_replicas(_View(p99=1.5), 0.0, 2) == 2

    def test_policy_validation(self):
        with pytest.raises(ValueError, match='dead band'):
            QueueDepthPolicy(scale_up_depth=4, scale_down_depth=4)
        with pytest.raises(ValueError, match='at least one'):
            ScheduledDiurnalPolicy([])
        with pytest.raises(ValueError, match='>= 1 replica'):
            ScheduledDiurnalPolicy([(0.0, 0)])
        with pytest.raises(ValueError, match='min_replicas'):
            AutoscalerConfig(min_replicas=3, max_replicas=2)
        with pytest.raises(ValueError, match='revive_at'):
            FailureEvent(time=1.0, replica=0, revive_at=0.5)
        with pytest.raises(ValueError, match='non-negative index'):
            FailureEvent(time=1.0, replica=-1)


# ---------------------------------------------------------------------------
# failures: re-homing, requeue/loss accounting, determinism


@pytest.fixture()
def affine_trace():
    return poisson_trace(qps=20000, num_requests=600,
                         models=['cnn', 'mlp'], seed=0)


class TestFailures:
    def test_killing_the_only_host_rehomes_the_model(self, affine_trace):
        fleet = two_model_fleet(ModelAffinePlacement()).build()
        assert fleet.hosting == {'cnn': (0,), 'mlp': (1,)}
        kill_at = affine_trace[len(affine_trace) // 2].arrival
        sim = FleetSimulator(fleet, BatchingPolicy(max_batch=8, max_wait=1e-3),
                             failures=[FailureEvent(time=kill_at, replica=0)])
        result = sim.run(affine_trace)
        assert conserved(affine_trace, result)
        rehomes = [e for e in result.events if e.kind == 'rehome']
        assert rehomes and rehomes[0].replica == 1
        assert rehomes[0].detail == 'cnn'
        assert 1 in fleet.hosting['cnn']
        assert result.rehome_tuning_seconds > 0      # compiled mid-run, cold
        # cnn requests arriving after the kill complete on the new home
        late_cnn = [c for c in result.completions
                    if c.request.model == 'cnn' and c.request.arrival > kill_at]
        assert late_cnn and all(c.replica == 1 for c in late_cnn)

    def test_killing_the_last_replica_loses_loudly(self, affine_trace):
        fleet = Fleet([RTX3090], placement=RoundRobinPlacement())
        fleet.register('cnn', tiny_cnn, max_batch=8)
        cnn_only = [r for r in affine_trace if r.model == 'cnn']
        kill_at = cnn_only[len(cnn_only) // 2].arrival
        sim = FleetSimulator(fleet, BatchingPolicy(max_batch=8, max_wait=1e-3),
                             failures=[FailureEvent(time=kill_at, replica=0)])
        result = sim.run(cnn_only)
        assert conserved(cnn_only, result)           # never silent loss
        assert result.lost                           # ... but loss, surfaced
        stats = result.stats()
        assert stats.num_lost_to_failure == len(result.lost)
        assert stats.offered_requests == len(cnn_only)
        # the admission-control channel stays clean: these are failures
        assert stats.num_rejected == len(result.rejected)
        assert stats.loss_rate > 0

    def test_total_outage_reports_instead_of_crashing(self):
        # killing the whole fleet at t=0 completes nothing; the run must
        # still produce a report (loss_rate 1.0, NaN latencies) — loud
        # loss means a report, not a ValueError
        import math

        from repro.serve import format_serving_report

        fleet = Fleet([RTX3090], placement=RoundRobinPlacement())
        fleet.register('cnn', tiny_cnn, max_batch=8)
        trace_ = poisson_trace(qps=20000, num_requests=20, models=['cnn'],
                               seed=13)
        sim = FleetSimulator(fleet, BatchingPolicy(max_batch=8, max_wait=1e-3),
                             failures=[FailureEvent(time=0.0, replica=0)])
        result = sim.run(trace_)
        assert not result.completions and len(result.lost) == len(trace_)
        stats = result.stats()
        assert stats.loss_rate == 1.0
        assert stats.num_requests == 0 and stats.throughput_rps == 0.0
        assert math.isnan(stats.latency_p99_ms)      # undefined, not fake
        assert 'lost to failure' in format_serving_report(stats)

    def test_requeued_work_survives_with_original_arrival(self, affine_trace):
        fleet = two_model_fleet(LeastLoadedPlacement()).build()
        kill_at = affine_trace[len(affine_trace) // 2].arrival
        sim = FleetSimulator(fleet, BatchingPolicy(max_batch=8, max_wait=1e-3),
                             failures=[FailureEvent(time=kill_at, replica=0)])
        result = sim.run(affine_trace)
        assert conserved(affine_trace, result)
        assert result.num_requeued > 0
        survivors = [c for c in result.completions if c.requeued]
        assert len(survivors) == result.num_requeued
        # latency includes the outage: completion after the kill, arrival
        # before it — the original arrival is kept
        assert all(c.request.arrival <= kill_at <= c.completion
                   for c in survivors)
        assert result.stats().num_requeued == result.num_requeued

    def test_revived_replica_serves_again_without_retuning(self, affine_trace):
        fleet = two_model_fleet(LeastLoadedPlacement()).build()
        tuned_before = fleet.total_compile_seconds
        span = affine_trace[-1].arrival
        sim = FleetSimulator(
            fleet, BatchingPolicy(max_batch=8, max_wait=1e-3),
            failures=[FailureEvent(time=span * 0.3, replica=0,
                                   revive_at=span * 0.5)])
        result = sim.run(affine_trace)
        assert conserved(affine_trace, result)
        kinds = [e.kind for e in result.events]
        assert 'kill' in kinds and 'revive' in kinds
        after = [b for b in result.batches if b.replica == 0
                 and b.dispatch_time >= span * 0.5]
        assert after, 'the revived replica must serve again'
        assert fleet.total_compile_seconds == tuned_before   # no re-tuning

    def test_inflight_batch_is_lost_and_leaves_the_batch_record(self):
        # aim the kill inside a known batch's service window: a dry run
        # (no failures) shows when replica 0 is mid-batch, and determinism
        # guarantees the failure run behaves identically up to the kill.
        # The doomed batch's requests land in lost, and the dead batch
        # leaves the dispatch record so batch stats never count work that
        # also counts as lost
        policy = BatchingPolicy(max_batch=8, max_wait=1e-3)
        trace_ = poisson_trace(qps=50000, num_requests=1000, models=['cnn'],
                               seed=5)

        def fresh_fleet():
            fleet = Fleet([RTX3090, RTX3090],
                          placement=LeastLoadedPlacement())
            fleet.register('cnn', tiny_cnn, max_batch=8)
            return fleet

        dry = FleetSimulator(fresh_fleet(), policy).run(trace_)
        doomed = next(b for b in dry.batches if b.replica == 0
                      and b.dispatch_time > 0)
        done = min(c.completion for c in dry.completions
                   if c.replica == 0 and c.dispatch_time == doomed.dispatch_time)
        kill_at = (doomed.dispatch_time + done) / 2   # mid-service

        sim = FleetSimulator(fresh_fleet(), policy,
                             failures=[FailureEvent(time=kill_at, replica=0)])
        result = sim.run(trace_)
        assert conserved(trace_, result)
        assert {r.req_id for r in doomed.requests} <= {
            r.req_id for r in result.lost}
        assert (sum(len(b.requests) for b in result.batches)
                == len(result.completions))
        served = {c.request.req_id for c in result.completions}
        assert not served & {r.req_id for r in result.lost}

    def test_failure_for_a_never_joined_replica_is_a_noop(self):
        # seeded schedules are drawn against the fleet's *maximum* size; a
        # kill/revive naming an index that never joined must not crash
        fleet = Fleet([RTX3090], placement=RoundRobinPlacement())
        fleet.register('cnn', tiny_cnn, max_batch=8)
        trace_ = poisson_trace(qps=20000, num_requests=200, models=['cnn'],
                               seed=6)
        sim = FleetSimulator(
            fleet, BatchingPolicy(max_batch=8, max_wait=1e-3),
            failures=[FailureEvent(time=trace_[50].arrival, replica=5,
                                   revive_at=trace_[100].arrival)])
        result = sim.run(trace_)
        assert conserved(trace_, result)
        assert not result.lost
        assert not [e for e in result.events if e.kind in ('kill', 'revive')]

    def test_noop_kill_cannot_revive_an_earlier_permanent_failure(self,
                                                                  affine_trace):
        # a permanent failure followed by a kill+revive window on the same
        # (already dead) replica: the second kill is a no-op, so its revive
        # must be one too — the scheduled outage stays permanent
        fleet = two_model_fleet(LeastLoadedPlacement()).build()
        span = affine_trace[-1].arrival
        sim = FleetSimulator(
            fleet, BatchingPolicy(max_batch=8, max_wait=1e-3),
            failures=[FailureEvent(time=span * 0.2, replica=0),
                      FailureEvent(time=span * 0.4, replica=0,
                                   revive_at=span * 0.5)])
        result = sim.run(affine_trace)
        assert conserved(affine_trace, result)
        assert [e.kind for e in result.events
                if e.kind in ('kill', 'revive')] == ['kill']
        assert fleet.replicas[0].state == 'dead'
        assert not [b for b in result.batches if b.replica == 0
                    and b.dispatch_time > span * 0.2]

    def test_revive_after_mid_drain_kill_resumes_retirement(self):
        # a replica killed while draining must not come back 'serving':
        # the revive resumes (and, queues gone, completes) the scale-down
        policy = BatchingPolicy(max_batch=8, max_wait=1e-3)
        trace_ = poisson_trace(qps=40000, num_requests=1200, models=['cnn'],
                               seed=14)
        span = trace_[-1].arrival

        def build(failures=()):
            fleet = Fleet([RTX3090, RTX3090],
                          placement=RoundRobinPlacement())
            fleet.register('cnn', tiny_cnn, max_batch=8)
            scaler = Autoscaler(
                ScheduledDiurnalPolicy([(0.0, 2), (span * 0.5, 1)]),
                AutoscalerConfig(min_replicas=1, max_replicas=2,
                                 interval=span / 40, cooldown=0.0))
            return fleet, FleetSimulator(fleet, policy, autoscaler=scaler,
                                         failures=failures)

        _, dry_sim = build()
        dry = dry_sim.run(trace_)
        begin = next(e for e in dry.events if e.kind == 'retire_begin')
        done = next(e for e in dry.events if e.kind == 'retire_done')
        assert done.time > begin.time, 'need a real drain window to test'
        kill_at = (begin.time + done.time) / 2
        fleet, sim = build([FailureEvent(time=kill_at, replica=begin.replica,
                                         revive_at=kill_at + span * 0.1)])
        result = sim.run(trace_)
        assert conserved(trace_, result)
        kinds = [e.kind for e in result.events if e.replica == begin.replica]
        assert kinds == ['retire_begin', 'kill', 'revive', 'retire_done']
        assert fleet.replicas[begin.replica].state == 'dead'
        revive_at = next(e.time for e in result.events if e.kind == 'revive')
        assert not [b for b in result.batches if b.replica == begin.replica
                    and b.dispatch_time > revive_at]

    def test_seeded_failure_schedule_is_deterministic(self):
        a = FailureInjector.seeded(4, num_replicas=3, span=1.0, seed=7,
                                   mttr=0.2)
        b = FailureInjector.seeded(4, num_replicas=3, span=1.0, seed=7,
                                   mttr=0.2)
        assert a.events == b.events
        assert len(a) == 4
        assert all(e.revive_at > e.time for e in a)
        different = FailureInjector.seeded(4, num_replicas=3, span=1.0,
                                           seed=8, mttr=0.2)
        assert different.events != a.events

    def test_failure_run_replays_identically(self, affine_trace):
        def run():
            fleet = two_model_fleet(LeastLoadedPlacement())
            injector = FailureInjector.seeded(
                2, num_replicas=2, span=affine_trace[-1].arrival, seed=11)
            sim = FleetSimulator(fleet,
                                 BatchingPolicy(max_batch=8, max_wait=1e-3),
                                 failures=injector)
            return sim.run(affine_trace)

        first, again = run(), run()
        assert ([(c.request.req_id, c.completion, c.replica)
                 for c in first.completions]
                == [(c.request.req_id, c.completion, c.replica)
                    for c in again.completions])
        assert first.events == again.events
        assert [r.req_id for r in first.lost] == [r.req_id for r in again.lost]


# ---------------------------------------------------------------------------
# autoscaled runs: join, drain-before-retire, sole-host protection


class TestAutoscaledRuns:
    def test_scale_down_drains_queued_batches_before_removal(self):
        fleet = Fleet([RTX3090, RTX3090], placement=RoundRobinPlacement())
        fleet.register('cnn', tiny_cnn, max_batch=8)
        trace_ = poisson_trace(qps=20000, num_requests=800, models=['cnn'],
                               seed=1)
        span = trace_[-1].arrival
        scaler = Autoscaler(
            ScheduledDiurnalPolicy([(0.0, 2), (span * 0.5, 1)]),
            AutoscalerConfig(min_replicas=1, max_replicas=2,
                             interval=span / 40, cooldown=0.0))
        sim = FleetSimulator(fleet, BatchingPolicy(max_batch=8, max_wait=1e-3),
                             autoscaler=scaler)
        result = sim.run(trace_)
        assert conserved(trace_, result)
        assert not result.lost                       # draining loses nothing
        begins = [e for e in result.events if e.kind == 'retire_begin']
        dones = [e for e in result.events if e.kind == 'retire_done']
        assert begins and dones
        retired = begins[0].replica
        assert dones[0].replica == retired
        assert dones[0].time >= begins[0].time
        # nothing dispatches on the retired replica after it fully left
        assert not [b for b in result.batches if b.replica == retired
                    and b.dispatch_time > dones[0].time]
        assert fleet.replicas[retired].state == 'dead'

    def test_scale_up_joins_warm_from_the_shared_cache(self, tmp_path):
        path = str(tmp_path / 'schedules.json')
        donor = Fleet([RTX3090], placement=RoundRobinPlacement())
        donor.register('cnn', tiny_cnn, max_batch=8)
        donor.build()
        donor.replicas[0].registry.save_cache(path)

        fleet = Fleet([RTX3090], placement=LeastLoadedPlacement(),
                      warm_from=path)
        fleet.register('cnn', tiny_cnn, max_batch=8)
        trace_ = poisson_trace(qps=20000, num_requests=800, models=['cnn'],
                               seed=2)
        span = trace_[-1].arrival
        scaler = Autoscaler(
            ScheduledDiurnalPolicy([(0.0, 1), (span * 0.3, 2)]),
            AutoscalerConfig(min_replicas=1, max_replicas=2,
                             interval=span / 40, cooldown=0.0))
        sim = FleetSimulator(fleet, BatchingPolicy(max_batch=8, max_wait=1e-3),
                             autoscaler=scaler)
        result = sim.run(trace_)
        joins = [e for e in result.events if e.kind == 'join']
        assert len(joins) == 1
        assert result.scale_up_tuning_seconds == 0.0   # exact hits: free
        assert fleet.num_replicas == 2
        joined = joins[0].replica
        assert [b for b in result.batches if b.replica == joined], (
            'the joined replica must take load')
        stats = result.stats(cold_start_seconds=0.0)
        assert stats.replica_seconds < 2 * span        # joined late: < 2 full

    def test_multi_step_scale_down_never_orphans_a_model(self):
        # a scale_increment=2 step retires two replicas in one tick; the
        # sole-host check must account for the tick's earlier victim, or
        # an affine home group could be drained whole and force an
        # emergency rehome (a failure path, not a capacity decision)
        fleet = Fleet([RTX3090] * 4, placement=ModelAffinePlacement())
        fleet.register('cnn', tiny_cnn, max_batch=8)
        fleet.register('mlp', tiny_mlp, max_batch=8)   # homes: (0,1) / (2,3)
        trace_ = poisson_trace(qps=20000, num_requests=800,
                               models=['cnn', 'mlp'], seed=7)
        span = trace_[-1].arrival
        scaler = Autoscaler(
            ScheduledDiurnalPolicy([(0.0, 4), (span * 0.4, 2)]),
            AutoscalerConfig(min_replicas=2, max_replicas=4,
                             interval=span / 40, cooldown=0.0,
                             scale_increment=2))
        sim = FleetSimulator(fleet, BatchingPolicy(max_batch=8, max_wait=1e-3),
                             autoscaler=scaler)
        result = sim.run(trace_)
        assert conserved(trace_, result)
        assert not [e for e in result.events if e.kind == 'rehome']
        assert result.rehome_tuning_seconds == 0.0
        for model in ('cnn', 'mlp'):
            assert fleet.active_hosts(model), f'{model} was orphaned'

    def test_join_tuning_is_not_double_counted_as_cold_start(self):
        # a cold mid-run join's tuning must appear exactly once: in
        # scale_up_tuning_seconds, not also inside cold_start_seconds
        fleet = Fleet([RTX3090], placement=LeastLoadedPlacement())
        fleet.register('cnn', tiny_cnn, max_batch=8)
        trace_ = poisson_trace(qps=20000, num_requests=600, models=['cnn'],
                               seed=8)
        span = trace_[-1].arrival
        scaler = Autoscaler(
            ScheduledDiurnalPolicy([(0.0, 1), (span * 0.3, 2)]),
            AutoscalerConfig(min_replicas=1, max_replicas=2,
                             interval=span / 40, cooldown=0.0))
        sim = FleetSimulator(fleet, BatchingPolicy(max_batch=8, max_wait=1e-3),
                             autoscaler=scaler)
        stats = sim.run(trace_).stats()
        pre_trace = fleet.replicas[0].compile_seconds
        joined = fleet.replicas[1].compile_seconds
        assert joined > 0                            # cold join, real bill
        assert stats.cold_start_seconds == pytest.approx(pre_trace)
        assert stats.scale_up_tuning_seconds == pytest.approx(joined)

    def test_retired_replica_is_not_revivable(self):
        # a replica the autoscaler retired has left the fleet for good: a
        # failure schedule naming it later (kill or revive) is a no-op
        fleet = Fleet([RTX3090, RTX3090], placement=RoundRobinPlacement())
        fleet.register('cnn', tiny_cnn, max_batch=8)
        trace_ = poisson_trace(qps=20000, num_requests=800, models=['cnn'],
                               seed=4)
        span = trace_[-1].arrival
        scaler = Autoscaler(
            ScheduledDiurnalPolicy([(0.0, 1)]),      # retire down to 1 asap
            AutoscalerConfig(min_replicas=1, max_replicas=2,
                             interval=span / 40, cooldown=0.0))
        sim = FleetSimulator(
            fleet, BatchingPolicy(max_batch=8, max_wait=1e-3),
            autoscaler=scaler,
            failures=[FailureEvent(time=span * 0.6, replica=1,
                                   revive_at=span * 0.7)])
        result = sim.run(trace_)
        assert conserved(trace_, result)
        kinds = [e.kind for e in result.events]
        assert 'retire_done' in kinds
        assert 'kill' not in kinds and 'revive' not in kinds
        retired = next(e.replica for e in result.events
                       if e.kind == 'retire_done')
        assert fleet.replicas[retired].state == 'dead'

    def test_scale_down_cancels_a_pending_join_before_draining(self):
        # with a provision delay, a join can become redundant before it
        # lands; the scale-down must shed it (free) instead of draining a
        # live, warm replica and then letting the stale join land anyway
        fleet = Fleet([RTX3090], placement=RoundRobinPlacement())
        fleet.register('cnn', tiny_cnn, max_batch=8)
        trace_ = poisson_trace(qps=20000, num_requests=600, models=['cnn'],
                               seed=15)
        span = trace_[-1].arrival
        scaler = Autoscaler(
            ScheduledDiurnalPolicy([(0.0, 1), (span * 0.3, 2),
                                    (span * 0.4, 1)]),
            AutoscalerConfig(min_replicas=1, max_replicas=2,
                             interval=span / 40, cooldown=0.0,
                             provision_delay=span * 0.3))
        sim = FleetSimulator(fleet, BatchingPolicy(max_batch=8, max_wait=1e-3),
                             autoscaler=scaler)
        result = sim.run(trace_)
        assert conserved(trace_, result)
        kinds = [e.kind for e in result.events]
        assert 'join_cancelled' in kinds
        assert 'join' not in kinds                   # the join never landed
        assert not [k for k in kinds if k.startswith('retire')]
        assert fleet.num_replicas == 1               # nothing ever grew
        assert result.scale_up_tuning_seconds == 0.0

    def test_autoscaler_never_drains_a_sole_host(self):
        # both replicas are sole hosts under model-affine: a scale-down wish
        # must find no safe victim and do nothing
        fleet = two_model_fleet(ModelAffinePlacement())
        trace_ = poisson_trace(qps=20000, num_requests=400,
                               models=['cnn', 'mlp'], seed=3)
        span = trace_[-1].arrival
        scaler = Autoscaler(
            ScheduledDiurnalPolicy([(0.0, 1)]),
            AutoscalerConfig(min_replicas=1, max_replicas=2,
                             interval=span / 20, cooldown=0.0))
        sim = FleetSimulator(fleet, BatchingPolicy(max_batch=8, max_wait=1e-3),
                             autoscaler=scaler)
        result = sim.run(trace_)
        assert conserved(trace_, result)
        assert not [e for e in result.events if e.kind.startswith('retire')]
        assert all(r.state == 'serving' for r in fleet.replicas)


# ---------------------------------------------------------------------------
# placement failover + fleet surgery API


class TestFailoverAndSurgery:
    def test_model_affine_failover_groups(self):
        policy = ModelAffinePlacement()
        policy.partition(['a', 'b'], 4)              # a: (0,1)  b: (2,3)
        assert policy.rehome('a', serving=[2, 3], hosting=(0, 1)) == 2
        assert policy.rehome('b', serving=[0, 1], hosting=(2, 3)) == 0
        # failover group fully dead too: fall back to lowest serving index
        assert policy.rehome('a', serving=[1], hosting=(0,)) == 1

    def test_single_group_fails_over_outside_the_home(self):
        policy = ModelAffinePlacement()
        policy.partition(['only'], 3)                # home (0,1,2): no other
        assert policy._failover['only'] == (0, 1, 2)
        policy.partition(['only'], 1)
        assert policy._failover['only'] == (0,)

    def test_affine_join_hosts_only_the_thinnest_model(self):
        # the join hook preserves affinity: a scale-up replica takes the
        # model with the fewest serving hosts, not the whole zoo
        fleet = two_model_fleet(ModelAffinePlacement()).build()
        joined = fleet.add_replica(RTX3090, now=0.5)   # cnn/mlp tied: cnn
        assert sorted(joined.registry.models) == ['cnn']
        assert fleet.hosting['cnn'] == (0, 2)
        again = fleet.add_replica(RTX3090, now=0.6)    # now mlp is thinnest
        assert sorted(again.registry.models) == ['mlp']
        # host-everywhere policies keep the host-everything default
        spread = two_model_fleet(RoundRobinPlacement()).build()
        assert sorted(spread.add_replica(RTX3090).registry.models) == [
            'cnn', 'mlp']

    def test_default_rehome_prefers_a_fresh_replica(self):
        policy = RoundRobinPlacement()
        assert policy.rehome('m', serving=[1, 2], hosting=(1,)) == 2
        assert policy.rehome('m', serving=[1], hosting=(1,)) == 1

    def test_add_replica_requires_build_and_known_models(self):
        fleet = two_model_fleet(RoundRobinPlacement())
        with pytest.raises(RuntimeError, match='build'):
            fleet.add_replica(RTX3090)
        fleet.build()
        with pytest.raises(KeyError, match='not registered'):
            fleet.add_replica(RTX3090, models=['nope'])
        replica = fleet.add_replica(RTX3090, now=1.5, models=['cnn'])
        assert replica.index == 2 and replica.joined_at == 1.5
        assert fleet.hosting['cnn'] == (0, 1, 2)
        assert fleet.hosting['mlp'] == (0, 1)

    def test_host_model_is_idempotent_and_charges_once(self):
        fleet = two_model_fleet(ModelAffinePlacement()).build()
        charged = fleet.host_model(1, 'cnn')
        assert charged > 0
        assert fleet.hosting['cnn'] == (0, 1)
        assert fleet.host_model(1, 'cnn') == 0.0     # already hosted
        with pytest.raises(KeyError, match='not registered'):
            fleet.host_model(0, 'nope')

    def test_cache_warm_missing_ok(self, tmp_path):
        cache = ScheduleCache()
        missing = str(tmp_path / 'nope.json')
        assert cache.warm(missing, missing_ok=True) == 0
        with pytest.raises(FileNotFoundError):
            cache.warm(missing)

    def test_batcher_drain_and_add_model(self):
        from repro.serve import Request

        batcher = DynamicBatcher(BatchingPolicy(max_batch=4, max_wait=1e-3),
                                 {'a': (1, 2, 4)})
        batcher.offer(Request(1, 'a', 2, 0.002))
        batcher.offer(Request(0, 'a', 1, 0.001))
        drained = batcher.drain()
        assert [r.req_id for r in drained] == [0, 1]  # arrival order
        assert batcher.pending() == 0
        batcher.add_model('b', (1, 4))
        batcher.add_model('b', (1, 4))               # idempotent
        batcher.offer(Request(2, 'b', 1, 0.0))
        assert batcher.pending('b') == 1
        with pytest.raises(ValueError, match='already batched'):
            batcher.add_model('b', (1, 2))
        with pytest.raises(ValueError, match='max_batch'):
            batcher.add_model('c', (1, 2))           # largest bucket < 4
