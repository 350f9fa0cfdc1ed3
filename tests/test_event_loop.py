"""The one serving event loop against the loops it replaced.

:class:`ServerSimulator` and :class:`DecodeSimulator` once each ran their
own heap, sequence counter and event dispatch, and the decode simulator
its own copy of the kill/revive/join/re-route handling.  Both now run on
:class:`repro.serve.engine.ReplicaEngine`.  The reference simulators below
keep those former ``run`` methods verbatim (the single-GPU one priced
through its former ``service_time``, the decode one routing through its
former ``_route``), and every run here must match them exactly:
completions, batches, rejections, losses, every decode counter and the
Chrome trace byte for byte.  The decode scenarios keep failures from
overlapping: there the old loop revived a lane after a kill that did
nothing, which :func:`test_noop_kill_does_not_end_an_outage_early` pins.
"""
import heapq
import itertools
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import pytest

from repro.gpusim import DecodeCostModel, RTX3090
from repro.graph import ops, symbol, trace
from repro.models.common import WeightFactory, conv_bn_relu, linear
from repro.obs import NULL_TELEMETRY, NullTelemetry, Telemetry
from repro.serve import (BatchingPolicy, DecodePolicy, DecodeSimulator,
                         FailureEvent, Fleet, FleetSimulator, ModelRegistry,
                         Request, ServerSimulator, decode_trace,
                         poisson_trace)
from repro.serve.batcher import Batch, DynamicBatcher
from repro.serve.registry import RegisteredModel
from repro.serve.simulator import (CompletedRequest, DecodedRequest,
                                   _DecodeLane, _LiveRequest)


# The result dataclasses the former loops returned, kept verbatim except
# their ``stats`` folds, which the comparisons here never call: the results
# the simulators return now hold their records as columns.


@dataclass
class SimulationResult:
    """Everything a finished run produced.

    ``completions`` hold every admitted request's lifecycle record;
    ``rejected`` the requests admission control turned away at arrival
    (empty unless the policy sets ``max_queue``); ``batches`` the dispatched
    coalesced batches in dispatch order.
    """

    completions: list[CompletedRequest]
    batches: list[Batch]
    policy: BatchingPolicy
    #: simulated seconds the GPU spent serving batches
    busy_seconds: float = 0.0
    #: arrivals turned away by admission control (policy.max_queue)
    rejected: list[Request] = field(default_factory=list)


@dataclass
class DecodeResult:
    """Everything a finished decode run produced (token granularity)."""

    completions: list[DecodedRequest]
    policy: DecodePolicy
    continuous: bool
    rejected: list[Request] = field(default_factory=list)
    lost: list[Request] = field(default_factory=list)
    busy_seconds: float = 0.0
    num_decode_steps: int = 0
    #: prompt tokens prefilled across every admitted request
    num_prefill_tokens: int = 0
    #: output tokens emitted, including by requests later lost to failure
    num_decode_tokens: int = 0
    #: decode steps priced with KV spilled past capacity (swap penalty paid)
    kv_overflow_steps: int = 0
    #: sum of per-step priced widths (mean width = this / steps)
    width_step_sum: int = 0
    num_requeued: int = 0
    kv_peak_bytes: dict = field(default_factory=dict)      # lane label -> peak
    kv_capacity_bytes: dict = field(default_factory=dict)  # lane label -> cap

    @property
    def mean_decode_width(self) -> float:
        if self.num_decode_steps == 0:
            return 0.0
        return self.width_step_sum / self.num_decode_steps


class ReferenceServerSimulator(ServerSimulator):
    """The single-GPU simulator's own event loop, before the shared one."""

    def service_time(self, model: str, bucket: int) -> float:
        return self.registry[model].latency(bucket) + self.batch_overhead

    def run(self, trace: Sequence[Request],
            telemetry: Optional[Telemetry] = None) -> SimulationResult:
        """Replay ``trace`` (any order; sorted internally) to completion.

        Returns a :class:`SimulationResult` whose ``completions`` cover
        every admitted request; with ``policy.max_queue`` set, turned-away
        arrivals land in ``result.rejected`` instead of completing.

        ``telemetry`` (one per run — request ids restart per trace) records
        the run as spans and live metrics; ``None`` keeps the simulator
        observation-free.
        """
        batcher = DynamicBatcher(self.policy, self.registry.bucket_map())
        events: list[tuple[float, int, str, Optional[Request]]] = []
        seq = itertools.count()
        for request in trace:
            heapq.heappush(events, (request.arrival, next(seq), 'arrival', request))

        completions: list[CompletedRequest] = []
        batches: list[Batch] = []
        rejected: list[Request] = []
        busy_seconds = 0.0
        gpu_free_at = 0.0            # GPU is idle iff now >= gpu_free_at
        in_flight: Optional[Batch] = None
        armed_deadline: Optional[float] = None   # earliest pending timer

        def dispatch(now: float) -> None:
            nonlocal gpu_free_at, busy_seconds, in_flight, armed_deadline
            batch = batcher.pop_ready(now)
            if batch is None:
                # nothing due yet: arm a timer for the next wait deadline so
                # a partial batch still dispatches on the idle GPU.  One
                # armed timer per deadline — every idle event lands here, so
                # unconditional pushes would flood the heap with duplicates
                deadline = batcher.next_deadline()
                if deadline is not None:
                    when = max(deadline, now)
                    if armed_deadline is None or when < armed_deadline:
                        heapq.heappush(events, (when, next(seq), 'timer', None))
                        armed_deadline = when
                return
            service = self.service_time(batch.model, batch.bucket)
            gpu_free_at = now + service
            busy_seconds += service
            in_flight = batch
            batches.append(batch)
            if telemetry is not None:
                telemetry.batch_formed(batch, replica=0, now=now,
                                       queued_after=batcher.pending())
            heapq.heappush(events, (gpu_free_at, next(seq), 'gpu_free', None))

        while events:
            now, _, kind, payload = heapq.heappop(events)
            if armed_deadline is not None and now >= armed_deadline:
                armed_deadline = None        # the armed timer is due/spent
            if kind == 'arrival':
                if telemetry is not None:
                    telemetry.arrival(payload, now)
                if not batcher.offer(payload):
                    rejected.append(payload)
                    if telemetry is not None:
                        telemetry.reject(payload, now)
            elif kind == 'gpu_free':
                batch = in_flight
                in_flight = None
                for request in batch.requests:
                    completions.append(CompletedRequest(
                        request=request,
                        dispatch_time=batch.dispatch_time,
                        completion=now,
                        bucket=batch.bucket))
                if telemetry is not None:
                    telemetry.batch_done(batch, now)
            # 'timer' events carry no state — they only force the dispatch
            # attempt below at the deadline instant
            if now >= gpu_free_at and in_flight is None:
                dispatch(now)

        completions.sort(key=lambda c: (c.completion, c.request.req_id))
        return SimulationResult(completions=completions, batches=batches,
                                policy=self.policy, busy_seconds=busy_seconds,
                                rejected=rejected)


class ReferenceDecodeSimulator(DecodeSimulator):
    """The decode simulator's own event loop and lifecycle handling,
    before the shared ones."""

    def _route(self, exclude: Optional[int] = None) -> Optional[_DecodeLane]:
        """The alive lane with the most free KV (ties: shortest queue,
        lowest index) — deterministic least-loaded routing."""
        candidates = [lane for lane in self.lanes
                      if lane.alive and lane.index != exclude]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda lane: (lane.ledger.reserved_bytes,
                                     lane.batcher.pending(), lane.index))


    def run(self, trace: Sequence[Request],
            telemetry: Optional[Telemetry] = None) -> DecodeResult:
        """Replay ``trace`` to completion; deterministic.

        Every arrival ends in exactly one of: a completion record with
        ``tokens_out == output_tokens`` (token conservation), a rejection
        (queue full, oversized for the KV capacity, or no live replica),
        or a loud loss to a lane failure.
        """
        result = DecodeResult(completions=[], policy=self.policy,
                              continuous=self.continuous)
        self.lanes = []
        for _ in range(self.num_replicas):
            self._new_lane()

        events: list[tuple[float, int, str, object]] = []
        seq = itertools.count()

        def push(time: float, kind: str, payload: object = None) -> None:
            heapq.heappush(events, (time, next(seq), kind, payload))

        for request in trace:
            push(request.arrival, 'arrival', request)
        for event in self.failures:
            push(event.time, 'kill', event.replica)
            if getattr(event, 'revive_at', None) is not None:
                push(event.revive_at, 'revive', event.replica)
        for time in self.joins:
            push(time, 'lane_join')

        def begin_step(lane: _DecodeLane, now: float) -> None:
            """Admit joiners, price one iteration, schedule its end."""
            joiners: list[Request] = []
            if self.continuous or not lane.active:
                joiners = lane.batcher.next_joiners(
                    len(lane.active), lane.ledger, now=now)
            if not lane.active and not joiners:
                lane.in_flight = False
                return
            for request in joiners:
                live = _LiveRequest(request, join_time=now)
                lane.active.append(live)
                result.num_prefill_tokens += request.prompt_tokens
            width = len(lane.active)
            if not self.continuous and lane.batch_width == 0:
                lane.batch_width = width       # slots held until batch EOS
            priced = width if self.continuous else lane.batch_width
            if telemetry is not None:
                for request in joiners:
                    telemetry.decode_join(request, now, lane.index,
                                          width=priced)
            step = self.cost.decode_step_seconds(priced)
            if joiners:
                step += self.cost.prefill_seconds(
                    sum(r.prompt_tokens for r in joiners), width=priced)
            overflow = lane.ledger.overflow_bytes
            if overflow > 0:
                step += self.cost.swap_penalty_seconds(overflow)
                result.kv_overflow_steps += 1
            lane.busy_seconds += step
            result.busy_seconds += step
            result.num_decode_steps += 1
            result.width_step_sum += priced
            lane.in_flight = True
            push(now + step, 'step_end', (lane.index, lane.epoch))

        def retire(lane: _DecodeLane, live: _LiveRequest, now: float) -> None:
            """Write the completion record at the request's last token."""
            live.recorded = True
            result.completions.append(DecodedRequest(
                request=live.request, join_time=live.join_time,
                first_token_time=live.first_token_time, completion=now,
                tokens_out=live.emitted, replica=lane.index))
            if telemetry is not None:
                telemetry.decode_complete(live.request, now, lane.index,
                                          tokens=live.emitted)

        def end_step(lane: _DecodeLane, now: float) -> None:
            """Emit this iteration's tokens, retire EOS, start the next."""
            emitted = 0
            for live in lane.active:
                if live.emitted < live.request.output_tokens:
                    live.emitted += 1
                    emitted += 1
                    lane.ledger.extend(live.request.req_id, 1, now=now)
                    if live.first_token_time is None:
                        live.first_token_time = now
            result.num_decode_tokens += emitted
            if telemetry is not None:
                telemetry.decode_step(
                    now, lane.index, width=len(lane.active),
                    kv_committed_bytes=lane.ledger.committed_bytes)
            done = [live for live in lane.active
                    if live.emitted >= live.request.output_tokens]
            if self.continuous:
                # EOS leaves the batch immediately: record, free KV, free slot
                for live in done:
                    retire(lane, live, now)
                    lane.ledger.release(live.request.req_id, now=now)
                lane.active = [live for live in lane.active
                               if not live.recorded]
            else:
                # request-level regime: finished members stream their answer
                # out (record now) but their slot and KV stay pinned until
                # the whole batch reaches EOS — the cost under comparison
                for live in done:
                    if not live.recorded:
                        retire(lane, live, now)
                if len(done) == len(lane.active):
                    for live in lane.active:
                        lane.ledger.release(live.request.req_id, now=now)
                    lane.active = []
                    lane.batch_width = 0
            lane.in_flight = False
            begin_step(lane, now)

        def lose_resident(lane: _DecodeLane, now: float) -> None:
            """A dying lane's resident requests are lost with their partial
            token counts (recorded EOS survivors already completed)."""
            for live in lane.active:
                if not live.recorded:
                    result.lost.append(live.request)
                    if telemetry is not None:
                        telemetry.lost(live.request, now, replica=lane.index,
                                       tokens=live.emitted)
            lane.active = []
            lane.ledger.clear(now=now)

        def reroute(requests: list[Request], now: float,
                    dead: int) -> None:
            for request in requests:
                target = self._route(exclude=dead)
                if target is None or not target.batcher.offer(request):
                    result.lost.append(request)
                    if telemetry is not None:
                        telemetry.lost(request, now, replica=dead)
                    continue
                result.num_requeued += 1
                if telemetry is not None:
                    telemetry.requeue(request, now, target.index)
                if not target.in_flight:
                    begin_step(target, now)

        while events:
            now, _, kind, payload = heapq.heappop(events)
            if kind == 'arrival':
                request = payload
                if telemetry is not None:
                    telemetry.arrival(request, now)
                lane = self._route()
                reason = None
                if lane is None:
                    reason = 'no_replica'
                elif self._oversized(request):
                    reason = 'kv_oversized'
                elif not lane.batcher.offer(request):
                    reason = 'queue_full'
                if reason is not None:
                    result.rejected.append(request)
                    if telemetry is not None:
                        telemetry.reject(request, now, reason=reason)
                    continue
                if not lane.in_flight:
                    begin_step(lane, now)
            elif kind == 'step_end':
                lane_index, epoch = payload
                lane = self.lanes[lane_index]
                if not lane.alive or lane.epoch != epoch:
                    continue                    # stale: the lane died mid-step
                end_step(lane, now)
            elif kind == 'kill':
                if payload >= len(self.lanes):
                    continue                    # no such lane (yet)
                lane = self.lanes[payload]
                if not lane.alive:
                    continue
                lane.alive = False
                lane.epoch += 1
                lane.in_flight = False
                lane.batch_width = 0
                lose_resident(lane, now)
                if telemetry is not None:
                    telemetry.lifecycle_event('kill', now, lane.index)
                reroute(lane.batcher.drain(), now, dead=lane.index)
            elif kind == 'revive':
                if payload >= len(self.lanes):
                    continue
                lane = self.lanes[payload]
                if lane.alive:
                    continue
                lane.alive = True
                if telemetry is not None:
                    telemetry.lifecycle_event('revive', now, lane.index)
            elif kind == 'lane_join':
                lane = self._new_lane()
                if telemetry is not None:
                    telemetry.lifecycle_event('join', now, lane.index)

        for lane in self.lanes:
            result.kv_peak_bytes[lane.label] = lane.ledger.peak_committed_bytes
            result.kv_capacity_bytes[lane.label] = lane.ledger.capacity_bytes
        result.completions.sort(key=lambda c: (c.completion, c.request.req_id))
        return result



# ---------------------------------------------------------------------------
# fixtures


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


@pytest.fixture(scope='module')
def registry():
    reg = ModelRegistry()
    reg.register('cnn', tiny_cnn, max_batch=8)
    reg.register('mlp', tiny_mlp, max_batch=8)
    return reg


def overload_trace(registry, seed: int, num_requests: int = 1500):
    """1.5x the pair's batch-1 capacity: queues build, batches coalesce."""
    batch1 = sum(m.latency(1) for m in registry.models.values()) / 2
    return poisson_trace(qps=1.5 / batch1, num_requests=num_requests,
                         models=['cnn', 'mlp'], seed=seed)


def tiny_cost() -> DecodeCostModel:
    return DecodeCostModel(
        device=RTX3090, seq_length=16,
        bucket_latency={b: 1e-4 * (1 + 0.25 * i)
                        for i, b in enumerate((1, 2, 4, 8))},
        weights_bytes=1_000_000)


def chrome_json(telemetry) -> str:
    return json.dumps(telemetry.chrome_trace(), indent=1)


# ---------------------------------------------------------------------------
# the single-GPU loop


@pytest.mark.parametrize('max_queue', [None, 8])
@pytest.mark.parametrize('observed', [False, True])
@pytest.mark.parametrize('seed', [0, 3])
def test_server_matches_its_former_loop(registry, max_queue, observed, seed):
    policy = BatchingPolicy(max_batch=8, max_wait=1e-3, max_queue=max_queue)
    trace_ = overload_trace(registry, seed)
    tel_new, tel_ref = (Telemetry(), Telemetry()) if observed else (None, None)
    new = ServerSimulator(registry, policy).run(trace_, telemetry=tel_new)
    ref = ReferenceServerSimulator(registry, policy).run(trace_,
                                                          telemetry=tel_ref)
    assert new.completions == ref.completions
    assert new.batches == ref.batches
    assert new.rejected == ref.rejected
    assert new.busy_seconds == ref.busy_seconds
    assert bool(ref.rejected) == (max_queue is not None)
    if observed:
        assert chrome_json(tel_new) == chrome_json(tel_ref)


def test_dispatch_prices_each_bucket_once(registry, monkeypatch):
    """A dispatch reads its price from the lane's table: the bucket's
    modeled latency is computed once per run, not once per batch."""
    trace_ = overload_trace(registry, seed=1)
    calls = []
    latency = RegisteredModel.latency

    def counted(model, bucket):
        calls.append(bucket)
        return latency(model, bucket)

    monkeypatch.setattr(RegisteredModel, 'latency', counted)
    result = ServerSimulator(registry, BatchingPolicy(max_wait=1e-3)).run(
        trace_)
    assert len(calls) == sum(len(m.bucket_sizes)
                             for m in registry.models.values())
    assert len(result.batches) > 10 * len(calls)


# ---------------------------------------------------------------------------
# the decode loop and its lifecycle


def decode_scenario(continuous: bool, admission: str):
    trace_ = decode_trace(qps=20000, num_requests=400, seed=11,
                          prompt_tokens=(4, 16), mean_output_tokens=12,
                          max_output_tokens=48)
    span = trace_[-1].arrival
    kwargs = dict(
        policy=DecodePolicy(max_width=8, admission=admission, max_tokens=48,
                            max_waiting=24),
        kv_bytes_per_token=1, kv_capacity_bytes=56, continuous=continuous,
        num_replicas=2, record_kv_trail=True, joins=(0.5 * span,),
        # non-overlapping: a repaired outage, a permanent one, and a kill
        # of a lane that never joined
        failures=[FailureEvent(time=0.3 * span, replica=0,
                               revive_at=0.45 * span),
                  FailureEvent(time=0.6 * span, replica=1),
                  FailureEvent(time=0.7 * span, replica=9,
                               revive_at=0.8 * span)])
    return trace_, kwargs


DECODE_COUNTERS = ('busy_seconds', 'num_decode_steps', 'num_prefill_tokens',
                   'num_decode_tokens', 'kv_overflow_steps', 'width_step_sum',
                   'num_requeued', 'kv_peak_bytes', 'kv_capacity_bytes')


@pytest.mark.parametrize('continuous', [True, False])
@pytest.mark.parametrize('admission', ['reserve', 'unbounded'])
@pytest.mark.parametrize('observed', [False, True])
def test_decode_matches_its_former_loop(continuous, admission, observed):
    trace_, kwargs = decode_scenario(continuous, admission)
    new_sim = DecodeSimulator(tiny_cost(), **kwargs)
    ref_sim = ReferenceDecodeSimulator(tiny_cost(), **kwargs)
    tel_new, tel_ref = (Telemetry(), Telemetry()) if observed else (None, None)
    new = new_sim.run(trace_, telemetry=tel_new)
    ref = ref_sim.run(trace_, telemetry=tel_ref)
    assert new.completions == ref.completions
    assert new.rejected == ref.rejected
    assert new.lost == ref.lost
    for name in DECODE_COUNTERS:
        assert getattr(new, name) == getattr(ref, name), name
    assert ([lane.ledger.trail for lane in new_sim.lanes]
            == [lane.ledger.trail for lane in ref_sim.lanes])
    # the scenario reaches every lifecycle path it is meant to cover
    assert ref.lost and ref.num_requeued and ref.rejected
    assert len(ref_sim.lanes) == 3
    if admission == 'unbounded':
        assert ref.kv_overflow_steps > 0
    if observed:
        assert chrome_json(tel_new) == chrome_json(tel_ref)


def test_noop_kill_does_not_end_an_outage_early():
    """A second failure while lane 0 is already down is a no-op, and so is
    its repair: the lane stays down until its own repair at 0.9 x span.
    The former decode loop scheduled every failure's revive and brought the
    lane back at 0.3 x span."""
    trace_ = decode_trace(qps=4000, num_requests=400, seed=5,
                          prompt_tokens=(4, 16), mean_output_tokens=12,
                          max_output_tokens=48)
    span = trace_[-1].arrival
    kwargs = dict(policy=DecodePolicy(max_width=8, max_tokens=48),
                  num_replicas=2,
                  failures=[FailureEvent(time=0.1 * span, replica=0,
                                         revive_at=0.9 * span),
                            FailureEvent(time=0.2 * span, replica=0,
                                         revive_at=0.3 * span)])

    def outage_joins(result):
        return [c for c in result.completions if c.replica == 0
                and 0.1 * span < c.join_time < 0.9 * span]

    telemetry = Telemetry()
    result = DecodeSimulator(tiny_cost(), **kwargs).run(trace_, telemetry)
    assert outage_joins(result) == []
    assert [i.time for i in telemetry.tracer.instants
            if i.name == 'lifecycle:revive'] == [0.9 * span]
    assert len(trace_) == (len(result.completions) + len(result.rejected)
                           + len(result.lost))
    former = ReferenceDecodeSimulator(tiny_cost(), **kwargs).run(trace_)
    assert outage_joins(former)


# ---------------------------------------------------------------------------
# the null telemetry


TELEMETRY_VERBS = [name for name, value in vars(Telemetry).items()
                   if callable(value) and not name.startswith('_')
                   and name not in ('chrome_trace', 'write_chrome_trace')]


def test_null_telemetry_speaks_every_verb_and_records_nothing():
    assert not isinstance(NULL_TELEMETRY, Telemetry)
    assert NULL_TELEMETRY.tracer is None and NULL_TELEMETRY.metrics is None
    for name in TELEMETRY_VERBS:
        assert getattr(NullTelemetry, name) is NullTelemetry._ignore, name


def test_unobserved_runs_never_enter_telemetry(registry, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError('an unobserved run called Telemetry')

    for name in TELEMETRY_VERBS:
        monkeypatch.setattr(Telemetry, name, boom)
    server = ServerSimulator(registry, BatchingPolicy(max_wait=1e-3,
                                                      max_queue=8))
    server.run(overload_trace(registry, seed=2, num_requests=300)).stats(
        registry)
    trace_, kwargs = decode_scenario(True, 'reserve')
    DecodeSimulator(tiny_cost(), **kwargs).run(trace_).stats()
    fleet = Fleet([RTX3090, RTX3090])
    fleet.register('cnn', tiny_cnn, max_batch=4)
    fleet_trace = poisson_trace(6000, 300, ['cnn'], seed=4)
    kill_at = fleet_trace[100].arrival
    result = FleetSimulator(
        fleet, BatchingPolicy(max_batch=4, max_wait=1e-3),
        failures=[FailureEvent(time=kill_at, replica=0,
                               revive_at=kill_at + 0.01)]).run(fleet_trace)
    assert [e.kind for e in result.events] == ['kill', 'revive']
    result.stats()
