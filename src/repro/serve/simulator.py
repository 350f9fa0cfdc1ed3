"""Discrete-event serving simulators over modeled kernel latencies.

Replays a request trace against a :class:`~repro.serve.registry.ModelRegistry`
through a :class:`~repro.serve.batcher.DynamicBatcher`.  Time is entirely
simulated: a dispatched batch occupies the GPU for the bucket's modeled
latency (the sum of its kernels' ``gpusim`` latencies plus launch overhead),
so a run over millions of simulated requests costs milliseconds of host time
and is exactly reproducible.

Every simulator runs on the one event loop of
:class:`~repro.serve.engine.ReplicaEngine`.  :class:`DispatchEngine` is its
dynamic-batching step, shared by the single-GPU :class:`ServerSimulator` (one
replica, no lifecycle) and the :class:`~repro.serve.fleet.FleetSimulator`:

* ``arrival``  — a trace request joins its model's queue;
* ``gpu_free`` — the in-flight batch completes, its requests are recorded;
* ``timer``    — a head-of-line wait deadline fires (the batcher's
  ``max_wait`` knob) so a partial batch can dispatch on an idle GPU.

After each of a replica's events, if its GPU is idle the batcher is asked
for a ready batch; otherwise requests keep coalescing, which is how dynamic
batching converts queueing delay into occupancy under load.
:class:`DecodeSimulator` is the same loop with a decode iteration as the
step.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from ..gpusim.decode import DecodeCostModel
from ..obs import NULL_TELEMETRY, Columns, Telemetry
from .batcher import (Batch, BatchingPolicy, ContinuousBatcher, DecodePolicy,
                      DynamicBatcher)
from .engine import Lane, ReplicaEngine
from .memory import KVCacheLedger
from .registry import ModelRegistry
from .stats import ServeStats, compute_stats
from .trace import Request

__all__ = ['ServerSimulator', 'SimulationResult', 'CompletedRequest',
           'DispatchEngine', 'DecodeSimulator', 'DecodeResult',
           'DecodedRequest', 'RunRecord']

#: host-side cost of launching one coalesced batch (queue pop, tensor
#: gather/scatter for padding) — charged per dispatch, not per request
BATCH_OVERHEAD_SECONDS = 20e-6


@dataclass(frozen=True)
class CompletedRequest:
    """One request's lifecycle: arrival -> batch dispatch -> completion.

    A run keeps these as columns (:class:`RunRecord`) and builds the
    records when its result's ``completions`` are read.  All times are
    simulated **seconds** since trace start; ``bucket`` is the compiled
    batch bucket that served the request and ``replica`` the fleet replica
    it ran on (0 under the single-GPU simulator).  ``requeued`` marks a
    request that survived a replica failure: it was queued on the dead
    replica and re-admitted elsewhere, so its latency includes the outage
    (always ``False`` under the single-GPU simulator).
    """

    request: Request
    dispatch_time: float
    completion: float
    bucket: int
    replica: int = 0
    requeued: bool = False

    @property
    def latency(self) -> float:
        """End-to-end seconds: arrival to completion (queueing + service)."""
        return self.completion - self.request.arrival

    @property
    def queueing_delay(self) -> float:
        """Seconds spent queued before the serving batch dispatched."""
        return self.dispatch_time - self.request.arrival


class RunRecord:
    """What one run recorded, as columns (:class:`~repro.obs.Columns`).

    ``done`` holds a row per completed request, a ``kind`` record
    (:class:`CompletedRequest` or :class:`DecodedRequest`), in the order the
    run recorded them.  ``batches`` holds a row per dispatched batch, in
    dispatch order: a completed batch's requests are the ``count``
    completion rows from row ``first``, and a batch lost mid-flight keeps
    ``first == -1``.  A decode run dispatches no batches.

    :meth:`close` fixes the order the views and the stats fold read the
    completions in: by completion time, then request id.
    """

    __slots__ = ('done', 'batches', 'order')

    def __init__(self, kind):
        self.done = Columns(kind)
        self.batches = Columns(Batch, 'requests', first=int, count=int)
        self.order = None

    def __eq__(self, other) -> bool:
        return (isinstance(other, RunRecord) and self.done == other.done
                and self.batches == other.batches)

    def close(self) -> None:
        """The run ended: order the completions for reading."""
        req_ids = [request.req_id for request in self.done['request']]
        self.order = np.lexsort((req_ids, self.done.numpy('completion')))

    def completions(self) -> list:
        """Every completion record, a new list on each call."""
        return self.done.rows(self.order)

    def batch_records(self) -> list[Batch]:
        """Every completed batch, in dispatch order; a new list on each
        call."""
        kept = np.flatnonzero(self.batches.numpy('first') >= 0).tolist()
        first, count = self.batches['first'], self.batches['count']
        requests = self.done['request']
        return self.batches.rows(kept, requests=[
            requests[first[row]:first[row] + count[row]] for row in kept])

    def completed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(arrival, completion, size)`` of every completed request, in
        the order of :meth:`completions`."""
        requests = self.done['request']
        n = len(requests)
        arrival = np.fromiter(map(_arrival, requests), float, n)
        size = np.fromiter(map(_size, requests), np.int64, n)
        order = self.order
        return (arrival[order], self.done.numpy('completion')[order],
                size[order])

    def dispatched(self) -> tuple[np.ndarray, np.ndarray]:
        """``(bucket, size)`` of every completed batch, in dispatch order."""
        kept = self.batches.numpy('first') >= 0
        return (self.batches.numpy('bucket')[kept],
                self.batches.numpy('size')[kept])


_arrival = attrgetter('arrival')
_size = attrgetter('size')


class _View(list):
    """A record view a result handed out.  Editing it makes the result keep
    it, so later reads return the edited list, as they did when results
    held their records as lists; an unedited view is built anew on each
    read and leaves nothing on the result.  Copies are plain lists."""

    __slots__ = ('_result', '_name')

    def __reduce_ex__(self, protocol):
        return list, (list(self),)


def _keeps(method):
    def edit(self, *args, **kwargs):
        vars(self._result)[self._name] = self
        return method(self, *args, **kwargs)
    return edit


for _method in ('__setitem__', '__delitem__', '__iadd__', '__imul__',
                'append', 'extend', 'insert', 'pop', 'remove', 'clear',
                'sort', 'reverse'):
    setattr(_View, _method, _keeps(getattr(list, _method)))


class _RecordViews:
    """Builds a result's record views from its ``record``; changing one
    changes nothing recorded."""

    def _view(self, name: str, build) -> list:
        kept = vars(self).get(name)
        if kept is None:
            kept = _View(build())
            kept._result, kept._name = self, name
        return kept


class _DispatchViews(_RecordViews):
    """The record views of a dynamic-batching run's result."""

    @property
    def completions(self) -> list[CompletedRequest]:
        """Every admitted request's lifecycle record, by completion time
        then request id."""
        return self._view('_completions', self.record.completions)

    @property
    def batches(self) -> list[Batch]:
        """The dispatched coalesced batches that completed, in dispatch
        order."""
        return self._view('_batches', self.record.batch_records)


@dataclass
class SimulationResult(_DispatchViews):
    """Everything a finished run produced.

    ``record`` holds what the run recorded as columns; ``completions``
    (every admitted request's lifecycle record) and ``batches`` (the
    dispatched coalesced batches in dispatch order) are built from it on
    each access.  ``rejected`` holds the requests admission control turned
    away at arrival (empty unless the policy sets ``max_queue``).
    """

    policy: BatchingPolicy
    record: RunRecord = field(repr=False)
    #: simulated seconds the GPU spent serving batches
    busy_seconds: float = 0.0
    #: arrivals turned away by admission control (policy.max_queue)
    rejected: list[Request] = field(default_factory=list)

    def stats(self, registry: Optional[ModelRegistry] = None,
              cold_start_seconds: Optional[float] = None,
              telemetry: Optional[Telemetry] = None) -> ServeStats:
        """Fold the run into a :class:`~repro.serve.stats.ServeStats`.

        ``registry`` contributes compile-side accounting (cache traffic and
        the cold-start tuning bill); ``cold_start_seconds`` overrides the
        latter (e.g. zero for a registry warmed from a persisted cache).
        ``telemetry`` (the instance the run recorded into) merges its
        ``sim.*`` gauges into ``stats.metrics``.
        """
        return compute_stats(self, registry, cold_start_seconds, telemetry)


class _DispatchLane(Lane):
    """One replica's dynamic-batching state."""

    __slots__ = ('prices', 'gpu_free_at', 'armed', 'row')

    def __init__(self, index: int, batcher: DynamicBatcher, now: float):
        super().__init__(index, batcher)
        #: (model, bucket) -> seconds one dispatch holds the GPU
        self.prices: dict[tuple[str, int], float] = {}
        self.gpu_free_at = now           # the GPU is idle iff now >= this
        self.armed: Optional[float] = None   # earliest pending timer
        self.row = -1                    # the in-flight batch's record row


class DispatchEngine(ReplicaEngine):
    """The dynamic-batching step: per replica, a batcher that dispatches a
    coalesced batch whenever the GPU is idle and a batch is ready.

    A batch holds the GPU for its bucket's modeled latency plus
    ``batch_overhead``, read from the lane's price table, which is filled
    whenever a model is added to the lane's batcher.  On its own the engine
    serves one replica with no lifecycle (:class:`ServerSimulator`);
    :class:`~repro.serve.fleet.FleetSimulator` adds routing, autoscaling and
    failures.
    """

    def __init__(self, policy: BatchingPolicy, batch_overhead: float):
        super().__init__()
        self.policy = policy
        self.batch_overhead = batch_overhead

    def _start(self, telemetry: Optional[Telemetry]) -> None:
        super()._start(telemetry)
        self._record = RunRecord(CompletedRequest)
        self._requeued_ids: set[int] = set()
        self._touched: set[int] = set()

    def _add_lane(self, registry: ModelRegistry,
                  now: float = 0.0) -> _DispatchLane:
        lane = _DispatchLane(len(self.lanes),
                             DynamicBatcher(self.policy, registry.bucket_map()),
                             now)
        for name in registry.models:
            self._price(lane, registry, name)
        self.lanes.append(lane)
        return lane

    def _price(self, lane: _DispatchLane, registry: ModelRegistry,
               name: str) -> None:
        model = registry[name]
        for bucket in model.bucket_sizes:
            lane.prices[name, bucket] = (model.latency(bucket)
                                         + self.batch_overhead)

    def _finish(self) -> RunRecord:
        self._record.close()
        return self._record

    # -- events ----------------------------------------------------------------

    def _route(self, request: Request, now: float) -> Optional[int]:
        """The one GPU (the fleet routes through its placement policy)."""
        return 0

    def _reject(self, request: Request, now: float, replica: int) -> None:
        """Admission control turned ``request`` away; on a single GPU the
        trace records the rejection on no replica's track."""
        self.rejected.append(request)
        self.telemetry.reject(request, now)

    def _arrival(self, now: float, request: Request) -> None:
        self.telemetry.arrival(request, now)
        replica = self._route(request, now)
        if replica is None:
            self._lose(request, now, reason='failure:no_live_host')
        elif not self.lanes[replica].batcher.offer(request):
            self._reject(request, now, replica)
        else:
            self._kick(self.lanes[replica], now)

    def _gpu_free(self, now: float, replica: int, epoch: int) -> None:
        lane = self.lanes[replica]
        if epoch != lane.epoch:
            return                       # stale: the replica died mid-batch
        batch = lane.in_flight
        lane.in_flight = None
        record, requests = self._record, batch.requests
        record.batches['first'][lane.row] = len(record.done)
        requeued = self._requeued_ids
        record.done.extend(
            len(requests), requests, batch.dispatch_time, now, batch.bucket,
            replica,
            [request.req_id in requeued for request in requests]
            if requeued else False)
        self.telemetry.batch_done(batch, now)
        self._completed(lane, batch, now)
        self._kick(lane, now)

    def _timer(self, now: float, replica: int, *_) -> None:
        # a timer carries no state: it forces a dispatch attempt at the
        # deadline instant
        self._kick(self.lanes[replica], now)

    def _completed(self, lane: _DispatchLane, batch: Batch,
                   now: float) -> None:
        """``batch`` finished on ``lane`` (its completions are recorded)."""

    def _kick(self, lane: _DispatchLane, now: float) -> None:
        if lane.armed is not None and now >= lane.armed:
            lane.armed = None            # the armed timer is due/spent
        if now >= lane.gpu_free_at and lane.in_flight is None:
            self._dispatch(lane, now)

    def _dispatch(self, lane: _DispatchLane, now: float) -> None:
        """Put a ready batch on ``lane``'s idle GPU, or arm a timer for
        the next wait deadline so a partial batch still dispatches."""
        if not lane.alive:
            return
        batcher = lane.batcher
        batch = batcher.pop_ready(now)
        if batch is None:
            # one armed timer per deadline: every idle event lands here, so
            # unconditional pushes would flood the heap with duplicates
            deadline = batcher.next_deadline()
            if deadline is not None:
                when = max(deadline, now)
                if lane.armed is None or when < lane.armed:
                    self._push(when, self._timer, lane.index)
                    lane.armed = when
            return
        batch.replica = lane.index
        service = lane.prices[batch.model, batch.bucket]
        lane.gpu_free_at = now + service
        lane.busy_seconds += service
        lane.in_flight = batch
        lane.row = self._record.batches.append(
            batch.model, batch.bucket, now, batch.size, lane.index, -1,
            len(batch.requests))
        if self.telemetry is not NULL_TELEMETRY:
            # the queue depth only feeds the trace: an unobserved run skips it
            self.telemetry.batch_formed(batch, lane.index, now,
                                        queued_after=batcher.pending())
        self._push(lane.gpu_free_at, self._gpu_free, lane.index, lane.epoch)

    # -- lifecycle -------------------------------------------------------------

    def _abort(self, lane: _DispatchLane, now: float) -> None:
        lane.armed = None
        batch = lane.in_flight
        lane.in_flight = None
        if batch is not None:
            # the GPU died mid-batch: its requests are lost and the unspent
            # service time is given back; the batch's record row never
            # completes, so the record does not count work also counted as
            # lost
            lane.busy_seconds -= max(0.0, lane.gpu_free_at - now)
            lane.gpu_free_at = now
            for request in batch.requests:
                self._lose(request, now, replica=lane.index,
                           reason='failure:in_flight')

    def _readmitted(self, request: Request, lane: _DispatchLane,
                    now: float) -> None:
        # dispatch waits until the whole queue is re-admitted, so the
        # survivors batch the re-admitted requests together
        self._requeued_ids.add(request.req_id)
        self._touched.add(lane.index)

    def _refused(self, request: Request, now: float, dead: int) -> None:
        self._lose(request, now, reason='failure:readmit_refused')

    def _kill(self, now: float, replica: int, failure) -> None:
        super()._kill(now, replica, failure)
        for target in sorted(self._touched):
            lane = self.lanes[target]
            if now >= lane.gpu_free_at and lane.in_flight is None:
                self._dispatch(lane, now)
        self._touched.clear()


class ServerSimulator:
    """Replay request traces against a registry with dynamic batching.

    Args:
        registry: the compiled models to serve; every trace request's model
            must be registered and its coalesced batch must fit a compiled
            bucket.
        policy: the batcher's dispatch knobs (``max_batch`` samples,
            ``max_wait`` seconds, optional ``max_queue`` admission bound).
        batch_overhead: host-side seconds charged per dispatched batch
            (queue pop, gather/scatter for padding), on top of the bucket's
            modeled GPU latency.

    ``run`` is deterministic: the same trace produces the same completions,
    batch for batch.  The simulator holds no mutable state between runs.
    """

    def __init__(self, registry: ModelRegistry,
                 policy: Optional[BatchingPolicy] = None,
                 batch_overhead: float = BATCH_OVERHEAD_SECONDS):
        self.registry = registry
        # a fresh default per instance — a module-load-time shared default
        # would alias every simulator constructed without a policy
        self.policy = policy if policy is not None else BatchingPolicy()
        self.batch_overhead = batch_overhead

    def run(self, trace: Sequence[Request],
            telemetry: Optional[Telemetry] = None) -> SimulationResult:
        """Replay ``trace`` (any order; sorted internally) to completion.

        Returns a :class:`SimulationResult` whose ``completions`` cover
        every admitted request; with ``policy.max_queue`` set, turned-away
        arrivals land in ``result.rejected`` instead of completing.

        ``telemetry`` (one per run — request ids restart per trace) records
        the run as spans and sampled gauges; ``None`` keeps the simulator
        observation-free.
        """
        engine = DispatchEngine(self.policy, self.batch_overhead)
        engine._start(telemetry)
        lane = engine._add_lane(self.registry)
        engine._loop(trace)
        return SimulationResult(policy=self.policy, record=engine._finish(),
                                busy_seconds=lane.busy_seconds,
                                rejected=engine.rejected)


# ---------------------------------------------------------------------------
# iteration-level (continuous) decode serving


@dataclass(frozen=True)
class DecodedRequest:
    """One decode request's lifecycle: arrival -> join -> EOS.

    Like :class:`CompletedRequest`, built from the run's columns on access.
    ``join_time`` is when the request entered the running batch (prefill),
    ``first_token_time`` when its first output token landed, ``completion``
    when its last token did.  ``tokens_out`` always equals the request's
    sampled ``output_tokens`` — a request that could not finish is *lost*,
    never silently truncated.
    """

    request: Request
    join_time: float
    first_token_time: float
    completion: float
    tokens_out: int
    replica: int = 0

    @property
    def latency(self) -> float:
        """End-to-end seconds: arrival to last token."""
        return self.completion - self.request.arrival

    @property
    def queueing_delay(self) -> float:
        """Seconds waited before joining the running batch."""
        return self.join_time - self.request.arrival

    @property
    def time_to_first_token(self) -> float:
        """Seconds from arrival to the first output token."""
        return self.first_token_time - self.request.arrival


@dataclass
class DecodeResult(_RecordViews):
    """Everything a finished decode run produced (token granularity).

    ``record`` holds the completion rows as columns; ``completions`` builds
    them as :class:`DecodedRequest` records on each access.
    """

    policy: DecodePolicy
    continuous: bool
    record: RunRecord = field(repr=False)
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
    def completions(self) -> list[DecodedRequest]:
        """Every completed request's record, by completion time then
        request id."""
        return self._view('_completions', self.record.completions)

    @property
    def mean_decode_width(self) -> float:
        if self.num_decode_steps == 0:
            return 0.0
        return self.width_step_sum / self.num_decode_steps

    def stats(self, telemetry: Optional[Telemetry] = None) -> ServeStats:
        """Fold the run into a token-aware :class:`ServeStats`."""
        return compute_stats(self, telemetry=telemetry)


class _LiveRequest:
    """A request resident in a decode batch (mutable simulator state)."""

    __slots__ = ('request', 'join_time', 'emitted', 'first_token_time',
                 'recorded')

    def __init__(self, request: Request, join_time: float):
        self.request = request
        self.join_time = join_time
        self.emitted = 0
        self.first_token_time: Optional[float] = None
        self.recorded = False       # completion record written (EOS reached)


class _DecodeLane(Lane):
    """One replica's decode state: running batch, KV ledger, join queue."""

    __slots__ = ('label', 'ledger', 'active', 'batch_width')

    def __init__(self, index: int, policy: DecodePolicy,
                 kv_capacity_bytes: int, kv_bytes_per_token: int,
                 strict: bool, record_trail: bool):
        super().__init__(index, ContinuousBatcher(policy))
        self.label = f'r{index}'
        self.ledger = KVCacheLedger(kv_capacity_bytes, kv_bytes_per_token,
                                    label=f'{self.label}:kv', strict=strict,
                                    record_trail=record_trail)
        self.active: list[_LiveRequest] = []
        self.batch_width = 0        # request-level mode: slots held per batch


class DecodeSimulator(ReplicaEngine):
    """Iteration-level decode serving over a prefill/decode cost model.

    Time advances in *decode iterations*: every iteration emits one token
    for each active sequence, priced by :class:`DecodeCostModel` at the
    batch's width; under ``continuous=True`` requests join the running
    batch at any iteration boundary (and leave the instant they emit EOS),
    while ``continuous=False`` replays the request-level regime — a batch
    forms only when the lane is empty and every slot (and its KV) is held
    until the *longest* member finishes.  Admission against each lane's
    :class:`~repro.serve.memory.KVCacheLedger` follows
    ``policy.admission``: ``reserve`` guarantees committed KV never exceeds
    ``kv_capacity_bytes``, ``unbounded`` lets it spill and pays the cost
    model's per-step host-swap penalty.

    ``num_replicas`` lanes serve in parallel (arrivals route to the lane
    with the most free KV); ``failures`` (``FailureEvent``-shaped: time,
    replica, optional revive_at) kill lanes mid-trace — their resident
    requests are *lost loudly* with partial token counts, queued requests
    re-route to survivors — and ``joins`` (times) add fresh lanes mid-trace
    (autoscale-style scale-up).  The loop and the failure handling are the
    fleet's (:class:`~repro.serve.engine.ReplicaEngine`); the step is one
    decode iteration.  Deterministic: one trace, one result.
    """

    def __init__(self, cost: DecodeCostModel,
                 policy: Optional[DecodePolicy] = None,
                 kv_bytes_per_token: int = 1,
                 kv_capacity_bytes: Optional[int] = None,
                 continuous: bool = True, num_replicas: int = 1,
                 failures: Optional[Sequence] = None,
                 joins: Sequence[float] = (),
                 record_kv_trail: bool = False):
        super().__init__()
        self.cost = cost
        self.policy = policy if policy is not None else DecodePolicy()
        if self.policy.max_width > cost.max_width:
            raise ValueError(
                f'policy max_width={self.policy.max_width} exceeds the '
                f'widest compiled bucket ({cost.max_width})')
        if kv_bytes_per_token < 1:
            raise ValueError('kv_bytes_per_token must be >= 1')
        if num_replicas < 1:
            raise ValueError('num_replicas must be >= 1')
        self.kv_bytes_per_token = int(kv_bytes_per_token)
        if kv_capacity_bytes is None:
            kv_capacity_bytes = cost.device.memory_bytes - cost.weights_bytes
        if kv_capacity_bytes < kv_bytes_per_token:
            raise ValueError(
                f'kv_capacity_bytes={kv_capacity_bytes} cannot hold even '
                f'one token at {kv_bytes_per_token} bytes/token')
        self.kv_capacity_bytes = int(kv_capacity_bytes)
        self.continuous = continuous
        self.num_replicas = num_replicas
        # accept a FailureInjector or a plain sequence of FailureEvents
        self.failures = tuple(getattr(failures, 'events', failures or ()))
        self.joins = tuple(sorted(float(t) for t in joins))
        self.record_kv_trail = record_kv_trail

    # -- helpers -------------------------------------------------------------

    def _new_lane(self) -> _DecodeLane:
        lane = _DecodeLane(len(self.lanes), self.policy,
                           self.kv_capacity_bytes, self.kv_bytes_per_token,
                           strict=(self.policy.admission == 'reserve'),
                           record_trail=self.record_kv_trail)
        self.lanes.append(lane)
        return lane

    def _route(self, request: Request, now: float) -> Optional[int]:
        """The alive lane with the most free KV (ties: shortest queue,
        lowest index) — deterministic least-loaded routing."""
        candidates = [lane for lane in self.lanes if lane.alive]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda lane: (lane.ledger.reserved_bytes,
                                     lane.batcher.pending(), lane.index)).index

    def _oversized(self, request: Request) -> bool:
        """Under reserve admission, a request whose worst-case KV exceeds
        an *empty* lane's capacity could never join: reject it loudly at
        arrival instead of deadlocking the queue."""
        if self.policy.admission != 'reserve':
            return False
        worst = ((request.prompt_tokens + request.output_tokens)
                 * self.kv_bytes_per_token)
        return worst > self.kv_capacity_bytes

    def run(self, trace: Sequence[Request],
            telemetry: Optional[Telemetry] = None) -> DecodeResult:
        """Replay ``trace`` to completion; deterministic.

        Every arrival ends in exactly one of: a completion record with
        ``tokens_out == output_tokens`` (token conservation), a rejection
        (queue full, oversized for the KV capacity, or no live replica),
        or a loud loss to a lane failure.
        """
        self._start(telemetry)
        result = self._result = DecodeResult(
            policy=self.policy, continuous=self.continuous,
            record=RunRecord(DecodedRequest), rejected=self.rejected,
            lost=self.lost)
        for _ in range(self.num_replicas):
            self._new_lane()
        for event in self.failures:
            self._push(event.time, self._kill, event.replica, event)
        for time in self.joins:
            self._push(time, self._join)
        self._loop(trace)
        self._result = None
        result.num_requeued = self.num_requeued
        for lane in self.lanes:
            result.kv_peak_bytes[lane.label] = lane.ledger.peak_committed_bytes
            result.kv_capacity_bytes[lane.label] = lane.ledger.capacity_bytes
        result.record.close()
        return result

    # -- events ----------------------------------------------------------------

    def _arrival(self, now: float, request: Request) -> None:
        self.telemetry.arrival(request, now)
        replica = self._route(request, now)
        reason = None
        if replica is None:
            reason = 'no_replica'
        elif self._oversized(request):
            reason = 'kv_oversized'
        elif not self.lanes[replica].batcher.offer(request):
            reason = 'queue_full'
        if reason is not None:
            self.rejected.append(request)
            self.telemetry.reject(request, now, reason=reason)
            return
        self._kick(self.lanes[replica], now)

    def _join(self, now: float, *_) -> None:
        self._event(now, 'join', self._new_lane().index)

    # -- the step: one decode iteration ------------------------------------------

    def _kick(self, lane: _DecodeLane, now: float) -> None:
        if not lane.in_flight:
            self._begin_step(lane, now)

    def _begin_step(self, lane: _DecodeLane, now: float) -> None:
        """Admit joiners, price one iteration, schedule its end."""
        result = self._result
        joiners: list[Request] = []
        if self.continuous or not lane.active:
            joiners = lane.batcher.next_joiners(
                len(lane.active), lane.ledger, now=now)
        if not lane.active and not joiners:
            lane.in_flight = False
            return
        for request in joiners:
            lane.active.append(_LiveRequest(request, join_time=now))
            result.num_prefill_tokens += request.prompt_tokens
        width = len(lane.active)
        if not self.continuous and lane.batch_width == 0:
            lane.batch_width = width       # slots held until batch EOS
        priced = width if self.continuous else lane.batch_width
        for request in joiners:
            self.telemetry.decode_join(request, now, lane.index, width=priced)
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
        self._push(now + step, self._end_step, lane.index, lane.epoch)

    def _retire(self, lane: _DecodeLane, live: _LiveRequest,
                now: float) -> None:
        """Write the completion record at the request's last token."""
        live.recorded = True
        self._result.record.done.append(
            live.request, live.join_time, live.first_token_time, now,
            live.emitted, lane.index)
        self.telemetry.decode_complete(live.request, now, lane.index,
                                       tokens=live.emitted)

    def _end_step(self, now: float, replica: int, epoch: int) -> None:
        """Emit this iteration's tokens, retire EOS, start the next."""
        lane = self.lanes[replica]
        if not lane.alive or lane.epoch != epoch:
            return                      # stale: the lane died mid-step
        emitting: list[int] = []
        for live in lane.active:
            if live.emitted < live.request.output_tokens:
                live.emitted += 1
                emitting.append(live.request.req_id)
                if live.first_token_time is None:
                    live.first_token_time = now
        lane.ledger.emit(emitting, now=now)
        self._result.num_decode_tokens += len(emitting)
        self.telemetry.decode_step(
            now, lane.index, width=len(lane.active),
            kv_committed_bytes=lane.ledger.committed_bytes)
        done = [live for live in lane.active
                if live.emitted >= live.request.output_tokens]
        if self.continuous:
            # EOS leaves the batch immediately: record, free KV, free slot
            for live in done:
                self._retire(lane, live, now)
                lane.ledger.release(live.request.req_id, now=now)
            lane.active = [live for live in lane.active if not live.recorded]
        else:
            # request-level regime: finished members stream their answer
            # out (record now) but their slot and KV stay pinned until
            # the whole batch reaches EOS — the cost under comparison
            for live in done:
                if not live.recorded:
                    self._retire(lane, live, now)
            if len(done) == len(lane.active):
                for live in lane.active:
                    lane.ledger.release(live.request.req_id, now=now)
                lane.active = []
                lane.batch_width = 0
        lane.in_flight = False
        self._begin_step(lane, now)

    def _abort(self, lane: _DecodeLane, now: float) -> None:
        """A dying lane's resident requests are lost with their partial
        token counts (recorded EOS survivors already completed)."""
        lane.in_flight = False
        lane.batch_width = 0
        for live in lane.active:
            if not live.recorded:
                self._lose(live.request, now, replica=lane.index,
                           tokens=live.emitted)
        lane.active = []
        lane.ledger.clear(now=now)
