"""Serving records kept as columns, against the objects they replaced.

A replay records its completions, batches and spans as columns of plain
scalars (:class:`repro.obs.Columns`), so a long replay leaves no tracked
object per request for the cyclic garbage collector to walk again on
every full collection.  :class:`ReferenceTracer` below is the tracer that
kept one object per span, verbatim but for its name; the column tracer
must match it exactly on runs that reject, requeue and lose requests: the
records, the Chrome trace, the audit and the tallies.  The record views of
the simulators' results are checked against the former event loops in
``test_event_loop.py``.
"""
import copy
import gc
import json
from collections import Counter
from typing import Optional

import pytest

from repro.gpusim import DecodeCostModel, RTX3090
from repro.graph import ops, symbol, trace
from repro.models.common import WeightFactory, conv_bn_relu, linear
from repro.obs import Telemetry, Tracer
from repro.obs.tracing import (LIFECYCLE_TRACK, TERMINAL_KINDS, BatchSpan,
                               Instant, RequestSpan)
from repro.serve import (BatchingPolicy, DecodePolicy, DecodeSimulator,
                         FailureEvent, Fleet, FleetSimulator,
                         LeastLoadedPlacement, ModelRegistry, Request,
                         ServerSimulator, decode_trace, poisson_trace)


class ReferenceTracer:
    """Record one run's spans; export and audit them afterwards."""

    def __init__(self):
        self.request_spans: list[RequestSpan] = []
        self.batch_spans: list[BatchSpan] = []
        self.instants: list[Instant] = []
        self._open: dict[int, RequestSpan] = {}
        self._by_id: dict[int, RequestSpan] = {}
        self._violations: list[str] = []
        self._thread_names: dict[int, str] = {}

    # -- recording (called by the simulators / batcher / autoscaler) ---------

    def set_track_name(self, replica: int, name: str) -> None:
        """Name a replica's export track (e.g. ``r0:RTX3090``)."""
        self._thread_names[replica] = name

    def arrival(self, request, now: float,
                replica: Optional[int] = None) -> None:
        """A trace request arrived (every request's span starts here)."""
        if request.req_id in self._by_id:
            self._violations.append(
                f'duplicate arrival for request {request.req_id} '
                f'(one tracer records one run)')
            return
        span = RequestSpan(req_id=request.req_id, model=request.model,
                           size=request.size, arrival=now, replica=replica)
        self._open[request.req_id] = span
        self._by_id[request.req_id] = span
        self.request_spans.append(span)

    def _terminate(self, req_id: int, kind: str, now: float,
                   replica: Optional[int], reason: str) -> None:
        span = self._open.pop(req_id, None)
        if span is None:
            known = self._by_id.get(req_id)
            if known is not None:
                self._violations.append(
                    f'request {req_id} terminated twice: '
                    f'{known.terminal!r} then {kind!r}')
            else:
                self._violations.append(
                    f'request {req_id} terminated ({kind!r}) without an '
                    f'arrival')
            return
        span.terminal = kind
        span.terminal_time = now
        span.reason = reason
        if replica is not None:
            span.replica = replica

    def reject(self, request, now: float, replica: Optional[int] = None,
               reason: str = 'admission') -> None:
        """Admission control turned the request away (terminal)."""
        self._terminate(request.req_id, 'reject', now, replica, reason)

    def lost(self, request, now: float, replica: Optional[int] = None,
             reason: str = 'failure', tokens: int = 0) -> None:
        """The request was lost — replica death, or nowhere to re-home
        (terminal).  ``tokens`` records how many output tokens a decode
        request had emitted before the loss (the loud partial count)."""
        span = self._open.get(request.req_id)
        if span is not None and tokens:
            span.tokens_emitted = tokens
        self._terminate(request.req_id, 'lost', now, replica, reason)

    def decode_join(self, request, now: float, replica: int,
                    width: Optional[int] = None) -> None:
        """A decode request joined a running batch: its prefill dispatches
        here (not terminal; tokens stream until EOS or loss).  ``width`` is
        the decode-batch width it joined at, recorded as the span's bucket."""
        span = self._open.get(request.req_id)
        if span is not None:
            span.dispatch_time = now
            span.bucket = width
            span.replica = replica
            span.prompt_tokens = getattr(request, 'prompt_tokens', 0)

    def decode_complete(self, request, now: float, replica: int,
                        tokens: int) -> None:
        """A decode request emitted its EOS token after ``tokens`` output
        tokens (terminal)."""
        span = self._open.get(request.req_id)
        if span is not None:
            span.tokens_emitted = tokens
        self._terminate(request.req_id, 'complete', now, replica, reason='')

    def requeue(self, request, now: float, replica: int) -> None:
        """The request survived its replica's death and re-admitted on
        ``replica`` (not terminal; its span continues there)."""
        span = self._open.get(request.req_id)
        if span is not None:
            span.requeued += 1
            span.replica = replica
            # it re-enters a queue: any earlier dispatch no longer holds
            span.dispatch_time = None
            span.bucket = None
        self.instants.append(Instant(name='requeue', time=now,
                                     replica=replica,
                                     args={'req_id': request.req_id,
                                           'model': request.model}))

    def batch_formed(self, batch, replica: int, now: float,
                     queued_after: Optional[int] = None) -> None:
        """The batcher coalesced a dispatch (requests leave the queue)."""
        for request in batch.requests:
            span = self._open.get(request.req_id)
            if span is not None:
                span.dispatch_time = now
                span.bucket = batch.bucket
                span.replica = replica
        args = {'model': batch.model, 'bucket': batch.bucket,
                'size': batch.size,
                'occupancy': round(batch.occupancy, 4)}
        if queued_after is not None:
            args['queued_after'] = queued_after
        self.instants.append(Instant(name='batch_form', time=now,
                                     replica=replica, args=args))

    def batch_done(self, batch, now: float) -> None:
        """The batch's GPU interval ended: its requests complete."""
        self.batch_spans.append(BatchSpan(
            replica=batch.replica, model=batch.model, bucket=batch.bucket,
            size=batch.size, num_requests=len(batch.requests),
            start=batch.dispatch_time, end=now))
        for request in batch.requests:
            self._terminate(request.req_id, 'complete', now, batch.replica,
                            reason='')

    def instant(self, name: str, now: float,
                track: int = LIFECYCLE_TRACK, **args) -> None:
        """A free-form point event (lifecycle transitions, autoscaler
        decisions) on ``track``'s export track; ``args`` may carry any
        attributes, including a ``replica`` the event is *about*."""
        self.instants.append(Instant(name=name, time=now, replica=track,
                                     args=dict(args)))

    # -- auditing ------------------------------------------------------------

    def terminal_counts(self) -> dict[str, int]:
        """``{'complete': n, 'reject': n, 'lost': n, 'open': n}`` over every
        recorded request span — the totals :class:`ServeStats` must agree
        with."""
        counts = {kind: 0 for kind in TERMINAL_KINDS}
        counts['open'] = 0
        for span in self.request_spans:
            counts[span.terminal if span.is_terminated else 'open'] += 1
        return counts

    def token_counts(self) -> dict[str, int]:
        """Emitted output tokens summed per terminal kind (plus ``open``)
        over every recorded span — the token-granularity totals a decode
        run's :class:`ServeStats` must reconcile with:
        ``complete + lost == num_decode_tokens``."""
        counts = {kind: 0 for kind in TERMINAL_KINDS}
        counts['open'] = 0
        for span in self.request_spans:
            kind = span.terminal if span.is_terminated else 'open'
            counts[kind] += span.tokens_emitted
        return counts

    def check_invariants(self) -> list[str]:
        """Audit the recorded run; returns violations (empty = clean).

        Checks: every arrival terminated in exactly one of
        ``complete``/``reject``/``lost`` (double terminations and
        terminations without arrival were recorded as they happened);
        span timestamps are sim-time monotonic (arrival <= dispatch <=
        terminal); completed requests carry a dispatch and a bucket; and
        every batch span is a well-formed, positively-sized interval.
        """
        problems = list(self._violations)
        for span in self.request_spans:
            rid = f'request {span.req_id}'
            if not span.is_terminated:
                problems.append(f'{rid} never terminated (arrived at '
                                f'{span.arrival:.6f}s, still open)')
                continue
            if span.terminal_time < span.arrival:
                problems.append(
                    f'{rid} terminal at {span.terminal_time:.6f}s before '
                    f'its arrival at {span.arrival:.6f}s')
            if span.dispatch_time is not None:
                if span.dispatch_time < span.arrival:
                    problems.append(
                        f'{rid} dispatched at {span.dispatch_time:.6f}s '
                        f'before its arrival at {span.arrival:.6f}s')
                if span.terminal_time < span.dispatch_time:
                    problems.append(
                        f'{rid} terminal at {span.terminal_time:.6f}s '
                        f'before its dispatch at {span.dispatch_time:.6f}s')
            if span.terminal == 'complete':
                if span.dispatch_time is None or span.bucket is None:
                    problems.append(f'{rid} completed without a recorded '
                                    f'dispatch/bucket')
                if span.replica is None:
                    problems.append(f'{rid} completed without a replica')
                if span.prompt_tokens > 0 and span.tokens_emitted == 0:
                    problems.append(
                        f'{rid} is decode traffic ({span.prompt_tokens} '
                        f'prompt tokens) but completed with zero tokens '
                        f'emitted')
        for i, batch in enumerate(self.batch_spans):
            if batch.end < batch.start:
                problems.append(f'batch span #{i} ends ({batch.end:.6f}s) '
                                f'before it starts ({batch.start:.6f}s)')
            if batch.size < 1 or batch.num_requests < 1:
                problems.append(f'batch span #{i} is empty')
            if batch.size > batch.bucket:
                problems.append(f'batch span #{i} overflows its bucket '
                                f'({batch.size} > {batch.bucket})')
        return problems

    def assert_invariants(self) -> None:
        """Raise ``AssertionError`` listing every violation (none = pass)."""
        problems = self.check_invariants()
        assert not problems, (
            'span-lifecycle invariants violated:\n  '
            + '\n  '.join(problems))

    # -- export --------------------------------------------------------------

    @staticmethod
    def _us(t: float) -> float:
        """Simulated seconds -> trace microseconds."""
        return t * 1e6

    def _tid(self, replica: Optional[int]) -> int:
        if replica is None:
            return 0
        if replica == LIFECYCLE_TRACK:
            return 999_999               # the named control-plane track
        return replica

    def chrome_trace(self) -> dict:
        """The run as Chrome trace-event JSON (the object form).

        Load the written file in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``.  Request lifecycles are async ``b``/``e``
        pairs keyed by request id (the ``e`` event's ``args.terminal``
        carries the outcome), batch executions are ``X`` duration events
        on per-replica tracks, instants are ``i`` events.
        """
        events: list[dict] = [{
            'name': 'process_name', 'ph': 'M', 'pid': 0,
            'args': {'name': 'repro.serve simulation'},
        }]
        names = dict(self._thread_names)
        names.setdefault(LIFECYCLE_TRACK, 'lifecycle')
        for replica, name in sorted(names.items()):
            events.append({'name': 'thread_name', 'ph': 'M', 'pid': 0,
                           'tid': self._tid(replica), 'args': {'name': name}})
        for span in self.request_spans:
            tid = self._tid(span.replica)
            events.append({
                'name': f'request:{span.model}', 'cat': 'request',
                'ph': 'b', 'id': span.req_id,
                'ts': self._us(span.arrival), 'pid': 0, 'tid': tid,
                'args': {'req_id': span.req_id, 'model': span.model,
                         'size': span.size},
            })
            if not span.is_terminated:
                continue
            args = {'terminal': span.terminal, 'req_id': span.req_id,
                    'latency_ms': (span.terminal_time - span.arrival) * 1e3}
            if span.reason:
                args['reason'] = span.reason
            if span.dispatch_time is not None:
                args['dispatch_ts_us'] = self._us(span.dispatch_time)
                args['bucket'] = span.bucket
            if span.requeued:
                args['requeued'] = span.requeued
            if span.prompt_tokens or span.tokens_emitted:
                args['prompt_tokens'] = span.prompt_tokens
                args['tokens_out'] = span.tokens_emitted
            events.append({
                'name': f'request:{span.model}', 'cat': 'request',
                'ph': 'e', 'id': span.req_id,
                'ts': self._us(span.terminal_time), 'pid': 0, 'tid': tid,
                'args': args,
            })
        for batch in self.batch_spans:
            events.append({
                'name': f'{batch.model}[b{batch.bucket}]', 'cat': 'batch',
                'ph': 'X', 'ts': self._us(batch.start),
                'dur': self._us(batch.end - batch.start),
                'pid': 0, 'tid': self._tid(batch.replica),
                'args': {'model': batch.model, 'bucket': batch.bucket,
                         'size': batch.size,
                         'num_requests': batch.num_requests,
                         'occupancy': round(batch.occupancy, 4)},
            })
        for inst in self.instants:
            events.append({
                'name': inst.name, 'cat': 'event', 'ph': 'i', 's': 't',
                'ts': self._us(inst.time), 'pid': 0,
                'tid': self._tid(inst.replica), 'args': dict(inst.args),
            })
        return {'traceEvents': events, 'displayTimeUnit': 'ms'}

    def write_chrome_trace(self, path: str) -> str:
        """Write :meth:`chrome_trace` to ``path`` (JSON); returns ``path``."""
        with open(path, 'w') as f:
            json.dump(self.chrome_trace(), f, indent=1)
        return path


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


def overload_trace(registry, num_requests: int, seed: int = 1):
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


def fleet_trace(num_requests: int):
    """Beyond two replicas' capacity: the bounded queues reject."""
    return poisson_trace(300000, num_requests, ['cnn', 'mlp'], seed=3)


def failing_fleet(trace_) -> FleetSimulator:
    """Two replicas, a bounded queue and two kills over ``trace_``: one
    repaired, one not."""
    fleet = Fleet([RTX3090, RTX3090], placement=LeastLoadedPlacement())
    fleet.register('cnn', tiny_cnn, max_batch=4)
    fleet.register('mlp', tiny_mlp, max_batch=4)
    fleet.build()
    span = trace_[-1].arrival
    return FleetSimulator(
        fleet, BatchingPolicy(max_batch=4, max_wait=1e-3, max_queue=8),
        failures=[FailureEvent(time=0.3 * span, replica=0,
                               revive_at=0.5 * span),
                  FailureEvent(time=0.7 * span, replica=1)])


def decode_simulator(trace_) -> DecodeSimulator:
    """Two lanes and one joining, a repaired outage and a permanent one
    over ``trace_``, a small KV budget and a bounded queue."""
    span = trace_[-1].arrival
    return DecodeSimulator(
        tiny_cost(),
        DecodePolicy(max_width=8, max_tokens=48, max_waiting=24),
        kv_bytes_per_token=1, kv_capacity_bytes=56, num_replicas=2,
        joins=(0.5 * span,),
        failures=[FailureEvent(time=0.3 * span, replica=0,
                               revive_at=0.45 * span),
                  FailureEvent(time=0.6 * span, replica=1)])


def decode_requests(num_requests: int):
    return decode_trace(qps=20000, num_requests=num_requests, seed=11,
                        prompt_tokens=(4, 16), mean_output_tokens=12,
                        max_output_tokens=48)


# ---------------------------------------------------------------------------
# the column tracer against the object tracer


def assert_same_record(new: Tracer, ref: ReferenceTracer) -> None:
    assert new.request_spans == ref.request_spans
    assert new.batch_spans == ref.batch_spans
    assert new.instants == ref.instants
    assert (json.dumps(new.chrome_trace(), indent=1)
            == json.dumps(ref.chrome_trace(), indent=1))
    assert new.check_invariants() == ref.check_invariants()
    assert new.terminal_counts() == ref.terminal_counts()
    assert new.token_counts() == ref.token_counts()


def traced_twice(run) -> tuple[Tracer, ReferenceTracer]:
    new, ref = Tracer(), ReferenceTracer()
    run(Telemetry(tracer=new))
    run(Telemetry(tracer=ref))
    return new, ref


def test_server_replay_with_rejections(registry):
    trace_ = overload_trace(registry, 600)
    policy = BatchingPolicy(max_batch=8, max_wait=1e-3, max_queue=8)
    new, ref = traced_twice(
        lambda telemetry: ServerSimulator(registry, policy).run(trace_,
                                                                telemetry))
    assert ref.terminal_counts()['reject'] > 0
    assert_same_record(new, ref)


def test_fleet_replay_with_requeues_rejections_and_losses():
    trace_ = fleet_trace(600)
    new, ref = traced_twice(
        lambda telemetry: failing_fleet(trace_).run(trace_, telemetry))
    counts = ref.terminal_counts()
    assert counts['reject'] and counts['lost'] and counts['open'] == 0
    assert any(i.name == 'requeue' for i in ref.instants)
    assert_same_record(new, ref)


def test_decode_replay_with_requeues_rejections_and_losses():
    trace_ = decode_requests(400)
    new, ref = traced_twice(
        lambda telemetry: decode_simulator(trace_).run(trace_, telemetry))
    counts = ref.terminal_counts()
    assert counts['reject'] and counts['lost'] and counts['open'] == 0
    assert ref.token_counts()['lost'] > 0
    assert any(i.name == 'requeue' for i in ref.instants)
    assert_same_record(new, ref)


def test_violations_and_open_spans_audit_alike():
    def abuse(tracer) -> None:
        first, third = Request(0, 'm', 1, 0.0), Request(2, 'm', 1, 0.2)
        second = Request(1, 'm', 1, 0.1, prompt_tokens=5, output_tokens=3)
        for request in (first, second, third, first):    # one duplicate
            tracer.arrival(request, request.arrival)
        tracer.reject(first, 0.4)
        tracer.lost(first, 0.5, replica=1, tokens=3)      # terminated twice
        tracer.reject(Request(9, 'm', 1, arrival=0.0), 0.5)   # never arrived
        tracer.requeue(second, 0.3, replica=2)
        tracer.decode_join(second, 0.35, replica=2, width=4)
        tracer.decode_complete(second, 0.32, replica=2, tokens=0)
        tracer.instant('note', 0.6, track=0, detail='x')
        # ``third`` stays open

    new, ref = Tracer(), ReferenceTracer()
    abuse(new)
    abuse(ref)
    assert len(ref.check_invariants()) == 6
    assert_same_record(new, ref)


def test_folds_skip_batches_lost_in_flight():
    """A batch a kill cut short keeps a record row but never completed: the
    stats fold and the per-replica rows count it as the views do, not at
    all."""
    trace_ = fleet_trace(600)
    result = failing_fleet(trace_).run(trace_)
    batches = result.batches
    assert len(result.record.batches) > len(batches)
    stats = result.stats()
    assert stats.num_batches == len(batches)
    assert stats.num_samples == sum(batch.size for batch in batches)
    assert stats.bucket_histogram == dict(sorted(
        Counter(batch.bucket for batch in batches).items()))
    assert sum(row['batches'] for row in result.per_replica()) == len(batches)


def test_a_result_keeps_an_edited_view(registry):
    """A result builds its record views anew on each read but keeps one a
    caller edited, so the edit shows on the next read, as it did when the
    result held the lists.  The stats fold reads the columns and ignores
    the edit, and a copy of a view is a plain list."""
    server = ServerSimulator(registry, BatchingPolicy(max_wait=1e-3)).run(
        overload_trace(registry, 200))
    fleet_requests = fleet_trace(200)
    fleet = failing_fleet(fleet_requests).run(fleet_requests)
    decode_reqs = decode_requests(200)
    decoded = decode_simulator(decode_reqs).run(decode_reqs)
    for result, fold in ((server, lambda: server.stats(registry)),
                         (fleet, fleet.stats), (decoded, decoded.stats)):
        stats = fold()
        completions = result.completions
        assert completions == result.completions
        assert completions is not result.completions
        result.completions.pop()
        assert result.completions == completions[:-1]
        assert fold() == stats
        assert type(copy.deepcopy(result.completions)) is list
    for result in (server, fleet):
        batches = result.batches
        assert batches is not result.batches
        del result.batches[0]
        assert result.batches == batches[1:]


def test_a_changed_view_changes_nothing_recorded():
    """The tracer's views are copies: editing a record, an instant's
    ``args`` included, leaves the record and its export as they were."""
    tracer = Tracer()
    tracer.arrival(Request(0, 'cnn', 1, 0.0), 0.0, replica=0)
    tracer.instant('scale_up', 0.5, replica=0)
    exported = json.dumps(tracer.chrome_trace())
    tracer.request_spans[0].replica = 1
    tracer.instants[0].args['replica'] = 1
    assert tracer.instants[0].args == {'replica': 0}
    assert json.dumps(tracer.chrome_trace()) == exported


# ---------------------------------------------------------------------------
# a replay keeps no tracked object per request


def tracked_growth(run) -> int:
    """Tracked objects that ``run()``'s kept result adds to the heap."""
    gc.collect()
    before = len(gc.get_objects())
    kept = run()
    gc.collect()
    growth = len(gc.get_objects()) - before
    del kept
    return growth


def test_tracked_objects_do_not_scale_with_trace_length(registry):
    """A traced single-GPU replay, a fleet replay with failures and a
    decode replay keep their records as columns: twice the requests leave
    (next to) no more tracked objects behind.  Kept as one object per
    request or batch, the records grew the heap by thousands here."""
    def replays(num_requests: int):
        server_trace = overload_trace(registry, num_requests)
        server = ServerSimulator(registry, BatchingPolicy(max_wait=1e-3))
        fleet_requests = fleet_trace(num_requests)
        fleet = failing_fleet(fleet_requests)
        decode_reqs = decode_requests(num_requests)
        decode_sim = decode_simulator(decode_reqs)

        def run():
            telemetry = Telemetry()
            served = server.run(server_trace, telemetry)
            return (served, served.stats(registry, telemetry=telemetry),
                    telemetry, fleet.run(fleet_requests),
                    decode_sim.run(decode_reqs))
        return run

    tracked_growth(replays(200))                  # one-off allocations
    small, large = (tracked_growth(replays(n)) for n in (1000, 2000))
    assert large - small < 50, (small, large)
