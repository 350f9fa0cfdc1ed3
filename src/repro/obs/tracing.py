"""Request tracing: structured spans with Chrome trace-event export.

One :class:`Tracer` records one simulation run as three kinds of record:

* a :class:`RequestSpan` per trace request — arrival through admission,
  queueing, batch formation and execution to exactly one **terminal**
  (``complete`` / ``reject`` / ``lost``), carrying the replica, compiled
  bucket, and dispatch time it picked up along the way;
* a :class:`BatchSpan` per executed batch — the interval a coalesced
  dispatch held a replica's GPU, with model/bucket/occupancy attributes
  (a batch killed mid-flight records no span: its work never finished and
  its requests terminate as ``lost`` instead);
* an :class:`Instant` per point event — batch formation, lifecycle
  transitions (join/kill/revive/retire/rehome/evict), autoscaler
  decisions.

The tracer keeps each kind as columns of plain scalars
(:class:`~repro.obs.columns.Columns`) and builds the records only when
they are read.

Timestamps are simulated seconds throughout.  :meth:`Tracer.chrome_trace`
exports the run in the Chrome trace-event JSON format (the ``traceEvents``
array form), loadable in Perfetto / ``chrome://tracing``: request
lifecycles become async ``b``/``e`` pairs keyed by request id, batch
executions become ``X`` duration events on one track (``tid``) per
replica, and instants become ``i`` events.

The tracer also *audits* the run: :meth:`check_invariants` verifies that
every arrival terminated exactly once, that timestamps are sim-time
monotonic within each span, and that every executed batch's interval is
well-formed — the span-level conservation law behind
``ServeStats``' request-conservation property.  One tracer records one
run; reusing it across runs trips the duplicate-arrival check.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Optional

from .columns import Columns

__all__ = ['RequestSpan', 'BatchSpan', 'Instant', 'Tracer',
           'TERMINAL_KINDS', 'LIFECYCLE_TRACK']

#: the three ways a request's span may end — exactly one per arrival
TERMINAL_KINDS = ('complete', 'reject', 'lost')

#: pseudo-replica index for control-plane instants (lifecycle, autoscaler);
#: exported on its own named track rather than any replica's
LIFECYCLE_TRACK = -1


@dataclass
class RequestSpan:
    """One request's recorded lifecycle (terminal fields set exactly once).

    Built from the tracer's columns on access: a copy of what was recorded.
    """

    req_id: int
    model: str
    size: int
    arrival: float
    replica: Optional[int] = None
    dispatch_time: Optional[float] = None
    bucket: Optional[int] = None
    requeued: int = 0                    # times re-admitted after a failure
    prompt_tokens: int = 0               # decode traffic: prefilled prompt
    tokens_emitted: int = 0              # decode traffic: tokens generated
    terminal: Optional[str] = None       # one of TERMINAL_KINDS, or open
    terminal_time: Optional[float] = None
    reason: str = ''                     # e.g. 'admission', 'failure'

    @property
    def is_terminated(self) -> bool:
        return self.terminal is not None


@dataclass(frozen=True)
class BatchSpan:
    """One executed batch: the GPU-holding interval on ``replica``."""

    replica: int
    model: str
    bucket: int
    size: int
    num_requests: int
    start: float                         # dispatch (simulated seconds)
    end: float                           # completion

    @property
    def occupancy(self) -> float:
        return self.size / self.bucket


@dataclass(frozen=True)
class Instant:
    """A point event on a replica track (or the lifecycle control track)."""

    name: str
    time: float
    replica: int = LIFECYCLE_TRACK
    args: dict = field(default_factory=dict)


class Tracer:
    """Record one run's spans; export and audit them afterwards.

    The spans are kept as columns (:class:`~repro.obs.columns.Columns`), so
    a long run adds no object per request or batch.  :attr:`request_spans`,
    :attr:`batch_spans` and :attr:`instants` build the records on access:
    a new list each time, so changing one changes nothing recorded.
    """

    def __init__(self):
        self._requests = Columns(RequestSpan)
        self._batches = Columns(BatchSpan)
        self._instants = Columns(Instant)
        #: request id -> row of its span: while the span is open, and ever
        self._open: dict[int, int] = {}
        self._by_id: dict[int, int] = {}
        self._violations: list[str] = []
        self._thread_names: dict[int, str] = {}

    @property
    def request_spans(self) -> list[RequestSpan]:
        """Every request's span, in arrival order."""
        return self._requests.rows()

    @property
    def batch_spans(self) -> list[BatchSpan]:
        """Every executed batch, in completion order."""
        return self._batches.rows()

    @property
    def instants(self) -> list[Instant]:
        """Every point event, in recording order (each with its own copy of
        the recorded ``args``)."""
        return self._instants.rows(
            args=list(map(dict, self._instants['args'])))

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
        row = self._requests.append(request.req_id, request.model,
                                    request.size, now, replica, None, None,
                                    0, 0, 0, None, None, '')
        self._open[request.req_id] = row
        self._by_id[request.req_id] = row

    def _terminate(self, req_ids, kind: str, now: float,
                   replica: Optional[int], reason: str) -> None:
        """End the open spans of ``req_ids`` as ``kind``."""
        spans = self._requests
        terminal, times = spans['terminal'], spans['terminal_time']
        reasons, replicas = spans['reason'], spans['replica']
        for req_id in req_ids:
            row = self._open.pop(req_id, None)
            if row is None:
                known = self._by_id.get(req_id)
                if known is not None:
                    self._violations.append(
                        f'request {req_id} terminated twice: '
                        f'{terminal[known]!r} then {kind!r}')
                else:
                    self._violations.append(
                        f'request {req_id} terminated ({kind!r}) without an '
                        f'arrival')
                continue
            terminal[row] = kind
            times[row] = now
            reasons[row] = reason
            if replica is not None:
                replicas[row] = replica

    def reject(self, request, now: float, replica: Optional[int] = None,
               reason: str = 'admission') -> None:
        """Admission control turned the request away (terminal)."""
        self._terminate((request.req_id,), 'reject', now, replica, reason)

    def lost(self, request, now: float, replica: Optional[int] = None,
             reason: str = 'failure', tokens: int = 0) -> None:
        """The request was lost — replica death, or nowhere to re-home
        (terminal).  ``tokens`` records how many output tokens a decode
        request had emitted before the loss (the loud partial count)."""
        row = self._open.get(request.req_id)
        if row is not None and tokens:
            self._requests['tokens_emitted'][row] = tokens
        self._terminate((request.req_id,), 'lost', now, replica, reason)

    def decode_join(self, request, now: float, replica: int,
                    width: Optional[int] = None) -> None:
        """A decode request joined a running batch: its prefill dispatches
        here (not terminal; tokens stream until EOS or loss).  ``width`` is
        the decode-batch width it joined at, recorded as the span's bucket."""
        row = self._open.get(request.req_id)
        if row is not None:
            spans = self._requests
            spans['dispatch_time'][row] = now
            spans['bucket'][row] = width
            spans['replica'][row] = replica
            spans['prompt_tokens'][row] = getattr(request, 'prompt_tokens', 0)

    def decode_complete(self, request, now: float, replica: int,
                        tokens: int) -> None:
        """A decode request emitted its EOS token after ``tokens`` output
        tokens (terminal)."""
        row = self._open.get(request.req_id)
        if row is not None:
            self._requests['tokens_emitted'][row] = tokens
        self._terminate((request.req_id,), 'complete', now, replica,
                        reason='')

    def requeue(self, request, now: float, replica: int) -> None:
        """The request survived its replica's death and re-admitted on
        ``replica`` (not terminal; its span continues there)."""
        row = self._open.get(request.req_id)
        if row is not None:
            spans = self._requests
            spans['requeued'][row] += 1
            spans['replica'][row] = replica
            # it re-enters a queue: any earlier dispatch no longer holds
            spans['dispatch_time'][row] = None
            spans['bucket'][row] = None
        self._instants.append('requeue', now, replica,
                              {'req_id': request.req_id,
                               'model': request.model})

    def batch_formed(self, batch, replica: int, now: float,
                     queued_after: Optional[int] = None) -> None:
        """The batcher coalesced a dispatch (requests leave the queue)."""
        spans, open_, bucket = self._requests, self._open, batch.bucket
        dispatched, buckets = spans['dispatch_time'], spans['bucket']
        replicas = spans['replica']
        for request in batch.requests:
            row = open_.get(request.req_id)
            if row is not None:
                dispatched[row] = now
                buckets[row] = bucket
                replicas[row] = replica
        args = {'model': batch.model, 'bucket': bucket, 'size': batch.size,
                'occupancy': round(batch.occupancy, 4)}
        if queued_after is not None:
            args['queued_after'] = queued_after
        self._instants.append('batch_form', now, replica, args)

    def batch_done(self, batch, now: float) -> None:
        """The batch's GPU interval ended: its requests complete."""
        self._batches.append(batch.replica, batch.model, batch.bucket,
                             batch.size, len(batch.requests),
                             batch.dispatch_time, now)
        self._terminate([request.req_id for request in batch.requests],
                        'complete', now, batch.replica, reason='')

    def instant(self, name: str, now: float,
                track: int = LIFECYCLE_TRACK, **args) -> None:
        """A free-form point event (lifecycle transitions, autoscaler
        decisions) on ``track``'s export track; ``args`` may carry any
        attributes, including a ``replica`` the event is *about*."""
        self._instants.append(name, now, track, args)

    # -- auditing ------------------------------------------------------------

    def terminal_counts(self) -> dict[str, int]:
        """``{'complete': n, 'reject': n, 'lost': n, 'open': n}`` over every
        recorded request span — the totals :class:`ServeStats` must agree
        with."""
        tally = Counter(self._requests['terminal'])
        counts = {kind: tally[kind] for kind in TERMINAL_KINDS}
        counts['open'] = tally[None]
        return counts

    def token_counts(self) -> dict[str, int]:
        """Emitted output tokens summed per terminal kind (plus ``open``)
        over every recorded span — the token-granularity totals a decode
        run's :class:`ServeStats` must reconcile with:
        ``complete + lost == num_decode_tokens``."""
        counts = {kind: 0 for kind in TERMINAL_KINDS}
        counts['open'] = 0
        spans = self._requests
        for terminal, tokens in zip(spans['terminal'],
                                    spans['tokens_emitted']):
            counts[terminal or 'open'] += tokens
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
        spans = self._requests
        for (req_id, arrival, replica, dispatch_time, bucket, prompt_tokens,
             tokens_emitted, terminal, terminal_time) in zip(
                *(spans[name] for name in (
                    'req_id', 'arrival', 'replica', 'dispatch_time',
                    'bucket', 'prompt_tokens', 'tokens_emitted', 'terminal',
                    'terminal_time'))):
            rid = f'request {req_id}'
            if terminal is None:
                problems.append(f'{rid} never terminated (arrived at '
                                f'{arrival:.6f}s, still open)')
                continue
            if terminal_time < arrival:
                problems.append(
                    f'{rid} terminal at {terminal_time:.6f}s before '
                    f'its arrival at {arrival:.6f}s')
            if dispatch_time is not None:
                if dispatch_time < arrival:
                    problems.append(
                        f'{rid} dispatched at {dispatch_time:.6f}s '
                        f'before its arrival at {arrival:.6f}s')
                if terminal_time < dispatch_time:
                    problems.append(
                        f'{rid} terminal at {terminal_time:.6f}s '
                        f'before its dispatch at {dispatch_time:.6f}s')
            if terminal == 'complete':
                if dispatch_time is None or bucket is None:
                    problems.append(f'{rid} completed without a recorded '
                                    f'dispatch/bucket')
                if replica is None:
                    problems.append(f'{rid} completed without a replica')
                if prompt_tokens > 0 and tokens_emitted == 0:
                    problems.append(
                        f'{rid} is decode traffic ({prompt_tokens} '
                        f'prompt tokens) but completed with zero tokens '
                        f'emitted')
        batches = self._batches
        for i, (start, end, size, num_requests, bucket) in enumerate(zip(
                batches['start'], batches['end'], batches['size'],
                batches['num_requests'], batches['bucket'])):
            if end < start:
                problems.append(f'batch span #{i} ends ({end:.6f}s) '
                                f'before it starts ({start:.6f}s)')
            if size < 1 or num_requests < 1:
                problems.append(f'batch span #{i} is empty')
            if size > bucket:
                problems.append(f'batch span #{i} overflows its bucket '
                                f'({size} > {bucket})')
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
        us, tid_of = self._us, self._tid
        spans = self._requests
        for (req_id, model, size, arrival, replica, dispatch_time, bucket,
             requeued, prompt_tokens, tokens_emitted, terminal,
             terminal_time, reason) in zip(
                *(spans[f.name] for f in fields(RequestSpan))):
            tid = tid_of(replica)
            events.append({
                'name': f'request:{model}', 'cat': 'request',
                'ph': 'b', 'id': req_id,
                'ts': us(arrival), 'pid': 0, 'tid': tid,
                'args': {'req_id': req_id, 'model': model, 'size': size},
            })
            if terminal is None:
                continue
            args = {'terminal': terminal, 'req_id': req_id,
                    'latency_ms': (terminal_time - arrival) * 1e3}
            if reason:
                args['reason'] = reason
            if dispatch_time is not None:
                args['dispatch_ts_us'] = us(dispatch_time)
                args['bucket'] = bucket
            if requeued:
                args['requeued'] = requeued
            if prompt_tokens or tokens_emitted:
                args['prompt_tokens'] = prompt_tokens
                args['tokens_out'] = tokens_emitted
            events.append({
                'name': f'request:{model}', 'cat': 'request',
                'ph': 'e', 'id': req_id,
                'ts': us(terminal_time), 'pid': 0, 'tid': tid,
                'args': args,
            })
        batches = self._batches
        for replica, model, bucket, size, num_requests, start, end in zip(
                *(batches[f.name] for f in fields(BatchSpan))):
            events.append({
                'name': f'{model}[b{bucket}]', 'cat': 'batch',
                'ph': 'X', 'ts': us(start), 'dur': us(end - start),
                'pid': 0, 'tid': tid_of(replica),
                'args': {'model': model, 'bucket': bucket, 'size': size,
                         'num_requests': num_requests,
                         'occupancy': round(size / bucket, 4)},
            })
        instants = self._instants
        for name, time, replica, args in zip(
                *(instants[f.name] for f in fields(Instant))):
            events.append({
                'name': name, 'cat': 'event', 'ph': 'i', 's': 't',
                'ts': us(time), 'pid': 0, 'tid': tid_of(replica),
                'args': dict(args),
            })
        return {'traceEvents': events, 'displayTimeUnit': 'ms'}

    def write_chrome_trace(self, path: str) -> str:
        """Write :meth:`chrome_trace` to ``path`` (JSON); returns ``path``."""
        with open(path, 'w') as f:
            json.dump(self.chrome_trace(), f, indent=1)
        return path
