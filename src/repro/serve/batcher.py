"""Dynamic batching: coalesce queued requests into batch-bucket dispatches.

The policy is the classic two-knob batcher (max batch size, max queue wait):
a model's queue dispatches as soon as it can fill ``max_batch`` samples, or
once its head-of-line request has waited ``max_wait`` seconds — whichever
comes first.  Dispatches go to the smallest compiled bucket that covers the
coalesced size; the slack between batch size and bucket capacity is padding,
paid for in the bucket's modeled latency and reported as occupancy.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .memory import KVCacheLedger
from .trace import Request

__all__ = ['BatchingPolicy', 'Batch', 'DynamicBatcher',
           'smallest_covering_bucket',
           'DecodePolicy', 'ContinuousBatcher', 'ADMISSION_POLICIES']


def smallest_covering_bucket(size: int, buckets: Sequence[int]) -> int:
    """The smallest bucket of the ascending ladder ``buckets`` that fits
    ``size`` samples."""
    index = bisect_left(buckets, size)
    if index == len(buckets):
        raise ValueError(f'no bucket covers batch size {size} '
                         f'(buckets: {sorted(buckets)})')
    return buckets[index]


@dataclass(frozen=True)
class BatchingPolicy:
    """Dispatch knobs of the dynamic batcher.

    ``max_batch`` is the most samples one dispatch may coalesce; ``max_wait``
    is the longest a head-of-line request may queue, in **seconds**, before a
    partial batch dispatches anyway.  ``max_batch=1`` with ``max_wait=0``
    degenerates to no-batching serving (the baseline the benchmark compares
    against).

    ``max_queue`` is the admission-control bound: the most queued *samples*
    one model's queue may hold.  An arrival that would push the queue past it
    is **rejected** (fail fast with a load-shedding error) instead of joining
    a backlog that can only grow once offered load exceeds capacity —
    unbounded backlog converts every later request's latency into queueing
    delay, which is exactly what the p99 of an overloaded run shows.
    ``None`` (the default) keeps the historical accept-everything behavior.
    """

    max_batch: int = 8
    max_wait: float = 2e-3       # seconds a head-of-line request may queue
    max_queue: Optional[int] = None   # queued-sample cap per model (admission)

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError('max_batch must be >= 1')
        if self.max_wait < 0:
            raise ValueError('max_wait must be non-negative')
        if self.max_queue is not None and self.max_queue < self.max_batch:
            raise ValueError(
                f'max_queue={self.max_queue} must be at least max_batch='
                f'{self.max_batch}, or a full batch could never accumulate')


@dataclass
class Batch:
    """A coalesced dispatch: requests of one model bound for one bucket.

    ``bucket`` is the compiled bucket capacity serving the batch;
    ``dispatch_time`` is the simulated second the batch left the queue;
    ``size`` counts the real samples of ``requests`` (the rest of the
    bucket is padding).  ``replica`` identifies the GPU that served it
    (always 0 under the single-GPU
    :class:`~repro.serve.simulator.ServerSimulator`).
    """

    model: str
    requests: list[Request]
    bucket: int                  # compiled bucket capacity serving the batch
    dispatch_time: float
    size: int                    # real samples: the sum of request sizes
    replica: int = 0             # fleet replica that served the batch

    @property
    def occupancy(self) -> float:
        """Real samples over bucket capacity (the rest was padding)."""
        return self.size / self.bucket


class DynamicBatcher:
    """Per-model FIFO queues + the dispatch-readiness rule.

    Args:
        policy: the dispatch knobs (see :class:`BatchingPolicy`).
        buckets: model name -> compiled bucket ladder it may dispatch to;
            the policy's ``max_batch`` must fit every model's largest
            bucket.

    The simulator owns time; the batcher is a pure policy object — it never
    looks at a wall clock, only at the ``now`` (simulated seconds) the
    caller passes in.  A queue is *ready* when it can fill ``max_batch``
    samples or its head-of-line request has waited ``max_wait`` seconds;
    :meth:`pop_ready` serves ready queues oldest-head-first (FIFO fairness
    across co-hosted models).
    """

    def __init__(self, policy: BatchingPolicy, buckets: dict[str, Sequence[int]]):
        self.policy = policy
        #: model -> compiled bucket ladder it can dispatch to
        self.buckets: dict[str, tuple[int, ...]] = {}
        self._queues: dict[str, deque[Request]] = {}
        #: running queued-sample count per model — the dispatch decision
        #: runs after every simulator event, so it must not re-walk a
        #: backlogged queue (that would make overloaded runs quadratic)
        self._queued_samples: dict[str, int] = {}
        for name, ladder in buckets.items():
            self.add_model(name, ladder)

    # -- queueing ------------------------------------------------------------

    def _validate(self, request: Request) -> None:
        """Reject malformed input: unknown model, or a request that could
        never dispatch."""
        if request.model not in self._queues:
            raise KeyError(f'model {request.model!r} is not registered')
        if request.size > self.policy.max_batch:
            raise ValueError(
                f'request {request.req_id} carries {request.size} samples, '
                f'more than max_batch={self.policy.max_batch}')

    def offer(self, request: Request) -> bool:
        """Admission-controlled enqueue: returns whether ``request`` got in.

        With ``policy.max_queue`` set, an arrival that would push its model's
        queued-sample count past the bound is rejected (returns ``False``,
        the request is dropped); otherwise it is enqueued and ``True`` is
        returned.  Validation errors (unknown model, oversized request)
        always raise, regardless of queue depth — rejection is reserved for
        overload, not malformed input.
        """
        self._validate(request)
        cap = self.policy.max_queue
        if cap is not None and self._queued_samples[request.model] + request.size > cap:
            return False
        self._queues[request.model].append(request)
        self._queued_samples[request.model] += request.size
        return True

    def pending(self, model: Optional[str] = None) -> int:
        """Queued samples for one model (or all models)."""
        if model is not None:
            return self._queued_samples[model]
        return sum(self._queued_samples.values())

    def drain(self) -> list[Request]:
        """Empty every queue, returning the drained requests.

        Requests come back ordered by arrival (the order they would have
        dispatched in) so a fleet that loses this batcher's replica can
        re-admit them elsewhere deterministically.  Queue counters reset;
        the batcher stays usable (e.g. for a revived replica).
        """
        drained = [r for q in self._queues.values() for r in q]
        drained.sort(key=lambda r: (r.arrival, r.req_id))
        for name in self._queues:
            self._queues[name].clear()
            self._queued_samples[name] = 0
        return drained

    def add_model(self, name: str, ladder: Sequence[int]) -> None:
        """Start batching for a model (the constructor registers its
        ``buckets`` through here too).

        The fleet's re-homing path compiles a model onto a surviving replica
        mid-run; the replica's live batcher then needs a queue and bucket
        ladder for it.  Idempotent for an already-known model with the same
        ladder.
        """
        ladder = tuple(sorted(ladder))
        if name in self.buckets:
            if self.buckets[name] != ladder:
                raise ValueError(
                    f'model {name!r} is already batched with ladder '
                    f'{self.buckets[name]}, not {ladder}')
            return
        if not ladder:
            raise ValueError(f'model {name!r} has no compiled buckets')
        if self.policy.max_batch > ladder[-1]:
            raise ValueError(
                f'policy max_batch={self.policy.max_batch} exceeds the largest '
                f'compiled bucket ({ladder[-1]}) of model {name!r}')
        self.buckets[name] = ladder
        self._queues[name] = deque()
        self._queued_samples[name] = 0

    def remove_model(self, name: str) -> None:
        """Stop batching for an evicted model.

        The fleet's memory-pressure eviction path drops a redundantly
        hosted model from a replica; its batcher must stop accepting (and
        stop arming timers for) that model.  Only an *idle* queue may be
        removed — evicting queued work would silently lose requests, so a
        non-empty queue raises ``ValueError`` and an unknown model raises
        ``KeyError``.
        """
        if name not in self.buckets:
            raise KeyError(f'model {name!r} is not batched here')
        if self._queued_samples[name] > 0:
            raise ValueError(
                f'model {name!r} still has {self._queued_samples[name]} '
                f'queued samples; drain or serve them before removal')
        del self.buckets[name]
        del self._queues[name]
        del self._queued_samples[name]

    # -- dispatch decision -----------------------------------------------------

    def _eligible(self, model: str, now: float) -> bool:
        queue = self._queues[model]
        if not queue:
            return False
        if self._queued_samples[model] >= self.policy.max_batch:
            return True
        # same expression as next_deadline(), so a timer armed for the
        # deadline always finds its queue eligible (float addition does not
        # guarantee (a + w) - a >= w)
        return queue[0].arrival + self.policy.max_wait <= now

    def pop_ready(self, now: float) -> Optional[Batch]:
        """Form the next batch due at ``now``, or None if nothing is ready.

        Among models whose queues are ready (full batch available, or the
        head request hit its wait deadline), the one with the oldest head
        request dispatches first — FIFO fairness across co-hosted models.
        """
        ready = [name for name in self._queues if self._eligible(name, now)]
        if not ready:
            return None
        model = min(ready, key=lambda name: self._queues[name][0].arrival)
        queue = self._queues[model]
        taken: list[Request] = []
        size = 0
        while queue and size + queue[0].size <= self.policy.max_batch:
            request = queue.popleft()
            self._queued_samples[model] -= request.size
            taken.append(request)
            size += request.size
        bucket = smallest_covering_bucket(size, self.buckets[model])
        return Batch(model=model, requests=taken, bucket=bucket,
                     dispatch_time=now, size=size)

    def next_deadline(self) -> Optional[float]:
        """Earliest head-of-line wait deadline across queues, or None."""
        heads = [q[0].arrival + self.policy.max_wait
                 for q in self._queues.values() if q]
        return min(heads) if heads else None


# ---------------------------------------------------------------------------
# iteration-level (continuous) batching for decoder models

#: how a decode lane admits new requests against its KV-cache ledger:
#: ``reserve`` admits only when prompt + worst-case output KV fits the
#: remaining capacity (decode can then never overflow); ``unbounded`` is
#: the ablation that admits on width alone and lets KV spill to host
ADMISSION_POLICIES = ('reserve', 'unbounded')


@dataclass(frozen=True)
class DecodePolicy:
    """Scheduling knobs of the iteration-level decode batcher.

    ``max_width`` bounds how many sequences decode together in one
    iteration (the decode analogue of ``max_batch``); ``admission`` picks
    the KV-capacity rule from :data:`ADMISSION_POLICIES`; ``max_waiting``
    caps the join queue (arrivals past it are rejected — load shedding,
    like ``BatchingPolicy.max_queue``); ``max_tokens`` is the longest
    generation a request may declare (longer is malformed input, not
    overload).
    """

    max_width: int = 8
    admission: str = 'reserve'
    max_waiting: Optional[int] = None    # queued-request cap (admission)
    max_tokens: int = 256                # output-length ceiling per request

    def __post_init__(self):
        if self.max_width < 1:
            raise ValueError('max_width must be >= 1')
        if self.admission not in ADMISSION_POLICIES:
            raise ValueError(f'admission must be one of {ADMISSION_POLICIES}, '
                             f'got {self.admission!r}')
        if self.max_waiting is not None and self.max_waiting < 1:
            raise ValueError('max_waiting must be >= 1 (or None)')
        if self.max_tokens < 1:
            raise ValueError('max_tokens must be >= 1')


class ContinuousBatcher:
    """Token-level scheduler: FIFO admission into a running decode batch.

    Where :class:`DynamicBatcher` coalesces whole requests into one-shot
    dispatches, this scheduler fills *slots of a running batch*: at every
    iteration boundary the simulator asks :meth:`next_joiners` which waiting
    requests may join, and the answer is bounded by the policy's
    ``max_width`` and by the KV-cache ledger the lane hands in.  Under
    ``reserve`` admission a request joins only when its prompt plus its
    whole declared output fits the ledger's remaining capacity — the
    scheduler *commits* that reservation as it admits, so a joiner's claim
    is visible to the very next admission decision and decode can never
    overflow the device.  Under ``unbounded`` admission it commits the
    prompt with no reservation and no check (the ablation).

    FIFO with head-of-line blocking on purpose: skipping a KV-starved head
    to admit a shorter request behind it would starve long generations
    exactly when memory is tight.
    """

    def __init__(self, policy: DecodePolicy):
        self.policy = policy
        self._waiting: deque[Request] = deque()

    def _validate(self, request: Request) -> None:
        if request.output_tokens < 1 or request.prompt_tokens < 1:
            raise ValueError(
                f'request {request.req_id} is not decode traffic '
                f'(prompt_tokens={request.prompt_tokens}, '
                f'output_tokens={request.output_tokens}); build it with '
                f'decode_trace()')
        if request.output_tokens > self.policy.max_tokens:
            raise ValueError(
                f'request {request.req_id} declares {request.output_tokens} '
                f'output tokens, more than max_tokens={self.policy.max_tokens}')

    def offer(self, request: Request) -> bool:
        """Admission-controlled enqueue; ``False`` when the queue is full.

        Malformed input (a non-decode request, or one declaring more than
        ``max_tokens`` output) raises — rejection is reserved for overload.
        """
        self._validate(request)
        cap = self.policy.max_waiting
        if cap is not None and len(self._waiting) >= cap:
            return False
        self._waiting.append(request)
        return True

    def pending(self) -> int:
        """Requests waiting to join the running batch."""
        return len(self._waiting)

    def drain(self) -> list[Request]:
        """Empty the queue (replica death), ordered by arrival."""
        drained = sorted(self._waiting, key=lambda r: (r.arrival, r.req_id))
        self._waiting.clear()
        return drained

    def next_joiners(self, active_width: int, ledger: KVCacheLedger,
                     now: Optional[float] = None) -> list[Request]:
        """Admit waiting requests into the running batch, FIFO.

        Joins while slots remain below ``max_width`` and (under ``reserve``)
        while the head's prompt + declared output KV fits ``ledger``;
        admitted requests' KV is committed here, so the returned requests
        are already resident.  ``now`` timestamps the ledger mutations.
        """
        joiners: list[Request] = []
        while self._waiting and active_width + len(joiners) < self.policy.max_width:
            head = self._waiting[0]
            if self.policy.admission == 'reserve':
                if not ledger.can_admit(head.prompt_tokens, head.output_tokens):
                    break                       # wait for EOS to free KV
                self._waiting.popleft()
                ledger.admit(head.req_id, head.prompt_tokens,
                             reserve_tokens=head.output_tokens, now=now)
            else:
                self._waiting.popleft()
                ledger.admit(head.req_id, head.prompt_tokens, now=now)
            joiners.append(head)
        return joiners
