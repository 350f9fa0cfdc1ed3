"""The serving hot paths against the code they replaced.

:class:`KVCacheLedger` now answers its queries from running totals and
takes a decode step's tokens in one :meth:`~KVCacheLedger.emit` call;
:class:`DynamicBatcher` picks the next batch and the next deadline in one
scan of its queues.  The references below keep the former ledger and the
former ``pop_ready``/``next_deadline`` verbatim.  Hypothesis drives each
pair through the same operations, and every observable must match after
every one of them, raised exceptions included.
"""
from typing import Dict, Optional

from hypothesis import given, settings, strategies as st

from repro.serve import BatchingPolicy, DynamicBatcher, KVCacheLedger, Request
from repro.serve.batcher import Batch, smallest_covering_bucket
from repro.serve.memory import MemoryOverflowError


class ReferenceLedger:
    """The former ledger: every query summed over the residents, and a
    decode step extended each emitting request by one call."""

    def __init__(self, capacity_bytes: int, bytes_per_token: int,
                 label: str = '', strict: bool = True,
                 record_trail: bool = False) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f'capacity_bytes must be positive, '
                             f'got {capacity_bytes}')
        if bytes_per_token <= 0:
            raise ValueError(f'bytes_per_token must be positive, '
                             f'got {bytes_per_token}')
        self.capacity_bytes = int(capacity_bytes)
        self.bytes_per_token = int(bytes_per_token)
        self.label = label
        self.strict = strict
        self._committed: Dict[int, int] = {}   # req_id -> tokens resident
        self._headroom: Dict[int, int] = {}    # req_id -> tokens reserved ahead
        self._peak = 0
        self.trail: list = [] if record_trail else None

    # -- queries ----------------------------------------------------------
    @property
    def committed_tokens(self) -> int:
        return sum(self._committed.values())

    @property
    def committed_bytes(self) -> int:
        """Bytes of KV actually resident (prompt + emitted tokens)."""
        return self.committed_tokens * self.bytes_per_token

    @property
    def reserved_bytes(self) -> int:
        """Committed bytes plus admission-time headroom (the planning view)."""
        return ((self.committed_tokens + sum(self._headroom.values()))
                * self.bytes_per_token)

    @property
    def overflow_bytes(self) -> int:
        """Committed bytes past capacity (0 under strict accounting)."""
        return max(0, self.committed_bytes - self.capacity_bytes)

    @property
    def peak_committed_bytes(self) -> int:
        return self._peak

    @property
    def utilization(self) -> float:
        return self.committed_bytes / self.capacity_bytes

    @property
    def active_requests(self) -> int:
        return len(self._committed)

    def tokens_of(self, req_id: int) -> int:
        """Tokens currently resident for ``req_id`` (0 when absent)."""
        return self._committed.get(req_id, 0)

    def can_admit(self, prompt_tokens: int, reserve_tokens: int = 0) -> bool:
        """Whether committing ``prompt_tokens`` now and up to
        ``reserve_tokens`` more later fits alongside existing reservations."""
        need = (prompt_tokens + reserve_tokens) * self.bytes_per_token
        return self.reserved_bytes + need <= self.capacity_bytes

    # -- mutations --------------------------------------------------------
    def _note(self, now: Optional[float]) -> None:
        self._peak = max(self._peak, self.committed_bytes)
        if self.trail is not None and now is not None:
            self.trail.append((now, self.committed_bytes))

    def _guard(self, extra_tokens: int, req_id: int) -> None:
        if not self.strict:
            return
        extra = extra_tokens * self.bytes_per_token
        if self.reserved_bytes + extra > self.capacity_bytes:
            raise MemoryOverflowError(
                self.label, f'kv:{req_id}', extra, self.capacity_bytes,
                self.reserved_bytes)

    def admit(self, req_id: int, prompt_tokens: int,
              reserve_tokens: int = 0, now: Optional[float] = None) -> None:
        """Commit a joining request's prompt KV; optionally reserve output
        headroom.  Loud on a duplicate id or (strict) on overflow."""
        if req_id in self._committed:
            raise ValueError(f'request {req_id} already holds KV here')
        if prompt_tokens < 1:
            raise ValueError(f'prompt_tokens must be >= 1, got {prompt_tokens}')
        if reserve_tokens < 0:
            raise ValueError('reserve_tokens must be non-negative')
        self._guard(prompt_tokens + reserve_tokens, req_id)
        self._committed[req_id] = prompt_tokens
        self._headroom[req_id] = reserve_tokens
        self._note(now)

    def extend(self, req_id: int, tokens: int = 1,
               now: Optional[float] = None) -> None:
        """Grow a resident request's KV by ``tokens`` emitted tokens.

        Tokens come out of the request's reserved headroom first; growth
        past the reservation re-checks capacity (strict) or spills into
        :attr:`overflow_bytes` (unbounded).
        """
        if req_id not in self._committed:
            raise KeyError(f'request {req_id} holds no KV here')
        if tokens < 1:
            raise ValueError(f'tokens must be >= 1, got {tokens}')
        covered = min(tokens, self._headroom[req_id])
        self._guard(tokens - covered, req_id)
        self._headroom[req_id] -= covered
        self._committed[req_id] += tokens
        self._note(now)

    def release(self, req_id: int, now: Optional[float] = None) -> int:
        """Drop a request's KV (EOS or failure); returns the tokens freed."""
        tokens = self._committed.pop(req_id, 0)
        self._headroom.pop(req_id, None)
        self._note(now)
        return tokens

    def clear(self, now: Optional[float] = None) -> int:
        """Release every resident request (replica death); tokens freed."""
        tokens = self.committed_tokens
        self._committed.clear()
        self._headroom.clear()
        self._note(now)
        return tokens


# ---------------------------------------------------------------------------
# the KV ledger

LEDGER_IDS = st.integers(0, 5)
NOWS = st.one_of(st.none(), st.floats(0.0, 10.0))
LEDGER_OPS = st.one_of(
    st.tuples(st.just('admit'), LEDGER_IDS, st.integers(-1, 6),
              st.integers(-1, 6), NOWS),
    st.tuples(st.just('extend'), LEDGER_IDS, st.integers(-1, 4), NOWS),
    st.tuples(st.just('emit'), st.lists(LEDGER_IDS, max_size=6), NOWS),
    st.tuples(st.just('release'), LEDGER_IDS, NOWS),
    st.tuples(st.just('clear'), NOWS))


def apply_op(ledger, op):
    """Run ``op`` on ``ledger``: the reference emits a step as one
    ``extend(req_id, 1)`` per id, the way the decode loop used to."""
    kind, *args = op
    if kind == 'emit' and isinstance(ledger, ReferenceLedger):
        req_ids, now = args
        for req_id in req_ids:
            ledger.extend(req_id, 1, now=now)
        return None
    return getattr(ledger, kind)(*args)


def outcome(ledger, op):
    try:
        return 'returned', apply_op(ledger, op)
    except (MemoryOverflowError, KeyError, ValueError) as exc:
        return type(exc), str(exc)


def observe(ledger) -> tuple:
    return (ledger.committed_tokens, ledger.committed_bytes,
            ledger.reserved_bytes, ledger.overflow_bytes,
            ledger.peak_committed_bytes, ledger.active_requests,
            ledger.utilization, ledger.can_admit(1, 2),
            [ledger.tokens_of(req_id) for req_id in range(6)],
            list(ledger.trail))


def assert_ledgers_agree(capacity, bytes_per_token, strict, ops) -> list:
    """Drive a new and a reference ledger through ``ops``; returns each
    op's outcome."""
    new = KVCacheLedger(capacity, bytes_per_token, label='lane0',
                        strict=strict, record_trail=True)
    ref = ReferenceLedger(capacity, bytes_per_token, label='lane0',
                          strict=strict, record_trail=True)
    outcomes = []
    for op in ops:
        got = outcome(new, op)
        assert got == outcome(ref, op), op
        assert observe(new) == observe(ref), op
        outcomes.append(got[0])
    return outcomes


@settings(max_examples=400, deadline=None)
@given(capacity=st.integers(1, 60), bytes_per_token=st.integers(1, 4),
       strict=st.booleans(), ops=st.lists(LEDGER_OPS, max_size=40))
def test_ledger_matches_its_former_sums(capacity, bytes_per_token, strict,
                                        ops):
    assert_ledgers_agree(capacity, bytes_per_token, strict, ops)


def test_ledger_matches_on_every_error_path():
    ops = [('admit', 1, 3, 2, 0.0),
           ('admit', 1, 1, 0, 0.5),          # duplicate id: ValueError
           ('admit', 2, 0, 0, 0.5),          # empty prompt: ValueError
           ('admit', 2, 1, -1, 0.5),         # negative reserve: ValueError
           ('admit', 2, 4, 1, 1.0),
           ('admit', 3, 2, 1, 1.0),          # strict: past capacity
           ('emit', [1, 2], 2.0),            # both covered by headroom
           ('emit', [1, 2, 1, 2], 3.0),      # strict: the last one overflows
           ('extend', 2, 0, 3.0),            # no tokens: ValueError
           ('extend', 4, 1, 3.0),            # absent id: KeyError
           ('release', 1, 4.0),
           ('emit', [2, 4], 5.0),            # absent id after a live one
           ('extend', 2, 1, None),
           ('release', 1, 5.5),              # releasing nothing frees nothing
           ('emit', [], 6.0),
           ('clear', 7.0)]
    for strict in (True, False):
        kinds = set(assert_ledgers_agree(12, 1, strict, ops))
        expected = {'returned', ValueError, KeyError}
        if strict:
            expected.add(MemoryOverflowError)
        assert kinds == expected


# ---------------------------------------------------------------------------
# the dynamic batcher


class ReferenceBatcher(DynamicBatcher):
    """The former dispatch decision: a list of the ready queues, then
    ``min`` over their heads; a list of deadlines, then ``min``."""

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


LADDER = (1, 2, 4, 8)
# repeated values give equal head arrivals; with these waits several of
# them round so that (a + w) - a < w
ARRIVALS = st.sampled_from([0.0, 0.1, 0.7, 1.1, 3.3, 10.1])
WAITS = st.sampled_from([0.0, 5e-4, 1e-3, 2e-3, 1e-2])
NOW_VALUES = st.one_of(ARRIVALS, st.builds(lambda a, w: a + w, ARRIVALS, WAITS),
                       st.floats(0.0, 11.0))
BATCHER_OPS = st.lists(st.one_of(
    st.tuples(st.just('offer'), st.integers(0, 3), st.integers(1, 8),
              ARRIVALS),
    st.tuples(st.just('pop'), NOW_VALUES)), max_size=40)


def batchers(num_models, policy):
    buckets = {f'm{i}': LADDER for i in range(num_models)}
    return DynamicBatcher(policy, buckets), ReferenceBatcher(policy, buckets)


@settings(max_examples=400, deadline=None)
@given(num_models=st.integers(1, 4), max_batch=st.integers(1, 8),
       max_wait=WAITS, queue_slack=st.one_of(st.none(), st.integers(0, 8)),
       ops=BATCHER_OPS)
def test_batcher_matches_its_former_scans(num_models, max_batch, max_wait,
                                          queue_slack, ops):
    policy = BatchingPolicy(
        max_batch=max_batch, max_wait=max_wait,
        max_queue=None if queue_slack is None else max_batch + queue_slack)
    new, ref = batchers(num_models, policy)
    for req_id, op in enumerate(ops):
        if op[0] == 'offer':
            _, model, size, arrival = op
            request = Request(req_id=req_id, model=f'm{model % num_models}',
                              size=min(size, max_batch), arrival=arrival)
            assert new.offer(request) == ref.offer(request)
        else:
            assert new.pop_ready(op[1]) == ref.pop_ready(op[1])
        assert new.next_deadline() == ref.next_deadline()
        assert new.pending() == ref.pending()


@settings(max_examples=200, deadline=None)
@given(max_wait=WAITS,
       heads=st.lists(st.tuples(st.integers(0, 3), ARRIVALS), min_size=1,
                      max_size=12))
def test_a_timer_armed_at_the_deadline_gets_a_batch(max_wait, heads):
    batcher, _ = batchers(4, BatchingPolicy(max_batch=8, max_wait=max_wait))
    for req_id, (model, arrival) in enumerate(heads):
        batcher.offer(Request(req_id=req_id, model=f'm{model}', size=1,
                              arrival=arrival))
    while batcher.pending():
        assert batcher.pop_ready(batcher.next_deadline()) is not None


def test_the_deadline_timer_survives_rounding():
    arrival, wait = 1.1, 1e-3
    assert (arrival + wait) - arrival < wait   # elapsed time falls short
    batcher, _ = batchers(1, BatchingPolicy(max_batch=8, max_wait=wait))
    batcher.offer(Request(req_id=0, model='m0', size=1, arrival=arrival))
    deadline = batcher.next_deadline()
    assert deadline == arrival + wait
    assert batcher.pop_ready(deadline) is not None
