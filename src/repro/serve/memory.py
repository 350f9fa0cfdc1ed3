"""Per-replica device memory accounting for the serving fleet.

Every replica models its GPU's DRAM as a :class:`MemoryModel`: a capacity in
bytes (from :attr:`~repro.gpusim.device.DeviceSpec.memory_bytes`) plus a map
of named reservations.  Model footprints are *computed from the graphs that
will actually run* rather than guessed — :func:`footprint_from_graphs` walks
the tensors of each batch bucket's :class:`~repro.graph.flow_graph.FlowGraph`
and splits them into

* **weights** — constant tensors (parameters), shared by every bucket, so the
  bill is the maximum over buckets (they are identical in practice);
* **activations** — non-constant intermediate/output tensors, billed per
  batch bucket because each bucket is a separately compiled graph; and
* **workspace** — the single largest transient tensor, a proxy for scratch
  allocations (tuning workspace, reduction staging) that live outside the
  graph's named tensors.

Committing more than the capacity raises :class:`MemoryOverflowError`
*loudly*: memory bugs in a simulator otherwise surface only as silently
impossible fleet-sizing answers.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

__all__ = [
    'MemoryOverflowError', 'ModelFootprint', 'footprint_from_graphs',
    'graph_tensor_bytes', 'MemoryModel', 'KVCacheLedger', 'format_bytes',
]


def format_bytes(n: int) -> str:
    """Human-readable byte count (binary units), for reports and errors."""
    value = float(n)
    for unit in ('B', 'KiB', 'MiB', 'GiB'):
        if abs(value) < 1024.0 or unit == 'GiB':
            return f'{value:.1f} {unit}' if unit != 'B' else f'{int(value)} B'
        value /= 1024.0
    return f'{int(n)} B'  # pragma: no cover - unreachable


class MemoryOverflowError(RuntimeError):
    """A reservation would exceed a replica's DRAM capacity.

    Raised by :meth:`MemoryModel.commit` and by capacity-checked placement
    (``partition`` when a model fits on no replica).  Carries the numbers a
    postmortem needs: what was requested, for whom, and how full the device
    already was.
    """

    def __init__(self, label: str, key: str, requested: int,
                 capacity: int, committed: int) -> None:
        self.label = label
        self.key = key
        self.requested = requested
        self.capacity = capacity
        self.committed = committed
        free = capacity - committed
        super().__init__(
            f'{label or "replica"}: cannot reserve '
            f'{format_bytes(requested)} for {key!r}: '
            f'{format_bytes(committed)} of {format_bytes(capacity)} '
            f'committed, {format_bytes(free)} free')


def graph_tensor_bytes(graph) -> Dict[str, int]:
    """Split one FlowGraph's tensors into weight/activation/workspace bytes.

    Tensors are deduplicated by identity: a weight consumed by two operators
    occupies DRAM once.  Returns a dict with keys ``weights``,
    ``activations`` and ``workspace`` (largest single non-constant tensor).
    """
    seen: Dict[int, object] = {}

    def visit(tensor) -> None:
        if tensor is not None and id(tensor) not in seen:
            seen[id(tensor)] = tensor

    for tensor in getattr(graph, 'inputs', ()):
        visit(tensor)
    for op in getattr(graph, 'nodes', ()):
        for tensor in op.inputs:
            visit(tensor)
        visit(op.output)
    for tensor in getattr(graph, 'outputs', ()):
        visit(tensor)

    weights = 0
    activations = 0
    workspace = 0
    for tensor in seen.values():
        nbytes = int(tensor.nbytes)
        if tensor.is_constant:
            weights += nbytes
        else:
            activations += nbytes
            workspace = max(workspace, nbytes)
    return {'weights': weights, 'activations': activations,
            'workspace': workspace}


@dataclass(frozen=True)
class ModelFootprint:
    """DRAM bill of one registered model across its batch buckets."""

    name: str
    weights_bytes: int
    workspace_bytes: int
    #: bytes of live activations per batch bucket (bucket -> bytes)
    activation_bytes: Mapping[int, int] = field(default_factory=dict)

    def bytes_for(self, buckets: Optional[Iterable[int]] = None) -> int:
        """Total reservation for serving the given buckets (default: all)."""
        if buckets is None:
            buckets = self.activation_bytes.keys()
        acts = sum(self.activation_bytes.get(b, 0) for b in buckets)
        return self.weights_bytes + self.workspace_bytes + acts

    @property
    def total_bytes(self) -> int:
        """Reservation with every bucket resident."""
        return self.bytes_for()

    def bucket_bytes(self, bucket: int) -> int:
        """Incremental cost of adding one more batch bucket (activations)."""
        return self.activation_bytes.get(bucket, 0)


def footprint_from_graphs(name: str, graphs: Mapping[int, object],
                          ) -> ModelFootprint:
    """Compute a :class:`ModelFootprint` from per-bucket FlowGraphs.

    ``graphs`` maps batch bucket -> the FlowGraph compiled for that bucket.
    Weights are billed once (max over buckets guards against buckets that
    somehow disagree); activations are billed per bucket; workspace is the
    largest transient tensor seen anywhere.
    """
    if not graphs:
        raise ValueError(f'model {name!r}: no graphs to measure')
    weights = 0
    workspace = 0
    activations: Dict[int, int] = {}
    for bucket, graph in sorted(graphs.items()):
        split = graph_tensor_bytes(graph)
        weights = max(weights, split['weights'])
        workspace = max(workspace, split['workspace'])
        activations[int(bucket)] = split['activations']
    return ModelFootprint(name=name, weights_bytes=weights,
                          workspace_bytes=workspace,
                          activation_bytes=activations)


class MemoryModel:
    """Committed-bytes ledger for one replica's DRAM.

    Reservations are keyed by model name and *accumulate*: registering a
    model commits its initial footprint, growing its bucket ladder commits
    the incremental activation bytes under the same key, and
    :meth:`release` returns the whole reservation at eviction.  The peak
    watermark is monotone and survives releases — it is what capacity
    planning reads.
    """

    def __init__(self, capacity_bytes: int, label: str = '') -> None:
        if capacity_bytes <= 0:
            raise ValueError(f'capacity_bytes must be positive, '
                             f'got {capacity_bytes}')
        self.capacity_bytes = int(capacity_bytes)
        self.label = label
        self._reservations: Dict[str, int] = {}
        self._peak = 0

    # -- queries ----------------------------------------------------------
    @property
    def committed_bytes(self) -> int:
        return sum(self._reservations.values())

    @property
    def peak_committed_bytes(self) -> int:
        return self._peak

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.committed_bytes

    @property
    def utilization(self) -> float:
        return self.committed_bytes / self.capacity_bytes

    def fits(self, nbytes: int) -> bool:
        return nbytes <= self.free_bytes

    def reserved(self, key: str) -> int:
        """Bytes currently committed under ``key`` (0 when absent)."""
        return self._reservations.get(key, 0)

    def reservations(self) -> Dict[str, int]:
        return dict(self._reservations)

    # -- mutations --------------------------------------------------------
    def commit(self, key: str, nbytes: int) -> None:
        """Reserve ``nbytes`` more under ``key``; loud on overflow."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f'cannot commit negative bytes ({nbytes})')
        if not self.fits(nbytes):
            raise MemoryOverflowError(
                self.label, key, nbytes, self.capacity_bytes,
                self.committed_bytes)
        self._reservations[key] = self._reservations.get(key, 0) + nbytes
        self._peak = max(self._peak, self.committed_bytes)

    def release(self, key: str) -> int:
        """Drop the whole reservation for ``key``; returns the bytes freed."""
        return self._reservations.pop(key, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f'MemoryModel({self.label or "?"}: '
                f'{format_bytes(self.committed_bytes)}'
                f'/{format_bytes(self.capacity_bytes)} committed, '
                f'peak {format_bytes(self._peak)})')


class KVCacheLedger:
    """Token-granular KV-cache accounting for one replica's decode batch.

    Where :class:`MemoryModel` bills whole model footprints, this ledger
    bills *tokens*: each admitted request commits its prompt tokens at
    ``bytes_per_token`` each, grows by one token per decode step, and
    releases everything at EOS (or when its replica dies).  Admission may
    additionally *reserve* headroom for a request's worst-case output so a
    capacity check at join time guarantees the decode can run to EOS
    without ever overflowing — each emitted token then converts one
    reserved token into a committed one, keeping the reserved total flat.

    ``strict=True`` (the capacity-admission regime) raises
    :class:`MemoryOverflowError` on any mutation that would push the
    reserved total past ``capacity_bytes`` — the invariant the decode
    simulator's admission policy must uphold.  ``strict=False`` (the
    unbounded-admission ablation) lets the committed total run past
    capacity and exposes the excess as :attr:`overflow_bytes`, which the
    cost model converts into a per-step host-swap penalty.

    ``record_trail=True`` appends ``(time, committed_bytes)`` after every
    timestamped mutation, so tests can assert the capacity invariant *at
    every simulated instant*, not just at the end.
    """

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
        # running sums of the two dicts, so no query walks the residents
        self._committed_total = self._headroom_total = 0
        self._peak = 0
        self.trail: list = [] if record_trail else None

    # -- queries ----------------------------------------------------------
    @property
    def committed_tokens(self) -> int:
        return self._committed_total

    @property
    def committed_bytes(self) -> int:
        """Bytes of KV actually resident (prompt + emitted tokens)."""
        return self._committed_total * self.bytes_per_token

    @property
    def reserved_bytes(self) -> int:
        """Committed bytes plus admission-time headroom (the planning view)."""
        return ((self._committed_total + self._headroom_total)
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
        self._committed_total += prompt_tokens
        self._headroom_total += reserve_tokens
        self._note(now)

    def _grow(self, req_id: int, tokens: int) -> None:
        """One request's growth: :meth:`extend` minus the peak and trail."""
        if req_id not in self._committed:
            raise KeyError(f'request {req_id} holds no KV here')
        if tokens < 1:
            raise ValueError(f'tokens must be >= 1, got {tokens}')
        covered = min(tokens, self._headroom[req_id])
        self._guard(tokens - covered, req_id)
        self._headroom[req_id] -= covered
        self._committed[req_id] += tokens
        self._headroom_total -= covered
        self._committed_total += tokens

    def extend(self, req_id: int, tokens: int = 1,
               now: Optional[float] = None) -> None:
        """Grow a resident request's KV by ``tokens`` emitted tokens.

        Tokens come out of the request's reserved headroom first; growth
        past the reservation re-checks capacity (strict) or spills into
        :attr:`overflow_bytes` (unbounded).
        """
        self._grow(req_id, tokens)
        self._note(now)

    def emit(self, req_ids: Iterable[int],
             now: Optional[float] = None) -> None:
        """One decode step: ``extend(req_id, 1, now)`` for each id in order,
        but the peak is taken once, as committed KV only grows here."""
        trail = self.trail if now is not None else None
        try:
            for req_id in req_ids:
                self._grow(req_id, 1)
                if trail is not None:
                    trail.append((now, self.committed_bytes))
        finally:
            self._peak = max(self._peak, self.committed_bytes)

    def release(self, req_id: int, now: Optional[float] = None) -> int:
        """Drop a request's KV (EOS or failure); returns the tokens freed."""
        tokens = self._committed.pop(req_id, 0)
        self._committed_total -= tokens
        self._headroom_total -= self._headroom.pop(req_id, 0)
        self._note(now)
        return tokens

    def clear(self, now: Optional[float] = None) -> int:
        """Release every resident request (replica death); tokens freed."""
        tokens = self._committed_total
        self._committed.clear()
        self._headroom.clear()
        self._committed_total = self._headroom_total = 0
        self._note(now)
        return tokens

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f'KVCacheLedger({self.label or "?"}: '
                f'{format_bytes(self.committed_bytes)}'
                f'/{format_bytes(self.capacity_bytes)} committed over '
                f'{self.active_requests} requests, '
                f'peak {format_bytes(self._peak)})')
