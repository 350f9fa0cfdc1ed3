"""Serving metrics: throughput, tail latency, occupancy, cache economics.

Everything is computed from a finished simulation's completion records plus
the registry's compile accounting — the same split the runtime keeps
(:class:`~repro.runtime.compiled.CompileReport` vs serve-time latency), so a
report can say both "p99 was 6.2 ms" and "the cold-start tuning bill
amortized to 1.7 s per request over this trace".

The fold is built on :mod:`repro.obs`: every number in a
:class:`ServeStats` is first recorded into a
:class:`~repro.obs.metrics.MetricsRegistry` (counters for the request
channels and cache traffic, one latency :class:`~repro.obs.metrics.Histogram`
percentiled through the shared :mod:`repro.obs.percentiles` helper) and the
dataclass fields are read back out of it.  The registry rides along as
``stats.metrics`` — fold-time metrics are namespaced ``serve.*``, and a
run's live-sampled ``sim.*`` series (queue depth, replica count) join it
from the run's telemetry without double-counting either side.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..obs import NULL_TELEMETRY, MetricsRegistry
from .memory import format_bytes as _fmt_bytes

__all__ = ['ServeStats', 'compute_stats', 'format_serving_report']


@dataclass
class ServeStats:
    """Aggregate metrics of one simulated serving run.

    Latency fields are in **milliseconds**; ``duration``,
    ``cold_start_seconds``, and the amortized figures are in **seconds**
    (simulated time throughout — the simulator never reads a wall clock).
    ``num_requests`` counts *completed* requests only; with admission
    control, rejected arrivals appear in ``num_rejected``, lifecycle
    casualties (work on a replica that died mid-trace) in
    ``num_lost_to_failure``, and the offered load is the sum of all three
    (:attr:`offered_requests`).  The two drop channels are deliberately
    split: ``rejection_rate`` measures *admission control* (a policy
    decision under overload) while ``loss_rate`` measures *failures*, so
    rejection-rate comparisons between static and autoscaled runs stay
    apples-to-apples.
    """

    num_requests: int
    num_samples: int
    num_batches: int
    duration: float                  # first arrival -> last completion (s)
    throughput_rps: float            # completed requests / duration
    throughput_sps: float            # completed samples / duration
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    latency_max_ms: float
    mean_batch_size: float           # real samples per dispatch
    mean_occupancy: float            # real samples / bucket capacity
    bucket_histogram: dict[int, int] = field(default_factory=dict)
    #: schedule-cache traffic of the registrations serving this run
    cache_hits: int = 0
    cache_misses: int = 0
    cache_transfer_hits: int = 0
    #: misses served by adopting a foreign device's schedule (fleet tier)
    cache_device_transfer_hits: int = 0
    #: one-off simulated tuning seconds paid before the first request
    cold_start_seconds: float = 0.0
    #: arrivals turned away by admission control (policy.max_queue)
    num_rejected: int = 0
    #: requests lost to a replica failure: in-flight on the dead GPU, or
    #: queued there and not re-admittable — no live host, or every
    #: survivor's admission bound refused the transfer.  Failure-caused
    #: drops land here even when an admission check did the refusing;
    #: ``num_rejected`` stays an *arrival-time* policy channel (never
    #: silent either way)
    num_lost_to_failure: int = 0
    #: queued requests re-admitted onto a surviving replica after a failure
    #: (they complete with their original arrival, so the outage shows up in
    #: their latency, not in a dropped count)
    num_requeued: int = 0
    #: integral of live replicas over the run (replica-**seconds**, simulated)
    #: — the capacity bill an autoscaled run is judged by
    replica_seconds: float = 0.0
    #: simulated tuning seconds paid by replicas that *joined* mid-run
    #: (split from ``cold_start_seconds``, which is the pre-trace bill)
    scale_up_tuning_seconds: float = 0.0
    #: replica label -> high-water mark of committed DRAM bytes over the
    #: run (empty for single-GPU runs without memory accounting)
    peak_memory_bytes: dict[str, int] = field(default_factory=dict)
    #: replica label -> DRAM capacity in bytes (pairs with the peaks above)
    memory_capacity_bytes: dict[str, int] = field(default_factory=dict)
    #: token-level channel, filled by decode (continuous-batching) runs and
    #: zero otherwise: prompt tokens prefilled, output tokens emitted
    #: (including by requests later lost to failure), decode iterations run
    num_prefill_tokens: int = 0
    num_decode_tokens: int = 0
    num_decode_steps: int = 0
    #: emitted output tokens per simulated second (the decode throughput
    #: axis the continuous-vs-request-level claim is judged on)
    tokens_per_second: float = 0.0
    #: mean priced decode-batch width over the run's iterations
    mean_decode_width: float = 0.0
    #: lane label -> high-water mark of committed KV-cache bytes
    kv_peak_bytes: dict[str, int] = field(default_factory=dict)
    #: lane label -> KV capacity in bytes (pairs with the peaks above)
    kv_capacity_bytes: dict[str, int] = field(default_factory=dict)
    #: decode iterations that paid a host-swap penalty for KV spilled past
    #: capacity (always 0 under reserve admission — the ledger invariant)
    kv_overflow_steps: int = 0
    #: the full metrics registry this fold was computed through (``serve.*``
    #: fold-time metrics plus any merged live ``sim.*`` series); carried
    #: out-of-band of equality/repr — two runs are "equal" when their
    #: numbers agree, not when their sample series do
    metrics: Optional[MetricsRegistry] = field(default=None, compare=False,
                                               repr=False)

    @property
    def peak_kv_utilization(self) -> float:
        """Worst committed-KV fraction across decode lanes (0.0 for
        non-decode runs)."""
        fractions = [self.kv_peak_bytes.get(label, 0) / capacity
                     for label, capacity in self.kv_capacity_bytes.items()
                     if capacity > 0]
        return max(fractions, default=0.0)

    @property
    def peak_memory_utilization(self) -> float:
        """Worst committed-DRAM fraction across replicas (0.0 without
        memory accounting)."""
        fractions = [self.peak_memory_bytes.get(label, 0) / capacity
                     for label, capacity in self.memory_capacity_bytes.items()
                     if capacity > 0]
        return max(fractions, default=0.0)

    @property
    def offered_requests(self) -> int:
        """Total arrivals: completed plus rejected plus lost to failure."""
        return self.num_requests + self.num_rejected + self.num_lost_to_failure

    @property
    def rejection_rate(self) -> float:
        """Fraction of offered requests turned away by admission control
        (failure losses are counted separately — see :attr:`loss_rate`)."""
        if self.offered_requests == 0:
            return 0.0
        return self.num_rejected / self.offered_requests

    @property
    def loss_rate(self) -> float:
        """Fraction of offered requests lost to replica failures."""
        if self.offered_requests == 0:
            return 0.0
        return self.num_lost_to_failure / self.offered_requests

    @property
    def cache_hit_rate(self) -> float:
        """Lookups served from the cache (exact or transfer) over all lookups.

        Every lookup first counts an exact hit or miss; a transfer-served
        lookup (size-family or device-family) is one of the *misses* that
        then found a transferable record, so the denominator is
        ``hits + misses`` and transfer hits move their miss into the
        numerator rather than adding a third lookup.
        """
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return (self.cache_hits + self.cache_transfer_hits
                + self.cache_device_transfer_hits) / total

    @property
    def cold_start_amortized_seconds(self) -> float:
        """Compile-time tuning bill (seconds) spread over completed requests."""
        return self.cold_start_seconds / max(1, self.num_requests)


#: the channels a run result may carry, by the :class:`ServeStats` field
#: they fill, with their value for a run that has no such channel
_CHANNELS = {
    'num_requeued': 0, 'replica_seconds': 0.0,
    'scale_up_tuning_seconds': 0.0,
    'peak_memory_bytes': {}, 'memory_capacity_bytes': {},
    'num_prefill_tokens': 0, 'num_decode_tokens': 0, 'num_decode_steps': 0,
    'mean_decode_width': 0.0, 'kv_peak_bytes': {}, 'kv_capacity_bytes': {},
    'kv_overflow_steps': 0,
}


def compute_stats(result, registry=None,
                  cold_start_seconds: Optional[float] = None,
                  telemetry=None) -> ServeStats:
    """Fold a finished run's result into a :class:`ServeStats`.

    ``result`` is a simulator's result object: its ``record``
    (:class:`~repro.serve.simulator.RunRecord`) holds the completed
    requests and the dispatched batches (none for a decode run) as
    columns, which the fold reads with numpy, and ``rejected`` the
    requests admission control turned away.  The lifecycle
    channel — ``lost`` (requests dropped by replica failures),
    ``num_requeued``, ``replica_seconds``, ``scale_up_tuning_seconds`` —
    and the memory and token channels are read from the result when it
    has them (see ``_CHANNELS``) and are zero otherwise.  ``registry``
    contributes the compile-side accounting (or, for a fleet, any object
    with a ``models`` mapping and ``total_compile_seconds``); pass
    ``cold_start_seconds`` to override (e.g. when the registry was warmed
    from disk and charged nothing).

    The fold runs *through* a fresh ``serve.*``-namespaced
    :class:`~repro.obs.metrics.MetricsRegistry` (returned as
    ``stats.metrics``): counters for every request channel and cache tier,
    and one latency histogram whose percentiles are the dataclass's
    latency fields.  The live ``sim.*`` metrics of ``telemetry`` (the
    :class:`~repro.obs.Telemetry` the run recorded into) are merged in by
    name, existing names winning, so live and fold-time views coexist
    without double-counting.

    A run with offered load but **zero completions** (every request
    rejected or lost — e.g. failure injection killing the whole fleet at
    t=0) still reports: latency fields come back NaN (undefined, and NaN
    never fakes an SLO pass), throughput zero, and the rejection/loss
    channels carry the story.  Only a run with no requests at all raises.
    """
    arrivals, finishes, sizes = result.record.completed()
    buckets, batch_sizes = result.record.dispatched()
    num_completed, num_batches = len(finishes), len(buckets)
    rejected = result.rejected
    lost = getattr(result, 'lost', ())
    channels = {}
    for name, default in _CHANNELS.items():
        value = getattr(result, name, default)
        # copied: the stats must not alias the result's (or these) dicts
        channels[name] = dict(value) if isinstance(value, dict) else value
    if not num_completed and not rejected and not lost:
        raise ValueError('cannot compute serving stats of an empty run')

    hits = misses = transfers = device_transfers = 0
    cold = 0.0
    if registry is not None:
        for model in registry.models.values():
            traffic = model.cache_traffic()
            hits += traffic['hits']
            misses += traffic['misses']
            transfers += traffic['transfer_hits']
            device_transfers += traffic.get('device_transfer_hits', 0)
        cold = registry.total_compile_seconds
    if cold_start_seconds is not None:
        cold = cold_start_seconds

    metrics = MetricsRegistry()
    metrics.counter('serve.requests.completed',
                    unit='requests').add(num_completed)
    metrics.counter('serve.requests.rejected',
                    unit='requests').add(len(rejected))
    metrics.counter('serve.requests.lost', unit='requests').add(len(lost))
    metrics.counter('serve.requests.requeued',
                    unit='requests').add(channels['num_requeued'])
    metrics.counter('serve.batches', unit='batches').add(num_batches)
    metrics.counter('serve.cache.hits').add(hits)
    metrics.counter('serve.cache.misses').add(misses)
    metrics.counter('serve.cache.transfer_hits').add(transfers)
    metrics.counter('serve.cache.device_transfer_hits').add(device_transfers)
    metrics.counter('serve.cold_start_seconds', unit='s').add(cold)
    metrics.counter('serve.replica_seconds', unit='s').add(
        channels['replica_seconds'])
    metrics.counter('serve.scale_up_tuning_seconds', unit='s').add(
        channels['scale_up_tuning_seconds'])
    if channels['num_decode_steps']:
        # the token-level channel exists only for decode runs, so classic
        # whole-request folds keep their historical metric set byte-for-byte
        metrics.counter('serve.tokens.prefill', unit='tokens').add(
            channels['num_prefill_tokens'])
        metrics.counter('serve.tokens.decode', unit='tokens').add(
            channels['num_decode_tokens'])
        metrics.counter('serve.decode.steps', unit='steps').add(
            channels['num_decode_steps'])
        metrics.counter('serve.kv.overflow_steps', unit='steps').add(
            channels['kv_overflow_steps'])
    metrics.merge((telemetry or NULL_TELEMETRY).metrics)

    # everything except the latency/throughput block, shared by both
    # construction sites so a future field cannot drift between them
    channels.update(
        cache_hits=hits, cache_misses=misses,
        cache_transfer_hits=transfers,
        cache_device_transfer_hits=device_transfers,
        cold_start_seconds=cold,
        num_rejected=len(rejected),
        num_lost_to_failure=len(lost),
        metrics=metrics,
    )

    if not num_completed:
        nan = float('nan')
        return ServeStats(
            num_requests=0, num_samples=0, num_batches=num_batches,
            duration=0.0, throughput_rps=0.0, throughput_sps=0.0,
            latency_p50_ms=nan, latency_p95_ms=nan, latency_p99_ms=nan,
            latency_mean_ms=nan, latency_max_ms=nan,
            mean_batch_size=0.0, mean_occupancy=0.0,
            **channels,
        )

    latency_hist = metrics.histogram('serve.latency_ms', unit='ms')
    latency_hist.observe_many((finishes - arrivals) * 1e3)
    duration = float(finishes.max() - arrivals.min())
    if duration <= 0:
        duration = float(finishes.max()) or 1e-12
    num_samples = int(sizes.sum())
    occupancy_hist = metrics.histogram('serve.batch.occupancy')
    occupancy_hist.observe_many(batch_sizes / buckets)
    histogram = dict(zip(*(part.tolist() for part in np.unique(
        buckets, return_counts=True))))
    metrics.counter('serve.samples.completed',
                    unit='samples').add(num_samples)

    return ServeStats(
        num_requests=num_completed,
        num_samples=num_samples,
        num_batches=num_batches,
        duration=duration,
        throughput_rps=num_completed / duration,
        throughput_sps=num_samples / duration,
        latency_p50_ms=latency_hist.percentile(50),
        latency_p95_ms=latency_hist.percentile(95),
        latency_p99_ms=latency_hist.percentile(99),
        latency_mean_ms=latency_hist.mean(),
        latency_max_ms=latency_hist.max(),
        mean_batch_size=num_samples / max(1, num_batches),
        mean_occupancy=(occupancy_hist.mean() if num_batches else 0.0),
        bucket_histogram=histogram,
        tokens_per_second=channels['num_decode_tokens'] / duration,
        **channels,
    )


def format_serving_report(stats: ServeStats, title: str = 'serving run') -> str:
    """Human-readable block of one run's serving metrics."""
    buckets = ', '.join(f'{b}x{n}' for b, n in stats.bucket_histogram.items())
    admitted = (f', {stats.num_rejected} rejected '
                f'({stats.rejection_rate * 100:.1f}% of offered)'
                if stats.num_rejected else '')
    transfers = f'{stats.cache_transfer_hits} transfer hits'
    if stats.cache_device_transfer_hits:
        transfers += (f', {stats.cache_device_transfer_hits} '
                      f'device-transfer hits')
    lines = [
        f'{title}:',
        f'  requests {stats.num_requests} ({stats.num_samples} samples) in '
        f'{stats.duration * 1e3:.1f} ms simulated{admitted}',
        f'  throughput {stats.throughput_rps:10.1f} req/s '
        f'({stats.throughput_sps:.1f} samples/s)',
        f'  latency ms p50 {stats.latency_p50_ms:8.3f}  '
        f'p95 {stats.latency_p95_ms:8.3f}  p99 {stats.latency_p99_ms:8.3f}  '
        f'max {stats.latency_max_ms:8.3f}',
        *([] if stats.num_decode_steps and not stats.num_batches else
          [f'  batches {stats.num_batches} (mean size '
           f'{stats.mean_batch_size:.2f}, occupancy '
           f'{stats.mean_occupancy * 100:.0f}%)  dispatched: {buckets}']),
        f'  schedule cache: {stats.cache_hits} hits, '
        f'{transfers}, {stats.cache_misses} '
        f'misses (hit rate {stats.cache_hit_rate * 100:.0f}%)',
        f'  cold start: {stats.cold_start_seconds:.1f} tuning seconds, '
        f'amortized {stats.cold_start_amortized_seconds:.2f} s/request over '
        f'this trace',
    ]
    if stats.num_requeued or stats.num_lost_to_failure:
        lines.append(
            f'  lifecycle: {stats.num_requeued} requeued, '
            f'{stats.num_lost_to_failure} lost to failure '
            f'({stats.loss_rate * 100:.1f}% of offered)')
    if stats.replica_seconds:
        lines.append(
            f'  capacity: {stats.replica_seconds:.2f} replica-seconds'
            + (f', scale-up tuning {stats.scale_up_tuning_seconds:.1f} s'
               if stats.scale_up_tuning_seconds else ''))
    if stats.memory_capacity_bytes:
        total_peak = sum(stats.peak_memory_bytes.values())
        total_cap = sum(stats.memory_capacity_bytes.values())
        lines.append(
            f'  memory: peak {_fmt_bytes(total_peak)} of '
            f'{_fmt_bytes(total_cap)} fleet DRAM committed '
            f'(worst replica {stats.peak_memory_utilization * 100:.0f}%)')
    if stats.num_decode_steps:
        lines.append(
            f'  decode: {stats.num_decode_tokens} tokens over '
            f'{stats.num_decode_steps} steps (mean width '
            f'{stats.mean_decode_width:.2f}, '
            f'{stats.tokens_per_second:.1f} tokens/s, prefilled '
            f'{stats.num_prefill_tokens} prompt tokens)')
        if stats.kv_capacity_bytes:
            kv_peak = sum(stats.kv_peak_bytes.values())
            kv_cap = sum(stats.kv_capacity_bytes.values())
            overflow = (f', {stats.kv_overflow_steps} swap-penalized steps'
                        if stats.kv_overflow_steps else '')
            lines.append(
                f'  kv cache: peak {_fmt_bytes(kv_peak)} of '
                f'{_fmt_bytes(kv_cap)} committed (worst lane '
                f'{stats.peak_kv_utilization * 100:.0f}%){overflow}')
    return '\n'.join(lines)
