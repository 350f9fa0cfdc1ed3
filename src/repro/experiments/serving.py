"""Serving experiment: co-hosted models under dynamic batching (PR 2).

Not a paper figure — the layer above them: Figure 17's reusable schedules
and Figure 20's batch scaling, composed into a serving story.  A
:class:`~repro.serve.registry.ModelRegistry` pre-compiles batch-bucket
ladders for co-hosted ResNet-50 and Bert, then a discrete-event simulator
replays Poisson (and bursty) request traces and reports throughput, tail
latency, batch occupancy, and schedule-cache economics.

Two claims are measured:

* **dynamic batching beats batch=1 serving** at equal offered load once the
  load exceeds the no-batching capacity (batch buckets scale sublinearly,
  Figure 20), and
* **warm registries compile for free**: re-registering from a persisted
  schedule cache — including growing the ladder by another bucket — charges
  zero simulated tuning seconds.
"""
from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Optional

from ..gpusim import DecodeCostModel
from ..models import for_batch, gpt2_kv_bytes_per_token
from ..serve import (BATCH_OVERHEAD_SECONDS, BatchingPolicy, DecodePolicy,
                     DecodeSimulator, ModelRegistry, ServerSimulator,
                     ServeStats, bursty_trace, decode_trace,
                     footprint_from_graphs, format_bytes,
                     format_serving_report, poisson_trace)

__all__ = ['ServingReport', 'run_serving', 'run_qps_sweep', 'QpsPoint',
           'format_serving', 'format_qps_sweep', 'FULL_MODELS', 'SMOKE_MODELS',
           'build_registry', 'batch1_capacity',
           'DecodeReport', 'run_decode_serving', 'format_decode_report',
           'DECODE_FULL_CONFIG', 'DECODE_SMOKE_CONFIG', 'decode_cost_model']

#: the co-hosted pair of the acceptance scenario, at paper-scale shapes
FULL_MODELS = {'resnet50': {}, 'bert': {}}

#: scaled-down variants of the same architectures for sub-10s smoke runs
SMOKE_MODELS = {
    'resnet50': {'image_size': 64},
    'bert': {'layers': 2, 'seq_length': 32, 'vocab_size': 2000},
}

#: GPT-2 shapes of the decode (continuous-batching) experiment
DECODE_FULL_CONFIG: dict = {}
DECODE_SMOKE_CONFIG = {'seq_length': 32, 'hidden': 64, 'layers': 2,
                       'heads': 2, 'vocab_size': 512}


@dataclass
class ServingReport:
    """One co-hosted serving comparison plus registry warm-start accounting."""

    models: dict[str, tuple[int, ...]]       # name -> compiled bucket ladder
    qps: float                               # offered load of the Poisson trace
    num_requests: int
    dynamic: ServeStats                      # dynamic batching, Poisson trace
    batch1: ServeStats                       # no batching, same offered load
    bursty: ServeStats                       # dynamic batching, bursty trace
    cold_compile_seconds: float              # first registration, empty cache
    warm_ladder_seconds: float               # same ladders from persisted cache
    warm_second_bucket_seconds: float        # one more bucket on a warm registry

    @property
    def throughput_gain(self) -> float:
        """Dynamic-batching throughput over batch=1 at equal offered load."""
        return self.dynamic.throughput_rps / self.batch1.throughput_rps


def _zoo_builder(name: str, kwargs: dict, built: dict):
    """Batch-bucket builder over the zoo, memoizing built graphs.

    Graph *construction* is pure host work; memoizing it lets the warm
    registries of :func:`run_serving` skip rebuilds while still compiling
    through the disk-persisted schedule cache (the claim under test).
    """
    def build(b: int):
        key = (name, b)
        if key not in built:
            built[key] = for_batch(name, b, **kwargs)
        return built[key]
    return build


def build_registry(model_cfgs: dict, buckets, built: Optional[dict] = None,
                   cache_path=None) -> ModelRegistry:
    """Registry over zoo models: ``{name: builder_kwargs}`` × bucket ladder."""
    built = {} if built is None else built
    registry = ModelRegistry(cache_path=cache_path)
    for name, kwargs in model_cfgs.items():
        registry.register(name, builder=_zoo_builder(name, kwargs, built),
                          buckets=buckets)
    return registry


def batch1_capacity(registry: ModelRegistry,
                    batch_overhead: float = BATCH_OVERHEAD_SECONDS) -> float:
    """Requests/second a batch=1 server sustains over an even model mix.

    The reference point offered loads are scaled against — both
    :func:`run_serving` and the QPS sweep benchmark derive their load from
    it, so 'offered load relative to no-batching capacity' means the same
    thing everywhere.
    """
    names = sorted(registry.models)
    mean_service = sum(registry[name].latency(1) + batch_overhead
                       for name in names) / len(names)
    return 1.0 / mean_service


def run_serving(num_requests: int = 2000, buckets=(1, 2, 4, 8),
                max_wait: float = 2e-3, seed: int = 0,
                offered_load_factor: float = 1.5,
                smoke: bool = False, telemetry=None) -> ServingReport:
    """Replay request traces over co-hosted ResNet-50 + Bert.

    The Poisson trace's offered load is set to ``offered_load_factor`` times
    the measured *batch=1* capacity of the co-hosted pair, so the comparison
    runs in the regime dynamic batching exists for (offered load a no-batching
    server cannot sustain).  ``smoke=True`` swaps in scaled-down model shapes
    for a sub-10-second run with the same code path.

    ``telemetry`` (a :class:`repro.obs.Telemetry`) records the headline
    dynamic-batching Poisson run — and only that one: the batch=1 and
    bursty runs replay the *same request ids*, and one telemetry instance
    records one run.
    """
    buckets = tuple(sorted(set(buckets)))
    if len(buckets) < 2 or buckets[0] != 1:
        raise ValueError('run_serving needs a bucket ladder starting at 1 '
                         f'with at least two buckets, got {buckets} (the '
                         'batch=1 baseline and the warm-growth demo use them)')
    model_cfgs = SMOKE_MODELS if smoke else FULL_MODELS
    max_batch = max(buckets)
    built: dict = {}                      # (model, batch) -> FlowGraph
    with tempfile.TemporaryDirectory(prefix='repro_serve_') as tmp:
        cache_path = os.path.join(tmp, 'schedules.json')
        registry = build_registry(model_cfgs, buckets, built,
                                  cache_path=cache_path)
        cold_seconds = registry.total_compile_seconds

        # offered load: batch=1 capacity of the co-hosted mix, scaled up
        sim1 = ServerSimulator(registry, BatchingPolicy(max_batch=1, max_wait=0.0))
        qps = offered_load_factor * batch1_capacity(registry)

        names = sorted(model_cfgs)
        trace = poisson_trace(qps=qps, num_requests=num_requests,
                              models=names, seed=seed)
        dyn_sim = ServerSimulator(registry,
                                  BatchingPolicy(max_batch=max_batch,
                                                 max_wait=max_wait))
        dynamic = dyn_sim.run(trace, telemetry=telemetry).stats(
            registry, telemetry=telemetry)
        batch1 = sim1.run(trace).stats(registry)
        burst = bursty_trace(burst_qps=2.0 * qps, idle_qps=0.2 * qps,
                             num_requests=num_requests, models=names,
                             burst_seconds=0.05, idle_seconds=0.05, seed=seed)
        bursty = dyn_sim.run(burst).stats(registry)

        # warm restart: a fresh registry over the persisted cache re-compiles
        # every ladder without tuning anything
        warm = build_registry(model_cfgs, buckets, built,
                              cache_path=cache_path)
        warm_ladder_seconds = warm.total_compile_seconds

        # and a registry that starts with one bucket grows its ladder for
        # free too: the second bucket's schedules are already in the cache
        first = names[0]
        ladder = sorted(buckets)
        grower = ModelRegistry(cache_path=cache_path)
        grower.register(first, builder=_zoo_builder(first, model_cfgs[first], built),
                        buckets=[ladder[0]])
        before = grower.clock.elapsed_seconds
        grower.add_bucket(first, ladder[1])
        warm_second_bucket_seconds = grower.clock.elapsed_seconds - before

    return ServingReport(
        models=registry.bucket_map(),
        qps=qps,
        num_requests=num_requests,
        dynamic=dynamic,
        batch1=batch1,
        bursty=bursty,
        cold_compile_seconds=cold_seconds,
        warm_ladder_seconds=warm_ladder_seconds,
        warm_second_bucket_seconds=warm_second_bucket_seconds,
    )


@dataclass
class DecodeReport:
    """Continuous batching and KV-admission comparison over GPT-2 decode.

    Four runs of the *same* seeded mixed-length trace:

    * ``continuous`` — iteration-level batching, generous KV (the headline);
    * ``request_level`` — whole-batch decoding at the same load: a batch
      forms only on an idle lane, its width is priced for its whole life,
      and every member's slot and KV stay pinned until the longest one
      finishes (claim 1's baseline);
    * ``reserve`` — continuous batching under a *tight* KV budget with
      reservation admission (worst-case prompt+output must fit; KV can
      never overflow);
    * ``unbounded`` — the same tight budget admitting freely: overflow
      pays a host-swap penalty per decode step, and the tail collapses
      (claim 2's baseline).

    ``slo_p99_ms`` is the decode latency SLO the admission claim is judged
    against: 2x the unconstrained continuous run's p99.
    """

    model: str
    config: dict                         # gpt2 builder kwargs of this run
    buckets: tuple[int, ...]
    qps: float
    num_requests: int
    kv_bytes_per_token: int
    generous_kv_bytes: int               # per-lane KV budget that never binds
    tight_kv_bytes: int                  # budget the admission claim runs at
    slo_p99_ms: float
    continuous: ServeStats
    request_level: ServeStats
    reserve: ServeStats
    unbounded: ServeStats

    @property
    def throughput_gain(self) -> float:
        """Continuous-batching token throughput over request-level, same
        trace and load (claim 1's headline number)."""
        return (self.continuous.tokens_per_second
                / self.request_level.tokens_per_second)


def decode_cost_model(registry: ModelRegistry, model: str, seq_length: int,
                      graph=None):
    """A :class:`~repro.gpusim.DecodeCostModel` over ``model``'s compiled
    bucket latencies: prefill amortizes the bucket latency over prompt
    length, decode steps pay the launch + weight-streaming floor plus the
    width bucket's per-token share (see :mod:`repro.gpusim.decode`).
    Weights are measured from ``graph`` (the model's batch-1 graph; rebuilt
    from the zoo when omitted)."""
    registered = registry[model]
    if graph is None:
        graph = for_batch(model, 1)
    weights = footprint_from_graphs(model, {1: graph}).weights_bytes
    return DecodeCostModel(
        device=registry.device, seq_length=seq_length,
        bucket_latency={b: registered.latency(b)
                        for b in registered.bucket_sizes},
        weights_bytes=weights)


def run_decode_serving(num_requests: int = 400, buckets=(1, 2, 4, 8),
                       seed: int = 0, load_factor: float = 4.0,
                       mean_output_tokens: float = 12.0,
                       max_output_tokens: int = 48,
                       prompt_tokens: tuple[int, int] = (4, 16),
                       smoke: bool = False, telemetry=None) -> DecodeReport:
    """Replay one seeded mixed-length decode trace four ways over GPT-2.

    Offered load is derived from the compiled cost model — ``load_factor``
    times the single-stream decode rate — so the comparison always runs in
    the saturated regime continuous batching exists for, regardless of the
    model shapes.  KV is priced at the *real* GPT-2 architecture
    (:func:`repro.models.gpt2_kv_bytes_per_token`) even for smoke shapes:
    the latency model shrinks for speed, but the capacity economics under
    test stay the full model's.  ``telemetry`` records the headline
    continuous run only (the other three replay the same request ids).
    """
    config = DECODE_SMOKE_CONFIG if smoke else DECODE_FULL_CONFIG
    buckets = tuple(sorted(set(buckets)))
    seq_length = config.get('seq_length', 128)
    built: dict = {}
    registry = build_registry({'gpt2': config}, buckets, built)
    cost = decode_cost_model(registry, 'gpt2', seq_length,
                             graph=built.get(('gpt2', 1)))

    bpt = gpt2_kv_bytes_per_token()
    qps = (load_factor / cost.decode_step_seconds(1)) / mean_output_tokens
    trace = decode_trace(qps=qps, num_requests=num_requests, model='gpt2',
                         seed=seed, prompt_tokens=prompt_tokens,
                         mean_output_tokens=mean_output_tokens,
                         max_output_tokens=max_output_tokens)
    max_width = max(buckets)
    worst_case = (prompt_tokens[1] + max_output_tokens) * bpt
    generous = max_width * worst_case    # full batch of worst cases fits
    tight = generous // 4

    def run(continuous: bool, admission: str, capacity: int,
            tel=None) -> ServeStats:
        policy = DecodePolicy(max_width=max_width, admission=admission,
                              max_tokens=max_output_tokens)
        sim = DecodeSimulator(cost, policy, kv_bytes_per_token=bpt,
                              kv_capacity_bytes=capacity,
                              continuous=continuous)
        return sim.run(trace, telemetry=tel).stats(telemetry=tel)

    continuous = run(True, 'reserve', generous, tel=telemetry)
    request_level = run(False, 'reserve', generous)
    reserve = run(True, 'reserve', tight)
    unbounded = run(True, 'unbounded', tight)

    return DecodeReport(
        model='gpt2', config=dict(config), buckets=buckets, qps=qps,
        num_requests=num_requests, kv_bytes_per_token=bpt,
        generous_kv_bytes=generous, tight_kv_bytes=tight,
        slo_p99_ms=2.0 * continuous.latency_p99_ms,
        continuous=continuous, request_level=request_level,
        reserve=reserve, unbounded=unbounded)


def format_decode_report(report: DecodeReport) -> str:
    lines = [
        'Decode serving: continuous vs request-level batching, KV admission',
        f'  gpt2 buckets {list(report.buckets)}, offered {report.qps:.0f} '
        f'decode requests/s ({report.num_requests} requests, Poisson, '
        f'geometric output lengths)',
        f'  kv: {report.kv_bytes_per_token} bytes/token; generous budget '
        f'{format_bytes(report.generous_kv_bytes)}, tight '
        f'{format_bytes(report.tight_kv_bytes)}; decode SLO p99 '
        f'{report.slo_p99_ms:.1f} ms',
        '',
        format_serving_report(report.continuous, 'continuous batching'),
        '',
        format_serving_report(report.request_level,
                              'request-level batching (same trace)'),
        '',
        format_serving_report(report.reserve,
                              'tight KV, reservation admission'),
        '',
        format_serving_report(report.unbounded,
                              'tight KV, unbounded admission'),
        '',
        f'continuous-over-request-level token throughput: '
        f'{report.throughput_gain:.2f}x at p99 '
        f'{report.continuous.latency_p99_ms:.1f} vs '
        f'{report.request_level.latency_p99_ms:.1f} ms',
        f'admission at tight KV: reserve p99 '
        f'{report.reserve.latency_p99_ms:.1f} ms (0 overflow steps by '
        f'construction), unbounded p99 {report.unbounded.latency_p99_ms:.1f} '
        f'ms over {report.unbounded.kv_overflow_steps} swap-penalized steps',
    ]
    return '\n'.join(lines)


@dataclass
class QpsPoint:
    """One offered-load point of the QPS -> tail-latency curve."""

    qps: float
    stats: ServeStats

    @property
    def p99_ms(self) -> float:
        return self.stats.latency_p99_ms


def run_qps_sweep(registry: ModelRegistry, qps_values, num_requests: int = 2000,
                  max_wait: float = 2e-3, seed: int = 0) -> list[QpsPoint]:
    """Sweep offered load over a pre-built registry (compile paid once)."""
    names = sorted(registry.models)
    max_batch = min(m.max_batch for m in registry.models.values())
    sim = ServerSimulator(registry, BatchingPolicy(max_batch=max_batch,
                                                   max_wait=max_wait))
    points = []
    for qps in qps_values:
        trace = poisson_trace(qps=qps, num_requests=num_requests,
                              models=names, seed=seed)
        points.append(QpsPoint(qps=qps, stats=sim.run(trace).stats(registry)))
    return points


def format_qps_sweep(points: list[QpsPoint]) -> str:
    lines = ['QPS -> latency curve (dynamic batching, co-hosted models)',
             f'{"offered qps":>12s} {"served qps":>12s} {"p50 ms":>9s} '
             f'{"p95 ms":>9s} {"p99 ms":>9s} {"occupancy":>10s}']
    for p in points:
        lines.append(f'{p.qps:12.0f} {p.stats.throughput_rps:12.1f} '
                     f'{p.stats.latency_p50_ms:9.3f} {p.stats.latency_p95_ms:9.3f} '
                     f'{p.stats.latency_p99_ms:9.3f} '
                     f'{p.stats.mean_occupancy * 100:9.0f}%')
    return '\n'.join(lines)


def format_serving(report: ServingReport) -> str:
    ladders = ', '.join(f'{name} buckets {list(ladder)}'
                        for name, ladder in sorted(report.models.items()))
    lines = [
        'Serving simulation: co-hosted models, dynamic batching vs batch=1',
        f'  {ladders}',
        f'  offered load {report.qps:.0f} qps '
        f'({report.num_requests} requests, Poisson)',
        '',
        format_serving_report(report.dynamic, 'dynamic batching'),
        '',
        format_serving_report(report.batch1, 'batch=1 serving (same trace)'),
        '',
        format_serving_report(report.bursty, 'dynamic batching, bursty trace'),
        '',
        f'throughput gain of dynamic batching at equal offered load: '
        f'{report.throughput_gain:.2f}x',
        f'registry cold start: {report.cold_compile_seconds:.0f} simulated '
        f'tuning seconds; warm restart (persisted cache): '
        f'{report.warm_ladder_seconds:.0f} s; adding one more bucket warm: '
        f'{report.warm_second_bucket_seconds:.0f} s',
    ]
    return '\n'.join(lines)
