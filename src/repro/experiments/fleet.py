"""Fleet experiments: placement, cross-device warm-up, SLO-driven sizing.

The PR 3 layer above :mod:`repro.experiments.serving`: the same co-hosted
ResNet-50 + Bert workload, scaled from one simulated GPU to an N-replica
fleet.  Three claims are measured:

* **model-affine placement beats round-robin** on schedule-cache hit rate
  and p99 latency.  Each replica's cache is LRU-bounded to one model's
  working set, so co-hosting both models (round-robin hosts everything
  everywhere) evicts whichever model registered first; when the fleet later
  grows every ladder by one bucket, affine replicas ride the cross-size
  transfer tier while round-robin replicas re-tune from scratch.  Affine
  also concentrates each model's request stream on its home replicas, so
  batches fill faster and the tail shortens;
* **a heterogeneous replica warms from a foreign-device cache**: a
  laptop-class part joining an RTX3090 fleet adopts the foreign schedules
  through the device-family transfer tier (validated against the local
  device, re-measured at one compile + one measurement per GEMM family)
  and tunes for measurably fewer simulated seconds than a cold replica;
* **SLO-driven sizing**: given a p99 target and a trace, walk replica
  counts and batching knobs to the cheapest config that meets it, with
  admission control bounding queue growth past saturation.
"""
from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..gpusim.device import DeviceSpec, LAPTOP_GPU, RTX3090
from ..serve import (BATCH_OVERHEAD_SECONDS, BatchingSpec, CacheSpec,
                     Deployment, DeploymentSpec, FailureSpec, Fleet,
                     MemoryOverflowError, ModelRegistry, ModelSpec,
                     PlacementSpec, ReplicaGroupSpec, ServeStats,
                     footprint_from_graphs, format_bytes, poisson_trace,
                     register_device)
from .serving import FULL_MODELS, _zoo_builder

__all__ = ['FLEET_SMOKE_MODELS', 'PlacementReport', 'run_placement_comparison',
           'format_placement', 'DeviceTransferReport', 'run_device_transfer',
           'format_device_transfer', 'FleetSizingPoint', 'FleetSizingReport',
           'run_fleet_sizing', 'format_fleet_sizing',
           'PACKING_SMOKE_MODELS', 'PACKING_FULL_MODELS',
           'MemoryPackingReport', 'run_memory_packing',
           'format_memory_packing']

#: even smaller than serving's SMOKE_MODELS: a fleet compiles a model once
#: per hosting replica, so the smoke budget divides by the replica count.
#: A transformer pair (few GEMM families each, near-equal service times)
#: keeps the whole --smoke --fleet benchmark under its ten-second budget;
#: distinct hidden sizes keep the two models' GEMM families distinct, as
#: they are for the full-mode ResNet-50 + Bert pair
FLEET_SMOKE_MODELS = {
    'bert': {'layers': 1, 'seq_length': 16, 'vocab_size': 500,
             'hidden': 32, 'heads': 2},
    'gpt2': {'layers': 1, 'seq_length': 16, 'vocab_size': 500,
             'hidden': 48, 'heads': 4},
}


def _device_name(device: DeviceSpec) -> str:
    """A spec-addressable name for ``device``, registering it if needed.

    Experiments accept arbitrary :class:`DeviceSpec` objects (a caller can
    sweep hardware parameters with ``dataclasses.replace``), but specs
    address devices by name.  A tweaked device that reuses a stock name
    gets a derived unique one instead of colliding with the registered
    original.
    """
    from ..serve import available_devices, resolve_device
    suffix = 0
    while True:
        name = device.name if suffix == 0 else f'{device.name}@{suffix}'
        if name not in available_devices():
            register_device(device, name=name)
            return name
        if resolve_device(name) == device:
            return name
        suffix += 1


def _model_specs(model_cfgs: dict, buckets) -> tuple[ModelSpec, ...]:
    """One :class:`ModelSpec` per configured zoo model, shared ladder."""
    return tuple(ModelSpec(name=name, max_batch=max(buckets),
                           buckets=tuple(buckets), config=kwargs)
                 for name, kwargs in model_cfgs.items())


def _builders(model_cfgs: dict, built: dict) -> dict:
    """Memoized zoo builders for :class:`Deployment` — graph construction
    is pure host work, so a sweep's deployments share the built graphs."""
    return {name: _zoo_builder(name, kwargs, built)
            for name, kwargs in model_cfgs.items()}


def _probe_models(model_cfgs: dict, buckets, built: dict,
                  device: DeviceSpec) -> tuple[int, dict[str, float]]:
    """One single-model registry per model: (cache bound, capacities).

    The cache bound is the entry count of the *largest* single model — the
    placement experiment caps each replica's cache there, so a replica
    hosting one model keeps its whole working set resident while a replica
    co-hosting two cannot (the capacity pressure that makes cache affinity
    visible).  The capacities are requests/second one replica sustains for
    each model alone at the largest bucket — they size the trace's
    per-model weights and the offered load.
    """
    bound = 1
    capacities: dict[str, float] = {}
    top = max(buckets)
    for name, kwargs in model_cfgs.items():
        registry = ModelRegistry(device=device)
        registry.register(name, builder=_zoo_builder(name, kwargs, built),
                          buckets=buckets)
        bound = max(bound, len(registry.cache))
        capacities[name] = top / (registry[name].latency(top)
                                  + BATCH_OVERHEAD_SECONDS)
    return bound, capacities


# ---------------------------------------------------------------------------
# placement comparison


@dataclass
class PlacementReport:
    """Round-robin vs model-affine on one fleet and trace."""

    num_replicas: int
    qps: float
    num_requests: int
    cache_bound: int                        # per-replica cache entry cap
    grown_bucket: int                       # the ladder-growth wave's bucket
    round_robin: ServeStats
    model_affine: ServeStats
    #: simulated tuning seconds each policy paid to grow every ladder
    round_robin_growth_seconds: float = 0.0
    model_affine_growth_seconds: float = 0.0

    @property
    def p99_gain(self) -> float:
        """Round-robin p99 over model-affine p99 (>1 means affine wins)."""
        return (self.round_robin.latency_p99_ms
                / self.model_affine.latency_p99_ms)


def _grow_ladders(fleet: Fleet, bucket: int) -> float:
    """Add ``bucket`` to every hosted ladder; returns tuning seconds paid."""
    before = fleet.total_compile_seconds
    for replica in fleet.replicas:
        for name in sorted(replica.registry.models):
            replica.registry.add_bucket(name, bucket)
    return fleet.total_compile_seconds - before


def run_placement_comparison(num_replicas: int = 4,
                             num_requests: int = 2000,
                             buckets=(1, 2, 4),
                             grown_bucket: int = 8,
                             max_wait: float = 2e-3,
                             offered_load_factor: float = 0.85,
                             seed: int = 0,
                             smoke: bool = False) -> PlacementReport:
    """Co-hosted ResNet-50 + Bert on an N-replica fleet, two policies.

    Each replica's schedule cache is bounded to one model's working set
    (measured, not guessed), both fleets serve the same Poisson trace, and
    then every ladder grows by ``grown_bucket``.  The trace weights each
    model by its fully-batched per-replica capacity, so every model's
    offered share saturates the same number of replicas — under model-affine
    placement each home group then runs at the same utilization, making the
    policy comparison about batching and cache quality rather than about one
    model's raw heaviness.  Offered load is ``offered_load_factor`` × the
    fleet's aggregate fully-batched capacity; the default sits just below
    saturation, the regime where batching quality shows up in the tail.

    The two fleets are one :class:`DeploymentSpec` apart: the comparison is
    ``replace(base, placement=...)`` — the A/B pattern the declarative API
    exists for.
    """
    model_cfgs = FLEET_SMOKE_MODELS if smoke else FULL_MODELS
    built: dict = {}
    bound, capacities = _probe_models(model_cfgs, buckets, built, RTX3090)

    # capacity-proportional mix: fleet capacity is num_replicas/num_models
    # replicas per model times that model's solo capacity, and each model's
    # offered share loads its (affine) home group equally
    per_model_replicas = num_replicas / len(capacities)
    fleet_capacity = per_model_replicas * sum(capacities.values())
    qps = offered_load_factor * fleet_capacity
    trace = poisson_trace(qps=qps, num_requests=num_requests,
                          models=capacities, seed=seed)
    base = DeploymentSpec(
        models=_model_specs(model_cfgs, buckets),
        replicas=(ReplicaGroupSpec(device=RTX3090.name, count=num_replicas),),
        batching=BatchingSpec(max_batch=max(buckets), max_wait=max_wait),
        cache=CacheSpec(max_entries=bound))
    builders = _builders(model_cfgs, built)

    stats: dict[str, ServeStats] = {}
    growth: dict[str, float] = {}
    for policy_name in ('round_robin', 'model_affine'):
        deployment = Deployment(
            replace(base, placement=PlacementSpec(policy=policy_name)),
            builders=builders)
        result = deployment.run(trace)
        growth[policy_name] = _grow_ladders(deployment.fleet, grown_bucket)
        # stats *after* the growth wave so cache traffic includes it
        stats[policy_name] = result.stats()

    return PlacementReport(
        num_replicas=num_replicas,
        qps=qps,
        num_requests=num_requests,
        cache_bound=bound,
        grown_bucket=grown_bucket,
        round_robin=stats['round_robin'],
        model_affine=stats['model_affine'],
        round_robin_growth_seconds=growth['round_robin'],
        model_affine_growth_seconds=growth['model_affine'],
    )


def format_placement(report: PlacementReport) -> str:
    rr, ma = report.round_robin, report.model_affine
    lines = [
        f'Placement comparison: {report.num_replicas} replicas, co-hosted '
        f'models, per-replica cache capped at {report.cache_bound} entries',
        f'  offered load {report.qps:.0f} qps, {report.num_requests} requests, '
        f'then every ladder grows to bucket {report.grown_bucket}',
        f'  {"policy":>14s} {"p99 ms":>9s} {"occupancy":>10s} '
        f'{"hit rate":>9s} {"growth tuning s":>16s}',
        f'  {"round-robin":>14s} {rr.latency_p99_ms:9.3f} '
        f'{rr.mean_occupancy * 100:9.0f}% {rr.cache_hit_rate * 100:8.0f}% '
        f'{report.round_robin_growth_seconds:16.1f}',
        f'  {"model-affine":>14s} {ma.latency_p99_ms:9.3f} '
        f'{ma.mean_occupancy * 100:9.0f}% {ma.cache_hit_rate * 100:8.0f}% '
        f'{report.model_affine_growth_seconds:16.1f}',
        f'  model-affine p99 gain: {report.p99_gain:.2f}x',
    ]
    return '\n'.join(lines)


# ---------------------------------------------------------------------------
# cross-device warm-up


@dataclass
class DeviceTransferReport:
    """A laptop-class replica warming from an RTX3090 fleet's cache."""

    donor_device: str
    target_device: str
    cold_seconds: float                  # tuning bill of a cold target replica
    warm_seconds: float                  # same ladder via device-family transfer
    device_transfer_hits: int
    #: modeled serve latency of bucket 1: adopted schedule vs local optimum
    warm_latency_ms: float
    cold_latency_ms: float

    @property
    def speedup(self) -> float:
        """Cold tuning seconds over warm (how much the transfer tier saves)."""
        return self.cold_seconds / self.warm_seconds if self.warm_seconds else float('inf')

    @property
    def latency_penalty(self) -> float:
        """Adopted-schedule latency over locally-optimal latency (>= 1)."""
        return self.warm_latency_ms / self.cold_latency_ms


def run_device_transfer(model: str = 'resnet50', buckets=(1, 2, 4),
                        donor: DeviceSpec = RTX3090,
                        target: DeviceSpec = LAPTOP_GPU,
                        smoke: bool = False) -> DeviceTransferReport:
    """Tune on ``donor``, persist the cache, warm a ``target`` replica.

    The target replica re-validates every adopted schedule against its own
    :class:`DeviceSpec` and re-measures it locally (one compile + one
    measurement per GEMM family), so its tuning bill is a fraction of a
    cold tune; the price is a possibly slightly sub-optimal schedule, which
    the report surfaces as ``latency_penalty``.

    All three single-replica stacks (donor, cold target, warm target) are
    spec mutations of one base :class:`DeploymentSpec` — the donor persists
    its cache through ``CacheSpec.save_to``, the warm target adopts it
    through ``warm_from`` + ``enable_device_transfer``.
    """
    model_cfgs = FLEET_SMOKE_MODELS if smoke else FULL_MODELS
    kwargs = model_cfgs.get(model, {})
    built: dict = {}
    builders = {model: _zoo_builder(model, kwargs, built)}
    donor_name = _device_name(donor)
    target_name = _device_name(target)

    with tempfile.TemporaryDirectory(prefix='repro_fleet_') as tmp:
        path = os.path.join(tmp, 'donor_schedules.json')
        base = DeploymentSpec(
            models=(ModelSpec(name=model, max_batch=max(buckets),
                              buckets=tuple(buckets), config=kwargs),),
            replicas=(ReplicaGroupSpec(device=donor_name),),
            batching=BatchingSpec(max_batch=max(buckets)))
        Deployment(replace(base, cache=CacheSpec(save_to=path)),
                   builders=builders).build()

        on_target = replace(
            base, replicas=(ReplicaGroupSpec(device=target_name),))
        cold = Deployment(on_target, builders=builders).build()
        warm = Deployment(
            replace(on_target, cache=CacheSpec(warm_from=path,
                                               enable_device_transfer=True)),
            builders=builders).build()

    cold_registry = cold.fleet.replicas[0].registry
    warm_registry = warm.fleet.replicas[0].registry
    traffic = warm_registry[model].cache_traffic()
    first = min(buckets)
    return DeviceTransferReport(
        donor_device=donor_name,
        target_device=target_name,
        cold_seconds=cold_registry.total_compile_seconds,
        warm_seconds=warm_registry.total_compile_seconds,
        device_transfer_hits=traffic['device_transfer_hits'],
        warm_latency_ms=warm_registry[model].latency(first) * 1e3,
        cold_latency_ms=cold_registry[model].latency(first) * 1e3,
    )


def format_device_transfer(report: DeviceTransferReport) -> str:
    lines = [
        f'Cross-device warm-up: {report.target_device} replica joining a '
        f'{report.donor_device} fleet',
        f'  cold tune on {report.target_device}: '
        f'{report.cold_seconds:.1f} simulated tuning seconds',
        f'  warm from {report.donor_device} cache: '
        f'{report.warm_seconds:.1f} s '
        f'({report.device_transfer_hits} device-transfer hits, '
        f'{report.speedup:.1f}x faster)',
        f'  adopted-schedule latency penalty: '
        f'{(report.latency_penalty - 1) * 100:.1f}% vs local optimum '
        f'({report.warm_latency_ms:.3f} vs {report.cold_latency_ms:.3f} ms)',
    ]
    return '\n'.join(lines)


# ---------------------------------------------------------------------------
# SLO-driven fleet sizing


@dataclass
class FleetSizingPoint:
    """One candidate config of the sizing sweep.

    ``infeasible`` marks a config the memory model rejected before any
    request was served (the model set does not fit the candidate fleet's
    DRAM); such points carry no :class:`ServeStats`.
    """

    num_replicas: int
    max_wait: float
    stats: Optional[ServeStats]
    meets_slo: bool
    infeasible: bool = False

    @property
    def p99_ms(self) -> float:
        return (self.stats.latency_p99_ms if self.stats is not None
                else float('inf'))


@dataclass
class FleetSizingReport:
    """The sweep's full grid plus the cheapest config meeting the SLO."""

    slo_p99_ms: float
    max_rejection_rate: float
    qps: float
    num_requests: int
    points: list[FleetSizingPoint] = field(default_factory=list)
    chosen: Optional[FleetSizingPoint] = None


def run_fleet_sizing(slo_p99_ms: float, qps: float,
                     num_requests: int = 2000,
                     max_replicas: int = 6,
                     max_wait_knobs: Sequence[float] = (2e-3, 5e-4),
                     max_queue: int = 64,
                     max_rejection_rate: float = 0.01,
                     buckets=(1, 2, 4, 8),
                     seed: int = 0,
                     placement: str = 'least_loaded',
                     replica_memory_bytes: Optional[int] = None,
                     smoke: bool = False) -> FleetSizingReport:
    """Walk replica counts and batching knobs to the cheapest SLO-meeting config.

    Drives the QPS→p99 curve backwards: given a p99 target and an offered
    load, replica counts are tried smallest-first (replicas are the cost)
    and, per count, every ``max_wait`` knob; the first config whose p99 meets
    the SLO with a rejection rate at most ``max_rejection_rate`` wins.
    Admission control (``max_queue`` samples per model queue) bounds backlog
    growth past saturation, so undersized fleets report high *rejection*
    instead of a meaningless divergent p99.

    Tuning is paid once: the model set compiles into a temporary cache file
    first (a donor deployment with ``CacheSpec.save_to``), and every
    candidate fleet warms from it (exact hits, zero simulated tuning
    seconds) — sweeping fleet sizes costs no re-tuning, which is itself the
    schedule-reuse story at fleet scale.  The sweep itself is declarative:
    every candidate is ``replace(base, replicas=..., batching=...)``.

    ``placement`` names the routing policy candidates run under, and
    ``replica_memory_bytes`` caps every candidate replica's DRAM (the donor
    keeps the device's stock capacity — tuning is a compute question, not a
    residency one).  A candidate whose model set does not fit its fleet's
    DRAM is recorded as an *infeasible* point rather than aborting the
    sweep: undersized fleets can now fail on memory before they fail on
    latency, and the report shows which wall they hit.
    """
    model_cfgs = FLEET_SMOKE_MODELS if smoke else FULL_MODELS
    built: dict = {}
    builders = _builders(model_cfgs, built)
    names = sorted(model_cfgs)
    trace = poisson_trace(qps=qps, num_requests=num_requests, models=names,
                          seed=seed)

    report = FleetSizingReport(slo_p99_ms=slo_p99_ms,
                               max_rejection_rate=max_rejection_rate,
                               qps=qps, num_requests=num_requests)
    with tempfile.TemporaryDirectory(prefix='repro_sizing_') as tmp:
        path = os.path.join(tmp, 'schedules.json')
        base = DeploymentSpec(
            models=_model_specs(model_cfgs, buckets),
            replicas=(ReplicaGroupSpec(device=RTX3090.name),),
            batching=BatchingSpec(max_batch=max(buckets)),
            placement=PlacementSpec(policy=placement))
        Deployment(replace(base, cache=CacheSpec(save_to=path)),
                   builders=builders).build()

        for n in range(1, max_replicas + 1):
            for max_wait in max_wait_knobs:
                spec = replace(
                    base,
                    replicas=(ReplicaGroupSpec(
                        device=RTX3090.name, count=n,
                        memory_bytes=replica_memory_bytes),),
                    batching=BatchingSpec(max_batch=max(buckets),
                                          max_wait=max_wait,
                                          max_queue=max_queue),
                    cache=CacheSpec(warm_from=path))
                try:
                    stats = Deployment(spec, builders=builders).run(
                        trace).stats(cold_start_seconds=0.0)
                except MemoryOverflowError:
                    report.points.append(FleetSizingPoint(
                        num_replicas=n, max_wait=max_wait, stats=None,
                        meets_slo=False, infeasible=True))
                    continue
                meets = (stats.latency_p99_ms <= slo_p99_ms
                         and stats.rejection_rate <= max_rejection_rate)
                point = FleetSizingPoint(num_replicas=n, max_wait=max_wait,
                                         stats=stats, meets_slo=meets)
                report.points.append(point)
                if meets and report.chosen is None:
                    report.chosen = point
            if report.chosen is not None:
                break
    return report


def format_fleet_sizing(report: FleetSizingReport) -> str:
    lines = [
        f'Fleet sizing: p99 SLO {report.slo_p99_ms:.2f} ms at '
        f'{report.qps:.0f} qps ({report.num_requests} requests, '
        f'rejections <= {report.max_rejection_rate * 100:.0f}%)',
        f'  {"replicas":>9s} {"max_wait ms":>12s} {"p99 ms":>9s} '
        f'{"rejected":>9s} {"occupancy":>10s}  verdict']
    for p in report.points:
        if p.infeasible:
            lines.append(
                f'  {p.num_replicas:9d} {p.max_wait * 1e3:12.2f} '
                f'{"-":>9s} {"-":>9s} {"-":>10s}  over DRAM')
            continue
        verdict = 'MEETS SLO' if p.meets_slo else 'misses'
        lines.append(
            f'  {p.num_replicas:9d} {p.max_wait * 1e3:12.2f} '
            f'{p.p99_ms:9.3f} {p.stats.rejection_rate * 100:8.1f}% '
            f'{p.stats.mean_occupancy * 100:9.0f}%  {verdict}')
    if report.chosen is not None:
        lines.append(
            f'  cheapest config: {report.chosen.num_replicas} replicas, '
            f'max_wait {report.chosen.max_wait * 1e3:.2f} ms '
            f'(p99 {report.chosen.p99_ms:.3f} ms)')
    else:
        lines.append('  no config within the sweep met the SLO')
    return '\n'.join(lines)


# ---------------------------------------------------------------------------
# memory-aware packing


#: four DRAM-distinct aliases of the tiny transformer pair — hidden size
#: drives the parameter count quadratically, so the footprints spread
#: enough that bin packing has real decisions to make
PACKING_SMOKE_MODELS = {
    'bert_s': ('bert', {'layers': 1, 'seq_length': 16, 'vocab_size': 500,
                        'hidden': 32, 'heads': 2}),
    'gpt2_s': ('gpt2', {'layers': 1, 'seq_length': 16, 'vocab_size': 500,
                        'hidden': 48, 'heads': 4}),
    'bert_l': ('bert', {'layers': 1, 'seq_length': 16, 'vocab_size': 500,
                        'hidden': 64, 'heads': 4}),
    'gpt2_l': ('gpt2', {'layers': 1, 'seq_length': 16, 'vocab_size': 500,
                        'hidden': 96, 'heads': 4}),
}

#: the same shape family at paper-adjacent scale for full benchmark runs
PACKING_FULL_MODELS = {
    'bert_s': ('bert', {'layers': 2, 'seq_length': 32, 'vocab_size': 2000,
                        'hidden': 64, 'heads': 4}),
    'gpt2_s': ('gpt2', {'layers': 2, 'seq_length': 32, 'vocab_size': 2000,
                        'hidden': 96, 'heads': 4}),
    'bert_l': ('bert', {'layers': 2, 'seq_length': 32, 'vocab_size': 2000,
                        'hidden': 128, 'heads': 8}),
    'gpt2_l': ('gpt2', {'layers': 2, 'seq_length': 32, 'vocab_size': 2000,
                        'hidden': 192, 'heads': 8}),
}


@dataclass
class MemoryPackingReport:
    """Memory-aware packing vs memory-blind spreading, plus a failover run.

    Three runs of the same trace against the same four models and the same
    DRAM-capped replica pool: the ``memory_aware`` packer, the
    ``least_loaded`` spreader, and the packed deployment again with a
    seeded replica kill mid-trace.
    """

    slo_p99_ms: float
    qps: float
    num_requests: int
    replica_memory_bytes: int             # per-replica DRAM cap
    footprints: dict[str, int]            # model -> declared reservation
    packed: ServeStats
    spread: ServeStats
    packed_replicas_used: int             # replicas hosting >= 1 model
    spread_replicas_used: int
    failover: ServeStats
    num_rehomed: int                      # rehome events in the failover run
    num_evicted: int                      # evictions the rehomes forced
    #: every failover survivor stayed within its DRAM capacity
    failover_capacity_ok: bool
    #: trace length == completions + rejections + losses on the failover run
    failover_conserved: bool

    @property
    def replica_savings(self) -> int:
        return self.spread_replicas_used - self.packed_replicas_used


def _replicas_used(fleet: Fleet) -> int:
    """Replicas the placement actually put at least one model on."""
    return len({r for hosts in fleet.hosting.values() for r in hosts})


def run_memory_packing(num_replicas: int = 4,
                       num_requests: int = 1200,
                       buckets=(1, 2, 4),
                       max_wait: float = 2e-3,
                       load_factor: float = 0.3,
                       slo_factor: float = 6.0,
                       seed: int = 0,
                       smoke: bool = False) -> MemoryPackingReport:
    """Same SLO, fewer replicas: DRAM-aware placement as a packing problem.

    Four transformer variants with measured, well-separated DRAM footprints
    are deployed onto a pool of ``num_replicas`` identical replicas whose
    capacity is deliberately tight: the sum of the two *largest* footprints
    (``ReplicaGroupSpec.memory_bytes`` — the registered device is
    untouched).  First-fit-decreasing then provably needs two replicas for
    the four models, so the ``memory_aware`` policy serves the whole trace
    from two machines while capacity-checked ``least_loaded`` spreads
    copies across the entire pool.  Both runs must hold the same p99 SLO —
    computed up front from the models' own batch latencies, not fitted to
    either run.

    The third run replays the packed deployment with one seeded replica
    kill over the trace's first half (drawn over the two *loaded* replicas,
    so the kill always orphans models).  The orphans re-home onto the spare
    replicas through the capacity-checked ``rehome`` path — the claim under
    test is that failover never overflows a survivor's DRAM, with eviction
    of redundant idle models as the pressure valve when the spares are
    tighter than here.

    Tuning is paid once: a single-replica donor with stock DRAM compiles
    all four models into a cache file and every comparison fleet warms from
    it, so the A/B/failover trio measures placement, not compilation.
    """
    model_cfgs = PACKING_SMOKE_MODELS if smoke else PACKING_FULL_MODELS
    top = max(buckets)
    builders = {alias: _zoo_builder(zoo, kwargs, {})
                for alias, (zoo, kwargs) in model_cfgs.items()}

    # measured footprints (weights + workspace + per-bucket activations),
    # declared back onto the specs so placement and validation see them
    # without re-measuring
    footprints = {
        alias: footprint_from_graphs(
            alias, {b: builder(b) for b in buckets}).total_bytes
        for alias, builder in builders.items()}
    two_largest = sorted(footprints.values(), reverse=True)[:2]
    capacity = sum(two_largest)

    specs = tuple(ModelSpec(name=alias, max_batch=top, buckets=tuple(buckets),
                            memory_bytes=footprints[alias])
                  for alias in model_cfgs)

    with tempfile.TemporaryDirectory(prefix='repro_packing_') as tmp:
        path = os.path.join(tmp, 'schedules.json')
        donor_spec = DeploymentSpec(
            models=specs,
            replicas=(ReplicaGroupSpec(device=RTX3090.name),),
            batching=BatchingSpec(max_batch=top, max_wait=max_wait),
            cache=CacheSpec(save_to=path))
        donor = Deployment(donor_spec, builders=builders).build()
        registry = donor.fleet.replicas[0].registry
        capacities = {alias: top / (registry[alias].latency(top)
                                    + BATCH_OVERHEAD_SECONDS)
                      for alias in model_cfgs}
        slo_p99_ms = slo_factor * 1e3 * max(
            registry[alias].latency(top) + BATCH_OVERHEAD_SECONDS + max_wait
            for alias in model_cfgs)

        qps = load_factor * sum(capacities.values())
        trace = poisson_trace(qps=qps, num_requests=num_requests,
                              models=capacities, seed=seed)

        base = DeploymentSpec(
            models=specs,
            replicas=(ReplicaGroupSpec(device=RTX3090.name,
                                       count=num_replicas,
                                       memory_bytes=capacity),),
            batching=BatchingSpec(max_batch=top, max_wait=max_wait),
            placement=PlacementSpec(policy='memory_aware'),
            cache=CacheSpec(warm_from=path))

        packed_dep = Deployment(base, builders=builders)
        packed = packed_dep.run(trace)
        spread_dep = Deployment(
            replace(base, placement=PlacementSpec(policy='least_loaded')),
            builders=builders)
        spread = spread_dep.run(trace)

        # seeded kill over the two replicas FFD actually loaded: the outage
        # always orphans single-homed models, exercising the re-home path
        span = max(num_requests / qps * 0.5, 1e-3)
        failover_dep = Deployment(
            replace(base, failures=FailureSpec(num_failures=1, num_replicas=2,
                                               span=span, seed=seed)),
            builders=builders)
        failover = failover_dep.run(trace)

    survivors_ok = all(
        r.memory.peak_committed_bytes <= r.memory.capacity_bytes
        for r in failover.fleet.replicas if r.memory is not None)
    conserved = (len(trace) == len(failover.record.done)
                 + len(failover.rejected) + len(failover.lost))
    return MemoryPackingReport(
        slo_p99_ms=slo_p99_ms,
        qps=qps,
        num_requests=num_requests,
        replica_memory_bytes=capacity,
        footprints=footprints,
        packed=packed.stats(cold_start_seconds=0.0),
        spread=spread.stats(cold_start_seconds=0.0),
        packed_replicas_used=_replicas_used(packed.fleet),
        spread_replicas_used=_replicas_used(spread.fleet),
        failover=failover.stats(cold_start_seconds=0.0),
        num_rehomed=sum(1 for e in failover.events if e.kind == 'rehome'),
        num_evicted=sum(1 for e in failover.events if e.kind == 'evict'),
        failover_capacity_ok=survivors_ok,
        failover_conserved=conserved,
    )


def format_memory_packing(report: MemoryPackingReport) -> str:
    lines = [
        f'Memory-aware packing: 4 models, replicas capped at '
        f'{format_bytes(report.replica_memory_bytes)} DRAM, p99 SLO '
        f'{report.slo_p99_ms:.2f} ms at {report.qps:.0f} qps',
        '  footprints: ' + ', '.join(
            f'{name} {format_bytes(nbytes)}'
            for name, nbytes in sorted(report.footprints.items())),
        f'  {"policy":>14s} {"replicas used":>14s} {"p99 ms":>9s} '
        f'{"peak mem util":>14s}  verdict',
    ]
    for label, stats, used in (
            ('memory-aware', report.packed, report.packed_replicas_used),
            ('least-loaded', report.spread, report.spread_replicas_used)):
        verdict = ('MEETS SLO' if stats.latency_p99_ms <= report.slo_p99_ms
                   else 'misses')
        lines.append(
            f'  {label:>14s} {used:14d} {stats.latency_p99_ms:9.3f} '
            f'{stats.peak_memory_utilization * 100:13.0f}%  {verdict}')
    lines.append(
        f'  packing saves {report.replica_savings} replicas at the same SLO')
    lines.append(
        f'  failover: 1 seeded kill, {report.num_rehomed} re-homes, '
        f'{report.num_evicted} evictions; survivors within DRAM: '
        f'{"yes" if report.failover_capacity_ok else "NO"}; '
        f'requests conserved: '
        f'{"yes" if report.failover_conserved else "NO"} '
        f'({report.failover.num_lost_to_failure} lost to the outage)')
    return '\n'.join(lines)
