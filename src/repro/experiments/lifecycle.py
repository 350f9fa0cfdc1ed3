"""Fleet lifecycle experiments: diurnal autoscaling, warm vs cold scale-up.

The PR 4 layer above :mod:`repro.experiments.fleet`.  PRs 1–3 made warm-up
cheap (persisted caches, size- and device-family transfer); this module
measures the operational payoff — the fleet changing shape *mid-trace*:

* **autoscaling beats static sizing on replica-seconds**: against a diurnal
  trace (sinusoidal load swell, :func:`~repro.serve.trace.diurnal_trace`),
  a fleet that follows the known load shape with a
  :class:`~repro.serve.lifecycle.ScheduledDiurnalPolicy` — scaling to the
  static sizing optimum ahead of each crest and back to one replica after
  it — holds the same p99 SLO as the cheapest *static* fleet while paying
  for fewer replica-seconds, because trough capacity is given back.  Joins
  warm from the shared cache file, so the scale-ups tune for ~nothing;
* **warm scale-up beats cold scale-up on tuning-seconds-to-SLO**: a
  laptop-class replica joining an overloaded RTX3090 fleet through the
  device-family transfer tier pays several-fold fewer simulated tuning
  seconds than the same replica tuning from scratch, and both runs meet
  the post-join p99 SLO — tuning cost, not SLO attainment, is what the
  warm path trades (the Hidet tuning-cost story, §4.3, at fleet scale; the
  adopted schedules' bounded latency penalty is the same one
  ``run_device_transfer`` measures).
"""
from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Optional

from ..gpusim.device import LAPTOP_GPU, RTX3090, DeviceSpec
from ..obs import Telemetry, percentile
from ..serve import (AutoscaleSpec, BatchingSpec, CacheSpec, Deployment,
                     DeploymentSpec, PlacementSpec, ReplicaGroupSpec,
                     ServeStats, diurnal_trace, poisson_trace)
from .fleet import (FLEET_SMOKE_MODELS, _builders, _device_name,
                    _model_specs, _probe_models)
from .serving import FULL_MODELS

__all__ = ['AutoscaleStaticPoint', 'AutoscaleReport', 'run_autoscaling',
           'format_autoscaling', 'ScaleUpReport', 'run_scaleup_warmup',
           'format_scaleup']


# ---------------------------------------------------------------------------
# diurnal autoscaling vs static sizing


@dataclass
class AutoscaleStaticPoint:
    """One static fleet size tried against the diurnal trace."""

    num_replicas: int
    stats: ServeStats
    meets_slo: bool


@dataclass
class AutoscaleReport:
    """Static sizing optimum vs schedule-following autoscaler, one trace."""

    slo_p99_ms: float
    max_rejection_rate: float
    base_qps: float
    peak_qps: float
    period: float
    duration: float
    num_requests: int
    static_points: list[AutoscaleStaticPoint] = field(default_factory=list)
    static_replicas: int = 0                 # cheapest SLO-meeting static size
    static: Optional[ServeStats] = None
    autoscaled: Optional[ServeStats] = None
    trough_replicas: int = 1
    num_joins: int = 0
    num_retires: int = 0

    @property
    def replica_seconds_saving(self) -> float:
        """Static capacity bill over autoscaled (>1 means autoscaling wins)."""
        if self.autoscaled is None or self.autoscaled.replica_seconds == 0:
            return float('nan')
        return self.static.replica_seconds / self.autoscaled.replica_seconds


def run_autoscaling(slo_p99_ms: float, peak_replicas: int = 3,
                    num_periods: int = 2, period: float = 0.4,
                    offered_peak_factor: float = 0.8,
                    base_factor: float = 0.15,
                    max_wait: float = 1e-3, max_queue: int = 64,
                    max_rejection_rate: float = 0.01,
                    buckets=(1, 2), seed: int = 0,
                    smoke: bool = False,
                    telemetry: Optional[Telemetry] = None) -> AutoscaleReport:
    """Diurnal trace: cheapest static fleet vs a schedule-following autoscaler.

    The offered load swells sinusoidally from ``base_factor`` × one
    replica's capacity to ``offered_peak_factor`` × ``peak_replicas``
    replicas' capacity, ``num_periods`` times (capacities are probed per
    model, as in the placement experiment, and weight the trace).  Static
    fleets are walked smallest-first over the *whole* trace until one meets
    the p99 SLO with a rejection rate at most ``max_rejection_rate`` — the
    crest decides, so the static optimum carries crest capacity through
    every trough.  The autoscaled fleet then follows the known load shape:
    it starts at one replica, scales to the static optimum slightly ahead
    of each crest, and drains back down after it, warming every join from
    the shared cache file (zero tuning).  Both configurations face the
    identical trace; the report compares their replica-seconds bills.
    ``telemetry`` records the autoscaled run (joins, drains, every request
    and batch) for Chrome-trace export.
    """
    model_cfgs = FLEET_SMOKE_MODELS if smoke else FULL_MODELS
    built: dict = {}
    builders = _builders(model_cfgs, built)
    _, capacities = _probe_models(model_cfgs, buckets, built, RTX3090)
    # one replica's aggregate capacity under the capacity-weighted mix
    unit = sum(capacities.values()) / len(capacities)
    peak_qps = offered_peak_factor * peak_replicas * unit
    base_qps = base_factor * unit
    duration = num_periods * period
    trace = diurnal_trace(base_qps=base_qps, peak_qps=peak_qps,
                          period=period, duration=duration,
                          models=capacities, seed=seed)
    report = AutoscaleReport(slo_p99_ms=slo_p99_ms,
                             max_rejection_rate=max_rejection_rate,
                             base_qps=base_qps, peak_qps=peak_qps,
                             period=period, duration=duration,
                             num_requests=len(trace))

    with tempfile.TemporaryDirectory(prefix='repro_lifecycle_') as tmp:
        path = os.path.join(tmp, 'schedules.json')
        base = DeploymentSpec(
            models=_model_specs(model_cfgs, buckets),
            replicas=(ReplicaGroupSpec(device=RTX3090.name),),
            batching=BatchingSpec(max_batch=max(buckets), max_wait=max_wait,
                                  max_queue=max_queue),
            placement=PlacementSpec(policy='least_loaded'),
            cache=CacheSpec(warm_from=path))
        Deployment(replace(base, cache=CacheSpec(save_to=path)),
                   builders=builders).build()       # donor: tune once, share

        # -- static sizing walk: smallest fleet meeting the SLO on this trace
        for n in range(1, peak_replicas + 2):
            spec = replace(base, replicas=(
                ReplicaGroupSpec(device=RTX3090.name, count=n),))
            stats = Deployment(spec, builders=builders).run(trace).stats(
                cold_start_seconds=0.0)
            meets = (stats.latency_p99_ms <= slo_p99_ms
                     and stats.rejection_rate <= max_rejection_rate)
            report.static_points.append(AutoscaleStaticPoint(
                num_replicas=n, stats=stats, meets_slo=meets))
            if meets:
                report.static_replicas = n
                report.static = stats
                break
        if report.static is None:
            return report                # sweep failed; caller sees no static

    # -- autoscaled: follow the load shape, crest at the static optimum
        trough = report.trough_replicas
        crest = report.static_replicas
        schedule: list[list[float]] = [[0.0, trough]]
        for k in range(num_periods):
            schedule.append([k * period + 0.08 * period, crest])
            schedule.append([k * period + 0.85 * period, trough])
        elastic = replace(
            base,
            replicas=(ReplicaGroupSpec(device=RTX3090.name, count=trough),),
            autoscale=AutoscaleSpec(
                policy='scheduled_diurnal', options={'schedule': schedule},
                min_replicas=trough, max_replicas=crest,
                interval=period / 50, cooldown=0.0,
                scale_increment=max(1, crest - trough),
                device=RTX3090.name))
        result = Deployment(elastic, builders=builders).run(
            trace, telemetry=telemetry)
        report.autoscaled = result.stats(cold_start_seconds=0.0)
        report.num_joins = sum(1 for e in result.events if e.kind == 'join')
        report.num_retires = sum(1 for e in result.events
                                 if e.kind == 'retire_done')
    return report


def format_autoscaling(report: AutoscaleReport) -> str:
    lines = [
        f'Diurnal autoscaling: p99 SLO {report.slo_p99_ms:.2f} ms, load '
        f'{report.base_qps:.0f} -> {report.peak_qps:.0f} qps over '
        f'{report.duration / report.period:.0f} periods of '
        f'{report.period * 1e3:.0f} ms ({report.num_requests} requests)',
        f'  {"config":>22s} {"replicas":>9s} {"p99 ms":>9s} {"rejected":>9s} '
        f'{"replica-seconds":>16s}']
    for p in report.static_points:
        verdict = 'MEETS SLO' if p.meets_slo else 'misses'
        lines.append(
            f'  {"static":>22s} {p.num_replicas:9d} '
            f'{p.stats.latency_p99_ms:9.3f} '
            f'{p.stats.rejection_rate * 100:8.1f}% '
            f'{p.stats.replica_seconds:16.3f}  {verdict}')
    if report.autoscaled is not None:
        a = report.autoscaled
        lines.append(
            f'  {"autoscaled (diurnal)":>22s} '
            f'{report.trough_replicas}-{report.static_replicas:<7d} '
            f'{a.latency_p99_ms:9.3f} {a.rejection_rate * 100:8.1f}% '
            f'{a.replica_seconds:16.3f}  '
            f'({report.num_joins} joins, {report.num_retires} retires)')
        lines.append(
            f'  autoscaling saves {report.replica_seconds_saving:.2f}x '
            f'replica-seconds at the same SLO '
            f'(scale-up tuning: {a.scale_up_tuning_seconds:.1f} s, warm)')
    else:
        lines.append('  no static config met the SLO; nothing to autoscale '
                     'against')
    return '\n'.join(lines)


# ---------------------------------------------------------------------------
# warm vs cold scale-up


@dataclass
class ScaleUpReport:
    """The same mid-trace scale-up, warm from the fleet cache vs cold."""

    slo_p99_ms: float
    join_at: float                       # simulated seconds into the trace
    qps: float
    num_requests: int
    join_device: str
    #: simulated tuning seconds the joining replica paid (the
    #: tuning-seconds-to-SLO metric: both runs meet the SLO post-join)
    warm_join_tuning_seconds: float = 0.0
    cold_join_tuning_seconds: float = 0.0
    warm_post_p99_ms: float = 0.0        # p99 of requests arriving post-join
    cold_post_p99_ms: float = 0.0
    device_transfer_hits: int = 0        # on the warm run's joining replica
    warm: Optional[ServeStats] = None
    cold: Optional[ServeStats] = None

    @property
    def tuning_speedup(self) -> float:
        """Cold join tuning over warm (how much the cache transfer saves)."""
        if self.warm_join_tuning_seconds == 0:
            return float('inf')
        return self.cold_join_tuning_seconds / self.warm_join_tuning_seconds


def _post_join_p99_ms(result, join_at: float) -> float:
    arrival, completion, _ = result.record.completed()
    return percentile(((completion - arrival) * 1e3)[arrival >= join_at], 99)


def run_scaleup_warmup(slo_p99_ms: float, join_fraction: float = 0.25,
                       overload_factor: float = 1.25,
                       num_requests: int = 1500,
                       max_wait: float = 1e-3, max_queue: int = 64,
                       buckets=(1, 2),
                       join_device: DeviceSpec = LAPTOP_GPU,
                       seed: int = 0, smoke: bool = False) -> ScaleUpReport:
    """Scale up an overloaded one-replica fleet: warm join vs cold join.

    An RTX3090 replica faces ``overload_factor`` × its own capacity; at
    ``join_fraction`` of the trace a ``join_device`` replica joins (a
    heterogeneous scale-up — the spare capacity in this story is an edge
    part, not another flagship).  Warm run: the fleet's shared cache file
    holds the RTX3090 schedules, so the join adopts them through the
    device-family transfer tier (validate + one compile + one measurement
    per GEMM family).  Cold run: same scenario, no cache file — the join
    tunes from scratch.  Both runs meet the p99 SLO post-join — adopted
    schedules are re-validated and re-measured locally, never trusted
    blindly, though they may carry a bounded latency penalty vs the local
    optimum (the same penalty ``run_device_transfer`` surfaces) — so the
    headline difference is the **tuning-seconds-to-SLO** bill the report
    compares.
    """
    model_cfgs = FLEET_SMOKE_MODELS if smoke else FULL_MODELS
    built: dict = {}
    builders = _builders(model_cfgs, built)
    _, capacities = _probe_models(model_cfgs, buckets, built, RTX3090)
    unit = sum(capacities.values()) / len(capacities)
    qps = overload_factor * unit
    trace = poisson_trace(qps=qps, num_requests=num_requests,
                          models=capacities, seed=seed)
    span = trace[-1].arrival
    join_at = join_fraction * span
    join_device_name = _device_name(join_device)
    report = ScaleUpReport(slo_p99_ms=slo_p99_ms, join_at=join_at, qps=qps,
                           num_requests=num_requests,
                           join_device=join_device_name)

    with tempfile.TemporaryDirectory(prefix='repro_scaleup_') as tmp:
        path = os.path.join(tmp, 'donor_schedules.json')
        base = DeploymentSpec(
            models=_model_specs(model_cfgs, buckets),
            replicas=(ReplicaGroupSpec(device=RTX3090.name),),
            batching=BatchingSpec(max_batch=max(buckets), max_wait=max_wait,
                                  max_queue=max_queue),
            placement=PlacementSpec(policy='least_loaded'),
            autoscale=AutoscaleSpec(
                policy='scheduled_diurnal',
                options={'schedule': [[0.0, 1], [join_at, 2]]},
                min_replicas=1, max_replicas=2,
                interval=max(join_at / 4, 1e-6), cooldown=0.0,
                device=join_device_name))
        Deployment(replace(base, autoscale=None,
                           cache=CacheSpec(save_to=path)),
                   builders=builders).build()       # donor: tune once, share

        for warm in (True, False):
            spec = (replace(base, cache=CacheSpec(warm_from=path))
                    if warm else base)
            result = Deployment(spec, builders=builders).run(trace)
            post_p99 = _post_join_p99_ms(result, join_at)
            joined = result.fleet.replicas[-1]
            if warm:
                report.warm = result.stats(cold_start_seconds=0.0)
                report.warm_join_tuning_seconds = result.scale_up_tuning_seconds
                report.warm_post_p99_ms = post_p99
                report.device_transfer_hits = sum(
                    m.cache_traffic()['device_transfer_hits']
                    for m in joined.registry.models.values())
            else:
                report.cold = result.stats()
                report.cold_join_tuning_seconds = result.scale_up_tuning_seconds
                report.cold_post_p99_ms = post_p99
    return report


def format_scaleup(report: ScaleUpReport) -> str:
    lines = [
        f'Warm vs cold scale-up: {report.join_device} joins an overloaded '
        f'RTX3090 fleet at t={report.join_at * 1e3:.1f} ms '
        f'({report.qps:.0f} qps, {report.num_requests} requests)',
        f'  cold join: {report.cold_join_tuning_seconds:8.1f} simulated '
        f'tuning seconds to SLO (post-join p99 '
        f'{report.cold_post_p99_ms:.3f} ms)',
        f'  warm join: {report.warm_join_tuning_seconds:8.1f} simulated '
        f'tuning seconds to SLO (post-join p99 '
        f'{report.warm_post_p99_ms:.3f} ms, '
        f'{report.device_transfer_hits} device-transfer hits)',
        f'  the shared cache converges the joining replica to SLO '
        f'{report.tuning_speedup:.1f}x faster in tuning seconds',
    ]
    return '\n'.join(lines)
