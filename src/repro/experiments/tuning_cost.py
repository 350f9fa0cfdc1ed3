"""Figure 17: tuning cost of AutoTVM, Ansor, and Hidet on the five models.

Paper result: Hidet reduces tuning time by 20× vs AutoTVM and 11× vs Ansor
(AutoTVM: 8h/15h/9h/2m/2m; Ansor: 4h/9h/4h/51m/52m; Hidet: 20m/45m/22m/5m/5m).
AutoTVM's 2-minute transformer runs come from its tiny (<20 schedules) —
and ineffective — dense/batch-matmul template spaces.

The cold numbers above are paid *once*: because the hardware-centric space
is input-size independent (§4.3), the chosen schedules are reusable, and the
compilation cache (:mod:`repro.runtime.cache`) drops a warm re-compile of
the same model to zero simulated tuning seconds.
:func:`run_cache_reuse` measures exactly that, round-tripping the cache
through its on-disk JSON form to emulate a fresh process.

The learned-cost-model trajectory (:func:`run_cost_model_trajectory`)
extends the figure: seed a :class:`~repro.tune.RidgeCostModel` on a small
synthetic corpus, then compile the zoo *guided* (rank candidates, measure
only the predicted top-k) and compare the measurement bill and the chosen
schedules' latency against the exhaustive tuner.  The parallel service
(:func:`run_parallel_tuning`) splits the same bill across simulated
workers sharing one record log and proves the result byte-identical to a
serial run.
"""
from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .common import MODEL_BUILDERS, run_executor
from ..gpusim.clock import SimulatedClock
from ..gpusim.device import DeviceSpec, RTX3090
from ..runtime import HidetExecutor, ScheduleCache
from ..tune import (DEFAULT_SEED_PROBLEMS, RidgeCostModel, SeedReport,
                    run_tuning_service, seed_cost_model)

__all__ = ['TuningCostRow', 'run_tuning_cost', 'format_tuning_cost',
           'CacheReuseRow', 'run_cache_reuse', 'format_cache_reuse',
           'TrajectoryRow', 'TrajectoryReport', 'run_cost_model_trajectory',
           'format_cost_model_trajectory',
           'ParallelTuningReport', 'run_parallel_tuning',
           'format_parallel_tuning']

PAPER_REFERENCE_HOURS = {
    'resnet50': {'autotvm': 8.0, 'ansor': 4.0, 'hidet': 20 / 60},
    'inception_v3': {'autotvm': 15.0, 'ansor': 9.0, 'hidet': 45 / 60},
    'mobilenet_v2': {'autotvm': 9.0, 'ansor': 4.0, 'hidet': 22 / 60},
    'bert': {'autotvm': 2 / 60, 'ansor': 51 / 60, 'hidet': 5 / 60},
    'gpt2': {'autotvm': 2 / 60, 'ansor': 52 / 60, 'hidet': 5 / 60},
}


@dataclass
class TuningCostRow:
    model: str
    hours: dict[str, float]          # tuner -> hours


def run_tuning_cost(models=None) -> list[TuningCostRow]:
    models = models or list(MODEL_BUILDERS)
    rows = []
    for name in models:
        graph = MODEL_BUILDERS[name]()
        hours = {}
        for tuner in ('autotvm', 'ansor', 'hidet'):
            report = run_executor(tuner, graph)
            hours[tuner] = report.tuning_hours
        rows.append(TuningCostRow(name, hours))
    return rows


def speedups(rows: list[TuningCostRow]) -> dict[str, float]:
    """Tuning-time reduction of Hidet vs each baseline tuner.

    Computed over the *total* hours across the model suite, matching the
    paper's "Average" bars (32h AutoTVM / 1.6h Hidet = 20x; 18.7h Ansor = 11x).
    """
    hidet_total = sum(r.hours['hidet'] for r in rows)
    return {tuner: sum(r.hours[tuner] for r in rows) / hidet_total
            for tuner in ('autotvm', 'ansor')}


@dataclass
class CacheReuseRow:
    """Cold-vs-warm compile of one model through the compilation cache."""

    model: str
    cold_seconds: float          # simulated tuning seconds, empty cache
    warm_seconds: float          # same model again, warmed cache (should be 0)
    cold_latency_ms: float
    warm_latency_ms: float       # must equal cold_latency_ms
    warm_hits: int
    warm_misses: int
    cache_entries: int


def run_cache_reuse(models=None, cache_dir: Optional[str] = None) -> list[CacheReuseRow]:
    """Compile each model cold, persist the cache, then compile warm.

    The warm compile rebuilds the model from scratch and loads the schedule
    records from their on-disk JSON form, so the measurement reflects what a
    *new process* pays when it finds a cache file: zero simulated tuning
    time, with identical modeled latency.
    """
    models = models or list(MODEL_BUILDERS)
    rows = []
    tmp_ctx: Optional[tempfile.TemporaryDirectory] = None
    if cache_dir is None:
        tmp_ctx = tempfile.TemporaryDirectory(prefix='repro_sched_cache_')
        cache_dir = tmp_ctx.name
    try:
        for name in models:
            cache = ScheduleCache()
            cold = HidetExecutor(cache=cache).compile(MODEL_BUILDERS[name]())

            path = os.path.join(cache_dir, f'{name}.schedules.json')
            cache.save(path)
            warmed = ScheduleCache.load(path)

            warm = HidetExecutor(cache=warmed).compile(MODEL_BUILDERS[name]())
            rows.append(CacheReuseRow(
                model=name,
                cold_seconds=cold.tuning_seconds,
                warm_seconds=warm.tuning_seconds,
                cold_latency_ms=cold.latency_ms,
                warm_latency_ms=warm.latency_ms,
                warm_hits=warm.compile_report.cache_hits,
                warm_misses=warm.compile_report.cache_misses,
                cache_entries=len(warmed),
            ))
    finally:
        if tmp_ctx is not None:
            tmp_ctx.cleanup()
    return rows


def format_cache_reuse(rows: list[CacheReuseRow]) -> str:
    lines = ['Compilation cache: cold vs warm compile (disk round-trip)',
             f'{"model":14s} {"cold (s)":>10s} {"warm (s)":>10s} '
             f'{"latency Δ":>10s} {"hits":>6s} {"misses":>7s} {"entries":>8s}']
    for r in rows:
        delta = abs(r.warm_latency_ms - r.cold_latency_ms)
        lines.append(f'{r.model:14s} {r.cold_seconds:10.1f} {r.warm_seconds:10.1f} '
                     f'{delta:10.2e} {r.warm_hits:6d} {r.warm_misses:7d} '
                     f'{r.cache_entries:8d}')
    return '\n'.join(lines)


def format_tuning_cost(rows: list[TuningCostRow]) -> str:
    lines = ['Figure 17: tuning cost (hours)',
             f'{"model":14s} {"autotvm":>10s} {"ansor":>10s} {"hidet":>10s}']
    for row in rows:
        lines.append(f'{row.model:14s} {row.hours["autotvm"]:10.2f} '
                     f'{row.hours["ansor"]:10.2f} {row.hours["hidet"]:10.2f}')
    ratio = speedups(rows)
    lines.append(f'Hidet speeds up tuning by {ratio["autotvm"]:.0f}x (AutoTVM) '
                 f'and {ratio["ansor"]:.0f}x (Ansor)   [paper: 20x and 11x]')
    return '\n'.join(lines)


# -- learned cost model: the guided tuning trajectory -------------------------

@dataclass
class TrajectoryRow:
    """One model compiled twice: exhaustively and cost-model guided."""

    model: str
    exhaustive_measurements: int
    exhaustive_seconds: float
    exhaustive_latency_ms: float
    guided_measurements: int
    guided_seconds: float
    guided_latency_ms: float
    tuned_tasks: int                 # matmul problems the guided arm tuned
    ranked_tasks: int                # of those, pruned to the predicted top-k
    fallbacks: int                   # of those, escalated to full measurement

    @property
    def regression_pct(self) -> float:
        """Modeled end-to-end latency cost of guided tuning, in percent."""
        if self.exhaustive_latency_ms <= 0.0:
            return 0.0
        return 100.0 * (self.guided_latency_ms - self.exhaustive_latency_ms) \
            / self.exhaustive_latency_ms


@dataclass
class TrajectoryReport:
    """The full guided-vs-exhaustive tuning trajectory over a zoo."""

    seed: SeedReport
    rows: list[TrajectoryRow] = field(default_factory=list)
    #: in-sample R² of the cost model after the last refit (log space)
    train_r2: float = 0.0

    @property
    def exhaustive_measurements(self) -> int:
        return sum(r.exhaustive_measurements for r in self.rows)

    @property
    def guided_measurements(self) -> int:
        """The guided arm's whole bill — the seed corpus is not free."""
        return self.seed.measurements \
            + sum(r.guided_measurements for r in self.rows)

    @property
    def measurements_saved(self) -> float:
        """Exhaustive bill / guided bill (seed included), higher is better."""
        guided = self.guided_measurements
        return self.exhaustive_measurements / guided if guided else 1.0

    @property
    def measurements_per_task(self) -> float:
        """Mean guided measurements per tuned problem, seed included."""
        tasks = sum(r.tuned_tasks for r in self.rows)
        return self.guided_measurements / tasks if tasks else 0.0

    @property
    def worst_regression_pct(self) -> float:
        return max((r.regression_pct for r in self.rows), default=0.0)


def run_cost_model_trajectory(models=None, device: DeviceSpec = RTX3090,
                              seed_problems: Sequence[tuple[int, int, int, int]]
                              = DEFAULT_SEED_PROBLEMS) -> TrajectoryReport:
    """Compile the zoo guided by a learned cost model vs exhaustively.

    The guided arm is one continuous trajectory: a shared cache and clock,
    seeded by :func:`repro.tune.seed_cost_model` (its measurement bill is
    charged to the guided total), then each model compiled in name order
    with a :class:`~repro.tune.RidgeCostModel` ranking candidates — later
    models train on everything the earlier ones measured.  The exhaustive
    arm compiles each model on a fresh cold cache, the Figure 17 baseline.
    """
    models = list(models) if models is not None else sorted(MODEL_BUILDERS)
    cache = ScheduleCache()
    clock = SimulatedClock()
    seed = seed_cost_model(cache, device, problems=seed_problems, clock=clock)
    cost_model = RidgeCostModel(device)
    report = TrajectoryReport(seed=seed)
    for name in models:
        exhaustive = HidetExecutor(device, cache=ScheduleCache()) \
            .compile(MODEL_BUILDERS[name]())
        start = clock.elapsed_seconds
        guided = HidetExecutor(device, clock=clock, cache=cache,
                               cost_model=cost_model) \
            .compile(MODEL_BUILDERS[name]())
        report.rows.append(TrajectoryRow(
            model=name,
            exhaustive_measurements=exhaustive.compile_report.measurements,
            exhaustive_seconds=exhaustive.tuning_seconds,
            exhaustive_latency_ms=exhaustive.latency_ms,
            guided_measurements=guided.compile_report.measurements,
            guided_seconds=clock.elapsed_seconds - start,
            guided_latency_ms=guided.latency_ms,
            tuned_tasks=guided.compile_report.tuned_tasks,
            ranked_tasks=guided.compile_report.ranked_tasks,
            fallbacks=guided.compile_report.cost_model_fallbacks))
    report.train_r2 = cost_model.train_r2
    return report


def format_cost_model_trajectory(report: TrajectoryReport) -> str:
    lines = ['Learned cost model: guided vs exhaustive tuning',
             f'{"model":14s} {"exh meas":>9s} {"guided":>8s} {"tasks":>6s} '
             f'{"ranked":>7s} {"fallbk":>7s} {"latency Δ%":>11s}']
    for r in report.rows:
        lines.append(f'{r.model:14s} {r.exhaustive_measurements:9d} '
                     f'{r.guided_measurements:8d} {r.tuned_tasks:6d} '
                     f'{r.ranked_tasks:7d} {r.fallbacks:7d} '
                     f'{r.regression_pct:+11.3f}')
    lines.append(f'seed corpus: {report.seed.problems} problems, '
                 f'{report.seed.measurements} measurements '
                 f'({report.seed.tuning_seconds:.1f}s simulated) '
                 f'— charged to the guided bill')
    lines.append(f'total: {report.exhaustive_measurements} exhaustive vs '
                 f'{report.guided_measurements} guided measurements '
                 f'= {report.measurements_saved:.2f}x saved, '
                 f'worst latency regression '
                 f'{report.worst_regression_pct:+.3f}%, '
                 f'model R² {report.train_r2:.4f}')
    return '\n'.join(lines)


# -- parallel tuning service --------------------------------------------------

@dataclass
class ParallelTuningReport:
    """Serial vs N-worker tuning of the same zoo through shared record logs."""

    num_workers: int
    problems: int                    # distinct problems the service tuned
    serial_wall_seconds: float       # 1-worker service, simulated wall time
    parallel_wall_seconds: float     # N-worker service, slowest worker
    log_bytes: int                   # compacted record-log size (serial)
    logs_identical: bool             # serial vs parallel logs, byte-for-byte
    warm_rerun_hits: int             # re-run against the log: all warm
    warm_rerun_wall_seconds: float   # and free

    @property
    def speedup(self) -> float:
        """Honest cross-run speedup: serial wall over parallel wall."""
        if self.parallel_wall_seconds <= 0.0:
            return 1.0
        return self.serial_wall_seconds / self.parallel_wall_seconds


def run_parallel_tuning(models=None, device: DeviceSpec = RTX3090,
                        num_workers: int = 4,
                        log_dir: Optional[str] = None) -> ParallelTuningReport:
    """Tune a zoo serially and with ``num_workers``, and diff the results.

    Both runs share nothing: each starts from a cold cache and its own
    record log.  The speedup is the one-worker service's wall time over the
    N-worker service's (the slowest shard) — honest because LPT sharding
    keeps measurement-equivalent problems together, so the parallel run
    does no work the serial run didn't.  After both, the compacted logs
    must match byte-for-byte, and a third service run warmed from the
    parallel log must resolve every problem at zero simulated cost.
    """
    models = list(models) if models is not None else sorted(MODEL_BUILDERS)
    graphs = {name: MODEL_BUILDERS[name]() for name in models}
    named = [(name, graphs[name]) for name in models]
    tmp_ctx: Optional[tempfile.TemporaryDirectory] = None
    if log_dir is None:
        tmp_ctx = tempfile.TemporaryDirectory(prefix='repro_tuning_logs_')
        log_dir = tmp_ctx.name
    try:
        serial_log = os.path.join(log_dir, 'serial.schedules.jsonl')
        parallel_log = os.path.join(log_dir, 'parallel.schedules.jsonl')
        serial = run_tuning_service(named, device=device, num_workers=1,
                                    log_path=serial_log)
        parallel = run_tuning_service(named, device=device,
                                      num_workers=num_workers,
                                      log_path=parallel_log)
        with open(serial_log, 'rb') as f:
            serial_bytes = f.read()
        with open(parallel_log, 'rb') as f:
            parallel_bytes = f.read()
        warm = run_tuning_service(named, device=device,
                                  num_workers=num_workers,
                                  log_path=parallel_log)
        return ParallelTuningReport(
            num_workers=num_workers,
            problems=parallel.total_problems,
            serial_wall_seconds=serial.wall_seconds,
            parallel_wall_seconds=parallel.wall_seconds,
            log_bytes=len(serial_bytes),
            logs_identical=serial_bytes == parallel_bytes,
            warm_rerun_hits=warm.warm_hits,
            warm_rerun_wall_seconds=warm.wall_seconds)
    finally:
        if tmp_ctx is not None:
            tmp_ctx.cleanup()


def format_parallel_tuning(report: ParallelTuningReport) -> str:
    return '\n'.join([
        f'Parallel tuning service: {report.problems} problems, '
        f'{report.num_workers} workers',
        f'serial wall   {report.serial_wall_seconds:10.1f}s (simulated)',
        f'parallel wall {report.parallel_wall_seconds:10.1f}s '
        f'-> {report.speedup:.2f}x speedup',
        f'record logs byte-identical: {report.logs_identical} '
        f'({report.log_bytes} bytes compacted)',
        f'warm re-run: {report.warm_rerun_hits} hits, '
        f'{report.warm_rerun_wall_seconds:.1f}s',
    ])
