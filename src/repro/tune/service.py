"""The parallel tuning service: shard a model zoo's tuning work across
simulated workers that share one schedule cache.

The serial story so far: one executor tunes every problem it meets, in graph
order, on one simulated clock.  This module splits that bill.  A *probe*
executor enumerates every graph's :class:`~repro.runtime.executor.TuningProblem`
without tuning anything (the problems carry their cache signatures, so any
worker's results are byte-compatible with a compiling executor's).  The
deduplicated problem list is sharded with LPT (longest-processing-time
first) on each problem's estimated tuning weight, and each shard runs on
its own worker: a fresh executor, clock, and private cache warmed from the
shared starting state.

Workers share results through the cache's append-only record log
(:meth:`~repro.runtime.cache.ScheduleCache.save` appends only records that
differ from disk; replay is last-record-wins), so N workers finishing in
any order produce the same final state — and
:func:`~repro.runtime.cache.compact_log` canonicalizes the file so a
4-worker run and a serial run of the same zoo are *byte-identical*.  That
identity is the service's correctness proof, and it is what the old
merge-on-save scheme could not provide.

Simulated speedup is real speedup: each worker's bill is its own clock's
``elapsed_seconds``, the service's wall time is the slowest worker, and the
serial bill is the sum — the quantities Figure 17-style tuning-cost
experiments already report.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..gpusim.clock import SimulatedClock
from ..gpusim.device import DeviceSpec, RTX3090
from ..runtime.cache import ScheduleCache, compact_log
from ..runtime.executor import HidetExecutor, TuningProblem

__all__ = ['WorkerReport', 'TuningServiceReport', 'shard_problems',
           'run_tuning_service']


@dataclass(frozen=True)
class WorkerReport:
    """One worker's share of the tuning bill."""

    worker: int
    problems: int
    #: simulated seconds this worker's clock accumulated
    tuning_seconds: float
    #: cache entries this worker produced (new schedules found)
    new_entries: int
    #: measurement records this worker produced
    new_measurements: int


@dataclass
class TuningServiceReport:
    """What the service did and what it cost."""

    workers: list[WorkerReport] = field(default_factory=list)
    #: distinct problems tuned (after cross-graph dedup)
    total_problems: int = 0
    #: problems skipped because another graph already posted the signature
    duplicate_problems: int = 0
    #: problems resolved by the warm starting state at zero cost
    warm_hits: int = 0
    #: the shared cache all workers' results merged into
    cache: Optional[ScheduleCache] = None
    #: record-log path the workers shared (None for in-memory runs)
    log_path: Optional[str] = None

    @property
    def serial_seconds(self) -> float:
        """The one-worker bill: every shard's work, summed."""
        return sum(w.tuning_seconds for w in self.workers)

    @property
    def wall_seconds(self) -> float:
        """The service's simulated wall time: the slowest worker."""
        return max((w.tuning_seconds for w in self.workers), default=0.0)

    @property
    def speedup(self) -> float:
        """serial / wall — near-linear when LPT balances the shards."""
        wall = self.wall_seconds
        return self.serial_seconds / wall if wall > 0.0 else 1.0


def _measurement_key(problem: TuningProblem) -> tuple:
    """Problems that enumerate and measure the *same* candidate set.

    Two matmul groups can differ in cache signature (their fusion
    structures name different epilogue chains) while posing the identical
    measurement problem — same sizes, same fused traffic.  The tuner
    memoizes on exactly this key, so the second such problem on a worker is
    free; splitting the pair across workers makes both pay full price.
    Sharding therefore keeps equivalence groups together — without this,
    the 4-worker "serial bill" (sum of shard bills) overstates an honest
    one-worker run and the reported speedup is a lie.
    """
    if problem.kind == 'matmul':
        return ('matmul', problem.m, problem.n, problem.k, problem.batch,
                problem.extra_read_bytes, problem.extra_write_bytes)
    return (problem.kind, problem.signature)


def shard_problems(problems: Sequence[TuningProblem],
                   num_workers: int) -> list[list[TuningProblem]]:
    """LPT-shard problems by weight into ``num_workers`` lists.

    Problems are first grouped by measurement equivalence (see
    :func:`_measurement_key`): a group is charged once per worker, so it
    ships as a unit at the weight of one tune.  Groups go heaviest-first,
    each onto the currently lightest shard — the classic 4/3-approximation
    to makespan.  Ties (equal weights, equal loads) break on signature and
    shard index, so the sharding is a pure function of the problem set.
    """
    if num_workers < 1:
        raise ValueError(f'num_workers must be >= 1, got {num_workers}')
    grouped: dict[tuple, list[TuningProblem]] = {}
    for problem in problems:
        grouped.setdefault(_measurement_key(problem), []).append(problem)
    units: list[tuple[float, str, list[TuningProblem]]] = []
    for members in grouped.values():
        members.sort(key=lambda p: p.signature)
        units.append((members[0].weight, members[0].signature, members))
    units.sort(key=lambda unit: (-unit[0], unit[1]))
    shards: list[list[TuningProblem]] = [[] for _ in range(num_workers)]
    loads = [0.0] * num_workers
    for weight, _, members in units:
        target = min(range(num_workers), key=lambda i: (loads[i], i))
        shards[target].extend(members)
        loads[target] += weight
    return shards


def run_tuning_service(models, device: DeviceSpec = RTX3090,
                       num_workers: int = 4,
                       log_path: Optional[str] = None,
                       cache: Optional[ScheduleCache] = None,
                       cost_model_factory=None,
                       record_measurements: bool = True,
                       executor_options: Optional[dict] = None
                       ) -> TuningServiceReport:
    """Tune a model zoo's schedule problems across simulated workers.

    ``models`` is a sequence of ``(name, flow_graph)`` pairs; the name
    becomes the namespace on the cache records a worker writes.  The shared
    starting state is ``cache`` (fresh if omitted), additionally warmed
    from ``log_path`` when that file exists; problems the starting state
    already resolves are counted in ``warm_hits`` and never shipped to a
    worker.  ``cost_model_factory``, when given, is called once per worker
    to build that worker's learned cost model (each binds to its private
    cache).  ``executor_options`` are forwarded to every executor — probe
    and workers alike — so signature-affecting settings (space, fusion,
    split-k) stay consistent.

    On return the shared ``cache`` holds every result; with ``log_path``
    the record log has been appended by each worker and compacted, so
    repeated runs (or differently-sharded runs) of the same zoo leave a
    byte-identical file.
    """
    options = dict(executor_options or {})
    shared = cache if cache is not None else ScheduleCache()
    if log_path is not None:
        shared.warm(log_path, missing_ok=True)

    probe = HidetExecutor(device, cache=ScheduleCache(), **options)
    problems: list[TuningProblem] = []
    seen: set[str] = set()
    duplicates = 0
    warm_hits = 0
    for name, graph in models:
        for problem in probe.tuning_problems(graph, namespace=name):
            if problem.signature in seen:
                duplicates += 1
                continue
            seen.add(problem.signature)
            if problem.signature in shared:
                warm_hits += 1
                continue
            problems.append(problem)

    report = TuningServiceReport(total_problems=len(problems),
                                 duplicate_problems=duplicates,
                                 warm_hits=warm_hits,
                                 cache=shared, log_path=log_path)
    # the starting state every worker copies: ``shared`` itself grows as
    # workers publish below
    base_state = ScheduleCache()
    base_state.merge(shared)
    base_entries = len(shared)
    base_measurements = shared.measurement_count
    shards = shard_problems(problems, num_workers)
    for index, shard in enumerate(shards):
        worker_cache = ScheduleCache()
        worker_cache.merge(base_state)
        clock = SimulatedClock()
        cost_model = cost_model_factory() if cost_model_factory else None
        worker = HidetExecutor(device, clock=clock, cache=worker_cache,
                               cost_model=cost_model,
                               record_measurements=record_measurements,
                               **options)
        for problem in shard:
            worker.tune_problem(problem)
        report.workers.append(WorkerReport(
            worker=index, problems=len(shard),
            tuning_seconds=clock.elapsed_seconds,
            new_entries=len(worker_cache) - base_entries,
            new_measurements=(worker_cache.measurement_count
                              - base_measurements)))
        # publish: append this worker's results to the shared log (the
        # append-only format makes completion order irrelevant), and fold
        # them into the in-memory shared cache
        if log_path is not None:
            worker_cache.save(log_path)
        shared.merge(worker_cache)
    if log_path is not None:
        compact_log(log_path)
    return report
