"""Exhaustive tuning over hardware-centric schedule spaces (paper §4.3, §5.1.3).

Because the space is small (~10² schedules) and input-size independent, Hidet
"simply enumerates all schedules" — no cost model, no evolutionary search.
Measurement here is the analytic GPU model; the simulated clock accounts for
the compile+measure cost that Figure 17 reports (the paper's testbed
compiles candidates in parallel on a 24-thread CPU).

PR 8 adds an optional learned shortcut in the spirit of TLP / "Learning to
Optimize Tensor Programs": pass a cost model (duck-typed — see
:class:`repro.tune.RidgeCostModel`) and the tuner ranks the enumerated
candidates by predicted latency, compiling and measuring only the predicted
top-k.  The shortcut is *calibrated*: an underfit model falls back to full
enumeration up front, and after measuring the top-k the predictions are
checked against the measurements — a miscalibrated model escalates to
measuring the remaining candidates, so a bad model costs wasted ranking, not
a bad schedule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ..gpusim.clock import SimulatedClock, TuningCosts
from ..gpusim.device import DeviceSpec, RTX3090
from ..gpusim.perfmodel import PerfModel
from ..sched import matmul_template
from ..sched.schedule import MatmulSchedule
from ..sched.space import matmul_schedule_space, split_k_candidates

__all__ = ['TuningResult', 'MatmulTuner', 'HIDET_TUNING_COSTS']

#: per-candidate costs of Hidet's tuning flow: candidates are generated and
#: compiled in parallel (24-thread CPU on the paper's testbed), then measured
#: back-to-back on the GPU.
HIDET_TUNING_COSTS = TuningCosts(
    compile_seconds=2.0, measure_seconds=0.025, parallel_compile_workers=24)


@dataclass
class TuningResult:
    best_schedule: MatmulSchedule
    best_latency: float                 # seconds
    num_candidates: int
    tuning_seconds: float               # 0.0 when served from the tuner cache
    latencies: dict[MatmulSchedule, float]
    #: whether split-k factors were actually enumerated for this problem
    split_k_tried: bool = True
    #: why split-k enumeration was skipped (None when it ran or was not requested)
    split_k_disabled_reason: Optional[str] = None
    #: candidates actually measured (== num_candidates for exhaustive tunes,
    #: the predicted top-k for cost-model-guided ones); 0 on a tuner-cache hit
    num_measured: int = 0
    #: whether a calibrated cost model pruned the measurement set
    used_cost_model: bool = False
    #: why the cost-model shortcut was not (fully) taken: None when it was,
    #: 'underfit: ...' when the model was not ready, 'miscalibrated: ...'
    #: when the gate escalated to full measurement after the top-k
    fallback_reason: Optional[str] = None
    #: candidates the static analyzer rejected before measurement (0 unless
    #: ``tune(analyzer=...)`` was given a candidate filter)
    analysis_rejected: int = 0


class _CandidateSet:
    """A memoized candidate list, its row index and (built on first use)
    its schedule columns."""

    def __init__(self, schedules: list[MatmulSchedule]):
        self.schedules = tuple(schedules)
        self.rows: dict[MatmulSchedule, int] = {}
        for row, sched in enumerate(self.schedules):
            self.rows.setdefault(sched, row)
        self._columns = None

    def columns(self, model: PerfModel) -> matmul_template.ScheduleColumns:
        if self._columns is None:
            self._columns = matmul_template.ScheduleColumns.build(
                self.schedules, model)
        return self._columns


class MatmulTuner:
    """Enumerate-and-measure tuner for the matmul template."""

    def __init__(self, device: DeviceSpec = RTX3090,
                 costs: TuningCosts = HIDET_TUNING_COSTS,
                 clock: Optional[SimulatedClock] = None):
        self.device = device
        self.costs = costs
        self.clock = clock if clock is not None else SimulatedClock()
        self.model = PerfModel(device)
        self._cache: dict[tuple, TuningResult] = {}
        #: (device, space, split-k factors) -> memoized candidate list
        self._candidate_sets: dict[tuple, _CandidateSet] = {}
        # lifetime accounting (drives the tuning.measurements_per_task bench
        # metric, the CompileReport counters and the analysis gate's report)
        #: candidate measurements actually charged to the clock
        self.measurements_charged = 0
        #: problems tuned (tuner-cache hits excluded — nothing was charged)
        self.tasks_tuned = 0
        #: problems where a calibrated cost model pruned the measurement set
        self.ranked_tasks = 0
        #: problems where the cost-model shortcut fell back to full
        #: measurement (underfit model or failed calibration gate)
        self.fallback_tasks = 0
        #: candidates screened by a static analyzer before measurement, and
        #: how many of those were rejected as unsafe
        self.analysis_checked = 0
        self.analysis_rejected = 0

    def measure(self, m: int, n: int, k: int, sched: MatmulSchedule,
                extra_read_bytes: float = 0.0, extra_write_bytes: float = 0.0,
                batch: int = 1) -> float:
        """Modeled latency (seconds) of all kernels the schedule launches."""
        stats = matmul_template.matmul_stats(
            m, n, k, sched, batch=batch, device=self.device,
            extra_read_bytes=extra_read_bytes, extra_write_bytes=extra_write_bytes)
        return sum(self.model.latency(s) for s in stats)

    def _measure_batch(self, m: int, n: int, k: int, cset: '_CandidateSet',
                       schedules: Sequence[MatmulSchedule],
                       extra_read_bytes: float, extra_write_bytes: float,
                       batch: int) -> list[float]:
        """:meth:`measure` of each schedule (all from ``cset``) in one
        array pass, as Python floats bit-identical to :meth:`measure`.  A
        row the batch cannot evaluate goes through :meth:`measure`, which
        raises the error a per-schedule loop would have raised first."""
        columns = cset.columns(self.model).take(
            [cset.rows[s] for s in schedules])
        main, split_rows, reduce = matmul_template.matmul_stats_batch(
            m, n, k, columns, batch=batch, device=self.device,
            extra_read_bytes=extra_read_bytes,
            extra_write_bytes=extra_write_bytes)
        with np.errstate(all='ignore'):   # unlaunchable rows are redone below
            total = self.model.estimate_batch(main)
            total[split_rows] += self.model.estimate_batch(reduce)
        launchable = main.launchable()
        launchable[split_rows] &= reduce.launchable()
        latencies = total.tolist()
        for row in np.flatnonzero(~launchable).tolist():
            latencies[row] = self.measure(m, n, k, schedules[row],
                                          extra_read_bytes, extra_write_bytes,
                                          batch)
        return latencies

    def candidates(self, m: int, n: int, k: int,
                   space: Optional[Sequence[MatmulSchedule]] = None,
                   try_split_k: bool = True,
                   batch: int = 1) -> list[MatmulSchedule]:
        """Enumerate the full candidate list for a problem, without
        measuring: the base space plus the valid split-k variants (paper
        §6.3.4 — batching disables split-k, see :meth:`tune`).  The list is
        memoized per (device, space, split-k factors); every call returns a
        fresh copy."""
        return list(self._candidate_set(m, n, k, space, try_split_k,
                                        batch).schedules)

    def _candidate_set(self, m, n, k, space, try_split_k,
                       batch) -> '_CandidateSet':
        """The memoized candidate list of :meth:`candidates`.  It depends on
        the problem only through its split-k factors, so problems share it."""
        factors = ()
        if try_split_k and batch == 1:
            factors = tuple(f for f in split_k_candidates(m, n, k, self.device)
                            if f != 1)
        key = (self.device, None if space is None else tuple(space), factors)
        cset = self._candidate_sets.get(key)
        if cset is None:
            if space is None:
                space = matmul_schedule_space(self.device)
            cands = list(space)
            seen = set(cands)
            for base in space:
                for factor in factors:
                    variant = replace(base, split_k=factor)
                    if variant.is_valid(self.device) and variant not in seen:
                        seen.add(variant)
                        cands.append(variant)
            cset = self._candidate_sets[key] = _CandidateSet(cands)
        return cset

    def tune(self, m: int, n: int, k: int,
             space: Optional[Sequence[MatmulSchedule]] = None,
             try_split_k: bool = True,
             extra_read_bytes: float = 0.0,
             extra_write_bytes: float = 0.0,
             batch: int = 1,
             precompiled: bool = False,
             cost_model=None,
             analyzer=None) -> TuningResult:
        """Find the best schedule for an ``m×n×k`` problem.

        By default the candidate set (base space × split-k variants) is
        enumerated exhaustively.  Results are cached per problem key; a
        cache hit returns an equal result whose ``tuning_seconds`` is 0.0
        (no clock time is charged — reporting the original tuning time
        would double-count it).

        ``precompiled=True`` declares that this problem family's candidate
        kernels were already compiled for another size (the hardware-centric
        space is input-size independent, §4.3, so the candidate set is
        identical): only the measurements are charged, not the compile
        batch.  The chosen schedule is the true optimum either way.  The
        split-k cross product can differ slightly between sizes
        (``split_k_candidates`` depends on ``m``); those few size-specific
        variants ride the family's compile budget rather than being
        charged separately — a deliberate approximation.

        ``cost_model`` (duck-typed; see :class:`repro.tune.RidgeCostModel`)
        enables the learned shortcut: ``cost_model.rank(...)`` orders the
        candidates by predicted latency and only the top
        ``cost_model.top_k`` are compiled+measured.  Two calibration guards
        keep the shortcut honest: ``rank`` returns ``None`` while the model
        is underfit (full enumeration, ``fallback_reason='underfit: ...'``),
        and after measuring the top-k the mean absolute log-space error of
        the predictions is checked against
        ``cost_model.calibration_tolerance`` — a miss escalates to
        measuring every remaining candidate
        (``fallback_reason='miscalibrated: ...'``), so the chosen schedule
        is then the exhaustive optimum.

        ``analyzer`` (duck-typed; see
        :class:`repro.analysis.ScheduleAnalyzer`) screens every enumerated
        candidate *before* measurement: ``analyzer.reject(m, n, k, sched,
        batch)`` returns a diagnostic for statically unsafe schedules (out
        of bounds, coverage holes, shared-memory races), which are dropped
        from the candidate set without charging compile or measure time.
        The screen never changes the winner on a healthy space — a rejected
        candidate would have been memory-unsafe on real hardware, so it was
        never a legitimate optimum.

        Split-k (paper §6.3.4) is only enumerated for un-batched problems:
        splitting the reduction exists to manufacture extra thread blocks
        when the ``m×n`` output grid alone cannot saturate the SMs, but a
        batched matmul already multiplies the grid by ``batch``, and split-k
        would add a second (reduce) kernel plus partial-sum traffic per
        batch element for no occupancy gain.  The decision is recorded in
        ``TuningResult.split_k_tried`` / ``split_k_disabled_reason`` so
        experiments can observe it instead of inferring it from the absence
        of split-k candidates.
        """
        split_k_reason: Optional[str] = None
        if try_split_k and batch != 1:
            try_split_k = False
            split_k_reason = (
                f'batch={batch}: batching already multiplies the launch grid, '
                f'so split-k cannot add useful parallelism (§6.3.4)')
        # key on the *effective* flag: an explicit opt-out and a batch-forced
        # disable enumerate the identical candidate space, so they share one
        # enumeration (and one clock charge); each caller's own split-k
        # decision metadata is restored on the way out.  Guided and
        # exhaustive tunes key separately: a guided result is not
        # necessarily the exhaustive optimum.  The analyzer itself is in the
        # key (an ``id`` can be reused once its object is collected).
        key = (m, n, k, batch, None if space is None else tuple(space),
               try_split_k, round(extra_read_bytes), round(extra_write_bytes),
               cost_model is not None, analyzer)
        if key in self._cache:
            return replace(self._cache[key], tuning_seconds=0.0,
                           num_measured=0,
                           split_k_tried=try_split_k,
                           split_k_disabled_reason=split_k_reason)

        start = self.clock.elapsed_seconds
        cset = self._candidate_set(m, n, k, space, try_split_k, batch)
        cands = list(cset.schedules)
        analysis_rejected = 0
        if analyzer is not None:
            kept = []
            reasons = []
            for sched in cands:
                reason = analyzer.reject(m, n, k, sched, batch=batch)
                if reason is None:
                    kept.append(sched)
                else:
                    reasons.append((sched, reason))
            self.analysis_checked += len(cands)
            analysis_rejected = len(reasons)
            self.analysis_rejected += analysis_rejected
            if not kept:
                raise RuntimeError(
                    f'matmul {m}x{n}x{k}: the static analyzer rejected every '
                    f'candidate, e.g. {reasons[0][1]}')
            cands = kept
        num_candidates = len(cands)

        def measure_into(latencies, schedules):
            # one array pass over the schedules not measured yet, inserted
            # in the order a per-schedule loop would have inserted them
            missing = [s for s in dict.fromkeys(schedules)
                       if s not in latencies]
            if missing:
                latencies.update(zip(missing, self._measure_batch(
                    m, n, k, cset, missing, extra_read_bytes,
                    extra_write_bytes, batch)))

        used_cost_model = False
        fallback_reason: Optional[str] = None
        latencies: dict[MatmulSchedule, float] = {}
        ranked = None
        if cost_model is not None:
            ranked = cost_model.rank(m, n, k, cands, batch=batch,
                                     extra_read_bytes=extra_read_bytes,
                                     extra_write_bytes=extra_write_bytes)
            if ranked is None:
                fallback_reason = ('underfit: cost model not calibrated, '
                                   'measuring the full candidate set')
                self.fallback_tasks += 1
        if ranked is not None:
            used_cost_model = True
            self.ranked_tasks += 1
            if self.costs.search_overhead_seconds > 0.0:
                self.clock.charge(f'rank matmul {m}x{n}x{k}',
                                  self.costs.search_overhead_seconds)
            ordered = [sched for sched, _ in ranked]
            predicted = dict(ranked)
            top_k = max(1, min(int(cost_model.top_k), num_candidates))
            measure_into(latencies, ordered[:top_k])
            # calibration gate: the predictions that chose the top-k must
            # agree with what measurement says about those very candidates
            err = sum(abs(math.log(latencies[s]) - math.log(predicted[s]))
                      for s in ordered[:top_k]) / top_k
            tolerance = float(cost_model.calibration_tolerance)
            if err > tolerance:
                fallback_reason = (
                    f'miscalibrated: mean |Δlog latency| {err:.3f} > '
                    f'{tolerance:.3f} on the measured top-{top_k}, '
                    f'escalating to full measurement')
                self.fallback_tasks += 1
                measure_into(latencies, ordered[top_k:])
        else:
            measure_into(latencies, cands)

        num_measured = len(latencies)
        if not precompiled:
            self.clock.charge_compile_batch(self.costs, num_measured,
                                            label=f'compile matmul {m}x{n}x{k}')
        self.clock.charge_measurements(self.costs, num_measured,
                                       label=f'measure matmul {m}x{n}x{k}')
        self.measurements_charged += num_measured
        self.tasks_tuned += 1

        best = min(latencies, key=lambda s: latencies[s])
        result = TuningResult(
            best_schedule=best,
            best_latency=latencies[best],
            num_candidates=num_candidates,
            tuning_seconds=self.clock.elapsed_seconds - start,
            latencies=latencies,
            split_k_tried=try_split_k,
            split_k_disabled_reason=split_k_reason,
            num_measured=num_measured,
            used_cost_model=used_cost_model,
            fallback_reason=fallback_reason,
            analysis_rejected=analysis_rejected,
        )
        self._cache[key] = result
        return result

    def retarget(self, m: int, n: int, k: int, sched: MatmulSchedule,
                 extra_read_bytes: float = 0.0, extra_write_bytes: float = 0.0,
                 batch: int = 1) -> TuningResult:
        """Adopt a schedule tuned on a *different* device (device-family
        transfer): compile that one candidate for the local architecture and
        measure it, instead of enumerating the space.

        Charges one compile plus one measurement — the foreign kernel must be
        rebuilt for the local arch, but the enumerate-compile-measure bill of
        a full tune is skipped.  Unlike a size-family transfer the adopted
        schedule is not guaranteed optimal for this device; the caller is
        expected to have validated it (``sched.is_valid(local_device)``)
        before retargeting.
        """
        start = self.clock.elapsed_seconds
        latency = self.measure(m, n, k, sched,
                               extra_read_bytes, extra_write_bytes, batch)
        self.clock.charge_compile_batch(self.costs, 1,
                                        label=f'compile retarget {m}x{n}x{k}')
        self.clock.charge_measurements(self.costs, 1,
                                       label=f'measure retarget {m}x{n}x{k}')
        self.measurements_charged += 1
        self.tasks_tuned += 1
        return TuningResult(
            best_schedule=sched,
            best_latency=latency,
            num_candidates=1,
            tuning_seconds=self.clock.elapsed_seconds - start,
            latencies={sched: latency},
            split_k_tried=False,
            split_k_disabled_reason='adopted a foreign-device schedule '
                                    '(device-family transfer)',
            num_measured=1,
        )
