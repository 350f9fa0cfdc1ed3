"""A learned cost model over schedule features: ridge regression on
log-latency.

The model trains on the :class:`~repro.runtime.cache.MeasurementRecord`s a
:class:`~repro.runtime.cache.ScheduleCache` accumulates — every candidate a
tuner actually measured, across every problem tuned through that cache.
``bind(cache)`` attaches the training source; fitting is lazy and keyed on
the cache's ``measurement_version``, so the model silently refreshes as
tuning adds data and costs nothing when it doesn't.

Ridge over standardized features.  Featurization is pure, so each
(problem, schedule) pair is featurized once and memoized: a refit
featurizes only the records it has not seen, and ``rank`` reuses the
vectors of candidates already featurized.  A refit is then one
O(records·d²) numpy pass accumulating the weighted normal equations,
row by row in canonical record order so every float rounds exactly as a
plain left-to-right sum would, followed by an O(d³) Gaussian elimination.
Log-space targets because schedule latencies span orders of magnitude and
ranking is what matters, not absolute error.

The model refuses to rank until it is *calibrated*: enough samples, enough
distinct problems (a model that has seen one GEMM extrapolates garbage),
and an in-sample R² above a floor.  ``rank`` returns ``None`` before then
and the tuner falls back to exhaustive measurement — see
:meth:`repro.core.tuning.MatmulTuner.tune` for the second (post-measurement)
calibration gate.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..gpusim.device import DeviceSpec, RTX3090
from ..sched.schedule import MatmulSchedule, schedule_fields
from .features import FEATURE_NAMES, featurize

__all__ = ['RidgeCostModel']


def _solve(a: list[list[float]], b: list[float]) -> list[float]:
    """Solve ``a @ x = b`` by Gaussian elimination with partial pivoting.

    ``a`` is symmetric positive definite here (ridge normal equations), so
    the pivot never vanishes; partial pivoting still bounds the rounding
    error deterministically.
    """
    size = len(b)
    aug = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(aug[r][col]))
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        pivot_value = aug[col][col]
        if pivot_value == 0.0:
            raise ArithmeticError('singular normal equations despite ridge')
        for row in range(col + 1, size):
            factor = aug[row][col] / pivot_value
            if factor == 0.0:
                continue
            for j in range(col, size + 1):
                aug[row][j] -= factor * aug[col][j]
    x = [0.0] * size
    for row in range(size - 1, -1, -1):
        acc = aug[row][size] - sum(aug[row][j] * x[j]
                                   for j in range(row + 1, size))
        x[row] = acc / aug[row][row]
    return x


def _seqsum(values: np.ndarray):
    """Sum along the first axis strictly in index order.

    Equals Python's ``sum`` element for element: ``np.sum`` adds pairwise
    and rounds differently.  The ``+ 0.0`` matches ``sum``'s ``0.0`` start,
    which turns an all-``-0.0`` sum into ``0.0``.
    """
    return np.add.accumulate(values, axis=0)[-1] + 0.0


def _square(values: np.ndarray) -> np.ndarray:
    """``values ** 2`` rounded as Python's float ``** 2`` rounds it.

    ``float_power`` calls libm ``pow`` per element, as Python does;
    ``x * x``, ``np.square`` and numpy's vectorized ``power`` differ from
    ``pow(x, 2.0)`` in the last bit for about one value in a thousand.
    """
    return np.float_power(values, 2.0)


class RidgeCostModel:
    """Ranks matmul candidates by predicted latency; trains on cache
    measurements.

    Satisfies the duck-typed protocol :class:`repro.core.tuning.MatmulTuner`
    expects of a cost model (``rank`` / ``top_k`` /
    ``calibration_tolerance`` / ``bind`` / ``source``).
    """

    def __init__(self, device: DeviceSpec = RTX3090, *,
                 alpha: float = 1e-2,
                 rank_focus: float = 8.0,
                 top_k: int = 20,
                 calibration_tolerance: float = 0.25,
                 min_samples: int = 64,
                 min_problems: int = 2,
                 min_r2: float = 0.6):
        self.device = device
        #: ridge penalty on the standardized features
        self.alpha = float(alpha)
        #: importance-weighting exponent: sample weight is
        #: ``(problem_best / latency) ** rank_focus``.  Plain least squares
        #: (0.0) spends its capacity fitting the bulk of slow candidates;
        #: ranking only cares about telling the fast ones apart, so the
        #: near-best region is where the fit must be sharp
        self.rank_focus = float(rank_focus)
        #: how many predicted-best candidates the tuner measures
        self.top_k = int(top_k)
        #: mean |Δ log latency| on the measured top-k above which the tuner
        #: escalates to full measurement
        self.calibration_tolerance = float(calibration_tolerance)
        self.min_samples = int(min_samples)
        self.min_problems = int(min_problems)
        self.min_r2 = float(min_r2)
        #: bound ScheduleCache (training source); None until bind()
        self.source = None
        self._fitted_version: int = -1
        self._weights: Optional[list[float]] = None   # [bias] + per-feature
        self._mean: Optional[list[float]] = None
        self._std: Optional[list[float]] = None
        #: in-sample R² of the last fit (log space); nan before any fit
        self.train_r2: float = math.nan
        self.num_samples: int = 0
        self.num_problems: int = 0
        #: featurize inputs -> feature vector; featurization is pure, so a
        #: pair is featurized once however often it is refit or ranked
        self._features: dict[tuple, np.ndarray] = {}

    # -- training ------------------------------------------------------

    def bind(self, cache) -> 'RidgeCostModel':
        """Attach the cache whose measurements this model trains on."""
        self.source = cache
        self._fitted_version = -1
        return self

    def featurize(self, m: int, n: int, k: int, sched: MatmulSchedule,
                  batch: int = 1, extra_read_bytes: float = 0.0,
                  extra_write_bytes: float = 0.0) -> tuple[float, ...]:
        return featurize(m, n, k, sched, device=self.device, batch=batch,
                         extra_read_bytes=extra_read_bytes,
                         extra_write_bytes=extra_write_bytes)

    def _feature_row(self, m: int, n: int, k: int, sched: MatmulSchedule,
                     batch: int, extra_read_bytes: float,
                     extra_write_bytes: float) -> np.ndarray:
        """Memoized :meth:`featurize`, keyed on its exact arguments (a
        record's ``key`` rounds the fused byte counts)."""
        key = (m, n, k, batch, extra_read_bytes, extra_write_bytes, sched)
        row = self._features.get(key)
        if row is None:
            row = self._features[key] = np.array(self.featurize(
                m, n, k, sched, batch=batch,
                extra_read_bytes=extra_read_bytes,
                extra_write_bytes=extra_write_bytes))
        return row

    def fit(self, records: Sequence) -> bool:
        """Fit on measurement records; returns readiness.

        Records are sorted by their canonical key first, so the fit (and
        every float-rounding decision inside it) is independent of the
        order measurements were taken in.
        """
        usable = sorted((r for r in records
                         if r.kind == 'matmul' and r.latency > 0.0),
                        key=lambda r: r.key)
        self.num_samples = len(usable)
        self.num_problems = len({r.problem_key for r in usable})
        self._weights = None
        self.train_r2 = math.nan
        if self.num_samples < self.min_samples \
                or self.num_problems < self.min_problems:
            return False

        raw = np.array([self._feature_row(r.m, r.n, r.k, r.schedule, r.batch,
                                          r.extra_read_bytes,
                                          r.extra_write_bytes)
                        for r in usable])
        targets = np.array([math.log(r.latency) for r in usable])
        # importance weights: how close each sample is to its problem's best
        best: dict[tuple, float] = {}
        for r in usable:
            current = best.get(r.problem_key)
            if current is None or r.latency < current:
                best[r.problem_key] = r.latency
        sample_weights = np.array(
            [(best[r.problem_key] / r.latency) ** self.rank_focus
             for r in usable])
        weight_total = float(_seqsum(sample_weights))
        count = float(self.num_samples)
        mean = _seqsum(raw) / count
        centered = raw - mean
        var = _seqsum(_square(centered)) / count
        std = np.where(var > 0.0, np.sqrt(var), 1.0)
        rows = centered / std

        # weighted normal equations with a bias column; the bias is not
        # penalized, and the ridge term scales with the total weight so
        # alpha means the same thing at any corpus size.  Rows are added
        # one at a time, which keeps every entry's summation order; the
        # upper triangle is kept and mirrored
        width = len(FEATURE_NAMES) + 1
        aug_rows = np.hstack([np.ones((len(rows), 1)), rows])
        gram = np.zeros((width, width))
        moment = np.zeros(width)
        for aug_row, y, sw in zip(aug_rows, targets.tolist(),
                                  sample_weights.tolist()):
            weighted = aug_row * sw
            moment += weighted * y
            gram += weighted[:, None] * aug_row
        lower = np.tril_indices(width, -1)
        gram[lower] = gram.T[lower]
        diagonal = np.arange(1, width)
        gram[diagonal, diagonal] += self.alpha * weight_total
        try:
            weights = _solve(gram.tolist(), moment.tolist())
        except ArithmeticError:
            return False

        # readiness R² under the same weighting the fit optimized — the
        # unweighted R² of a rank-focused fit would punish exactly the
        # slow-candidate error the objective chose to ignore
        predictions = weights[0] + _dot_columns(weights[1:], rows)
        y_mean = float(_seqsum(sample_weights * targets)) / weight_total
        ss_tot = float(_seqsum(sample_weights * _square(targets - y_mean)))
        ss_res = float(_seqsum(sample_weights
                               * _square(targets - predictions)))
        self.train_r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
        self._weights = weights
        self._mean, self._std = mean.tolist(), std.tolist()
        return self.ready

    @property
    def ready(self) -> bool:
        """Calibrated enough to rank (the underfit gate)."""
        return (self._weights is not None
                and self.num_samples >= self.min_samples
                and self.num_problems >= self.min_problems
                and self.train_r2 >= self.min_r2)

    def _refresh(self) -> None:
        if self.source is None:
            return
        version = self.source.measurement_version
        if version != self._fitted_version:
            self.fit(self.source.measurements())
            self._fitted_version = version

    # -- inference -----------------------------------------------------

    def _predict_rows(self, features: np.ndarray) -> list[float]:
        """Predicted seconds for each row of raw feature vectors."""
        centered = features - self._mean
        total = np.zeros(len(features))
        for j, (w, sd) in enumerate(zip(self._weights[1:], self._std)):
            total += w * centered[:, j] / sd
        log_latency = self._weights[0] + total
        return [math.exp(v) for v in log_latency.tolist()]

    def predict(self, m: int, n: int, k: int, sched: MatmulSchedule,
                batch: int = 1, extra_read_bytes: float = 0.0,
                extra_write_bytes: float = 0.0) -> float:
        """Predicted latency in seconds (requires a fitted model)."""
        if self._weights is None:
            raise RuntimeError('cost model is not fitted')
        row = self._feature_row(m, n, k, sched, batch, extra_read_bytes,
                                extra_write_bytes)
        return self._predict_rows(row[None, :])[0]

    def rank(self, m: int, n: int, k: int,
             candidates: Sequence[MatmulSchedule],
             batch: int = 1, extra_read_bytes: float = 0.0,
             extra_write_bytes: float = 0.0
             ) -> Optional[list[tuple[MatmulSchedule, float]]]:
        """Candidates ordered by predicted latency, best first, as
        ``(schedule, predicted_seconds)`` pairs — or ``None`` while the
        model is underfit (the tuner then measures exhaustively).

        Ties break on the schedule's field tuple, never on input order, so
        the ranking is a pure function of (training data, problem, set of
        candidates).
        """
        self._refresh()
        if not self.ready:
            return None
        features = np.array([self._feature_row(m, n, k, sched, batch,
                                                extra_read_bytes,
                                                extra_write_bytes)
                             for sched in candidates]
                            ).reshape(len(candidates), len(FEATURE_NAMES))
        scored = list(zip(candidates, self._predict_rows(features)))
        scored.sort(key=lambda pair: (pair[1], schedule_fields(pair[0])))
        return scored


def _dot_columns(weights: Sequence[float], rows: np.ndarray) -> np.ndarray:
    """``sum(w * x for w, x in zip(weights, row))`` for every row at once,
    adding the terms in the same order as that sum."""
    total = np.zeros(len(rows))
    for j, w in enumerate(weights):
        total += w * rows[:, j]
    return total
