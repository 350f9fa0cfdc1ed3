"""Learned-cost-model tuning and the parallel tuning service.

This package sits *above* the runtime: it trains on the measurement records
a :class:`~repro.runtime.cache.ScheduleCache` accumulates and plugs into
:class:`~repro.core.tuning.MatmulTuner` through a duck-typed protocol, so
the runtime never imports it.

* :mod:`repro.tune.features` — deterministic featurization of (problem,
  schedule) pairs: occupancy, launch geometry, modeled work terms;
* :mod:`repro.tune.cost_model` — :class:`RidgeCostModel`, a ridge
  regressor on log-latency with underfit and calibration gates;
* :mod:`repro.tune.service` — :func:`run_tuning_service`, sharding a model
  zoo's tuning problems across simulated workers that share one cache
  through the append-only record log.
"""
from .corpus import DEFAULT_SEED_PROBLEMS, SeedReport, seed_cost_model
from .cost_model import RidgeCostModel
from .features import FEATURE_NAMES, featurize
from .service import (TuningServiceReport, WorkerReport, run_tuning_service,
                      shard_problems)

__all__ = ['FEATURE_NAMES', 'featurize', 'RidgeCostModel',
           'DEFAULT_SEED_PROBLEMS', 'SeedReport', 'seed_cost_model',
           'TuningServiceReport', 'WorkerReport', 'run_tuning_service',
           'shard_problems']
