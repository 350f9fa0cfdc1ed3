"""repro.obs — the observability spine under the serving stack.

Three layers, one package:

* **tracing** (:mod:`repro.obs.tracing`) — per-request spans
  (arrival → … → complete/reject/lost) and per-batch GPU intervals,
  exportable as Chrome trace-event JSON for Perfetto, with invariant
  checks (every arrival terminates exactly once; sim-time monotonic),
  recorded as columns of plain scalars (:mod:`repro.obs.columns`, which
  the serving simulators' records use too);
* **metrics** (:mod:`repro.obs.metrics`) — counters, sim-time gauges,
  and the one :class:`Histogram` type both the compile-time profiler and
  the serving fold summarize through, with :mod:`repro.obs.percentiles`
  as the single percentile implementation repo-wide;
* **trajectory** (:mod:`repro.obs.bench` + :mod:`repro.obs.compare`) —
  the ``BENCH_<area>.json`` result format every benchmark emits and the
  ``python -m repro.obs.compare`` gate that fails CI on regressions
  beyond per-metric noise bands.  The package does not import
  :mod:`repro.obs.compare` (runpy must find it unimported to run it as
  ``__main__``); import ``compare`` from that module.

:class:`Telemetry` is the facade the simulators call; it records each
event into the trace and samples the few gauges the trace does not hold.
``repro.obs`` imports nothing from ``repro.serve``/``repro.runtime`` — it
sits at the bottom of the import graph so every layer above can speak it.
"""
from .percentiles import is_nan, percentile
from .metrics import Counter, Gauge, Histogram, Measurement, MetricsRegistry
from .columns import Columns
from .tracing import (LIFECYCLE_TRACK, TERMINAL_KINDS, BatchSpan, Instant,
                      RequestSpan, Tracer)
from .telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry
from .bench import BenchMetric, BenchResult

__all__ = [
    # percentiles
    'percentile', 'is_nan',
    # metrics
    'Counter', 'Gauge', 'Histogram', 'Measurement', 'MetricsRegistry',
    # tracing
    'Columns', 'Tracer', 'RequestSpan', 'BatchSpan', 'Instant',
    'TERMINAL_KINDS', 'LIFECYCLE_TRACK',
    # telemetry facade
    'Telemetry', 'NullTelemetry', 'NULL_TELEMETRY',
    # trajectory harness
    'BenchMetric', 'BenchResult',
]
