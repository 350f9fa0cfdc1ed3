"""Static analysis over lowered kernels: bounds, coverage, races.

The package turns the paper's analyzability claim — a task mapping is a
closed-form ``worker2task`` relation, not an opaque loop nest — into a
compile gate with three checks:

* :mod:`repro.analysis.bounds` — interval analysis over ``ir.expr`` proving
  every buffer access stays inside its declared ``TensorType`` shape;
* :mod:`repro.analysis.coverage` — proves a task mapping covers its task
  domain exactly once (no holes, no duplicate writers);
* :mod:`repro.analysis.races` — splits a kernel into ``BarrierStmt``
  intervals and proves write-write / read-write disjointness of shared
  memory accesses across distinct threads.

:func:`analyze_function` / :func:`analyze_module` run all three (plus the
``verify_function`` well-formedness pass) and return an
:class:`AnalysisReport`; ``python -m repro.analysis`` lints the schedule
templates and the model zoo from the command line.
"""
from .report import AnalysisError, AnalysisReport, Finding
from .coverage import CoverageReport, check_coverage
from .bounds import check_bounds
from .races import check_races
from .analyzer import ScheduleAnalyzer, analyze_function, analyze_module

__all__ = [
    'AnalysisError', 'AnalysisReport', 'Finding',
    'CoverageReport', 'check_coverage',
    'check_bounds', 'check_races',
    'ScheduleAnalyzer', 'analyze_function', 'analyze_module',
]
