"""Analyzer façade: run every check over a function or module.

``analyze_function`` runs, in order: the ``verify_function``
well-formedness pass (unlowered), coverage for every ``ForTaskStmt``
mapping, the shared-memory race detector (on the unlowered body, where the
worker→task relation is still visible), then lowers the function exactly
as codegen does (:func:`repro.ir.passes.lower`), re-verifies the
lowered form, and bounds-checks every access.

:class:`ScheduleAnalyzer` adapts the module analyzer into the candidate
filter ``MatmulTuner.tune(analyzer=...)`` expects, so unsafe schedules are
rejected *before* any measurement is charged.
"""
from __future__ import annotations

from typing import Optional

from ..ir.func import Function, IRModule
from ..ir.functor import collect_stmts
from ..ir.passes import IRVerificationError, lower, verify_function
from ..ir.stmt import ForTaskStmt
from ..sched import matmul_template
from .bounds import check_bounds
from .coverage import check_coverage
from .races import check_races
from .report import AnalysisReport, Finding


def analyze_function(func: Function,
                     report: Optional[AnalysisReport] = None) -> AnalysisReport:
    """Run verify + coverage + races + bounds over one kernel function."""
    if report is None:
        report = AnalysisReport()
    report.kernels.append(func.name)

    try:
        verify_function(func, lowered=False)
    except IRVerificationError as exc:
        report.add(Finding(check='verify', severity='error', kernel=func.name,
                           message=str(exc)))
        return report    # a malformed function would crash the other checks

    seen_mappings = set()
    for stmt in collect_stmts(func.body, ForTaskStmt):
        if id(stmt.mapping) in seen_mappings:
            continue
        seen_mappings.add(id(stmt.mapping))
        cov = check_coverage(stmt.mapping)
        if cov.exact:
            continue
        report.add(Finding(
            check='coverage', severity='error', kernel=func.name,
            message=(f'task mapping {stmt.mapping!r} does not cover its '
                     f'domain exactly once: {cov.describe()}'),
            detail=f'task_shape={tuple(stmt.mapping.task_shape)}'))

    check_races(func, report)

    lowered = lower(func)
    try:
        verify_function(lowered, lowered=True)
    except IRVerificationError as exc:
        report.add(Finding(check='verify', severity='error', kernel=func.name,
                           message=f'lowered form: {exc}'))
        return report
    check_bounds(lowered, report)
    return report


def analyze_module(module: IRModule) -> AnalysisReport:
    """Analyze every function of an ``IRModule``; findings are merged."""
    report = AnalysisReport()
    for func in module:
        analyze_function(func, report)
    return report


class ScheduleAnalyzer:
    """Pre-measurement candidate filter for ``MatmulTuner.tune``.

    ``reject(m, n, k, sched, batch)`` instantiates the matmul template for
    the candidate schedule, runs the full analyzer, and returns the first
    error message if the kernel is unsafe (``None`` when clean).  Verdicts
    are cached per problem/schedule, so re-tuning the same space is free.

    ``builder`` defaults to the real template; tests inject a poisoned
    builder to prove rejected candidates never reach measurement.
    """

    def __init__(self, builder=None):
        if builder is None:
            builder = matmul_template.build_matmul_module
        self.builder = builder
        self._verdicts: dict = {}

    def reject(self, m: int, n: int, k: int, sched,
               batch: int = 1) -> Optional[str]:
        key = (m, n, k, batch, sched)
        if key not in self._verdicts:
            module = self.builder(m, n, k, sched, name='candidate',
                                  batch=batch)
            report = analyze_module(module)
            self._verdicts[key] = (
                report.errors[0].message if report.errors else None)
        return self._verdicts[key]
