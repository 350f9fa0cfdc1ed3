"""The static-analysis tuner gate, demonstrated end-to-end.

One seeded-bad candidate is planted in a small matmul schedule space (its
main-loop barrier stripped — a genuine shared-memory race) and the space
is tuned twice: once unscreened, once behind a :class:`ScheduleAnalyzer`
screen.  The screened run must reject exactly the poisoned candidate and
choose the *same* schedule at the *same* modeled latency as the baseline —
static safety screening is free at the optimum.  Deliberately
deterministic: no clock, no RNG, so the gate's CI numbers never move.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..analysis import ScheduleAnalyzer
from ..analysis.fixtures import poisoned_matmul_builder
from ..core.tuning import MatmulTuner
from ..sched.schedule import MatmulSchedule
from ..sched.space import matmul_schedule_space

__all__ = ['AnalysisGateResult', 'run_analysis_gate', 'format_analysis_gate']

#: the GEMM the gate demo tunes (any healthy size works; kept small)
GATE_PROBLEM = (64, 64, 64)

#: space slice: every block_k=8 schedule, enough candidates to make the
#: "winner unchanged" claim non-trivial but cheap to screen statically
SPACE_BLOCK_K = 8
SPACE_LIMIT = 6


@dataclass
class AnalysisGateResult:
    space_size: int
    checked: int
    rejected: int
    baseline_schedule: MatmulSchedule
    screened_schedule: MatmulSchedule
    baseline_latency: float
    screened_latency: float

    @property
    def choice_unchanged(self) -> bool:
        return (self.screened_schedule == self.baseline_schedule
                and self.screened_latency == self.baseline_latency)


def run_analysis_gate() -> AnalysisGateResult:
    m, n, k = GATE_PROBLEM
    space = [s for s in matmul_schedule_space()
             if s.block_k == SPACE_BLOCK_K][:SPACE_LIMIT]

    baseline = MatmulTuner().tune(m, n, k, space=space, try_split_k=False)

    # poison a candidate that did NOT win, so a correct screen must leave
    # the tuning outcome untouched
    bad = next(s for s in space if s != baseline.best_schedule)
    analyzer = ScheduleAnalyzer(builder=poisoned_matmul_builder(bad))
    tuner = MatmulTuner()
    screened = tuner.tune(m, n, k, space=space, try_split_k=False,
                          analyzer=analyzer)

    result = AnalysisGateResult(
        space_size=len(space),
        checked=tuner.analysis_checked,
        rejected=tuner.analysis_rejected,
        baseline_schedule=baseline.best_schedule,
        screened_schedule=screened.best_schedule,
        baseline_latency=baseline.best_latency,
        screened_latency=screened.best_latency,
    )
    assert result.rejected == 1, result
    assert result.choice_unchanged, result
    return result


def format_analysis_gate(result: AnalysisGateResult) -> str:
    m, n, k = GATE_PROBLEM
    lines = [
        f'static-analysis tuner gate on matmul {m}x{n}x{k} '
        f'({result.space_size} candidates)',
        f'  screened:  {result.checked} candidates analyzed, '
        f'{result.rejected} statically rejected (planted race)',
        f'  baseline:  {result.baseline_schedule} '
        f'@ {result.baseline_latency * 1e6:.1f} us',
        f'  screened:  {result.screened_schedule} '
        f'@ {result.screened_latency * 1e6:.1f} us',
        f'  choice unchanged: {result.choice_unchanged}',
    ]
    return '\n'.join(lines)
