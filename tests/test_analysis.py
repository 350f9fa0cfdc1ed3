"""Static analyzer: bounds, coverage, races, and the compile/tuning gates."""
import gc
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (AnalysisError, AnalysisReport, ScheduleAnalyzer,
                            analyze_module, check_coverage)
from repro.analysis.fixtures import (build_duplicate_writer_kernel,
                                     build_hole_mapping_kernel,
                                     build_missing_barrier_kernel,
                                     build_oob_store_kernel,
                                     poisoned_matmul_builder,
                                     strip_loop_barrier)
from repro.core.tuning import MatmulTuner
from repro.ir.compute import compute, reduce, tensor_input
from repro.ir.intervals import Interval
from repro.ir.task import Task
from repro.ir.taskmap import (ComposedTaskMapping, CustomTaskMapping,
                              repeat, spatial)
from repro.sched.matmul_template import build_matmul_module
from repro.sched.reduce_template import build_reduce_module
from repro.sched.schedule import MatmulSchedule, ReduceSchedule
from repro.sched.space import matmul_schedule_space

SMALL = MatmulSchedule(block_warps=(1, 1), warp_outer=(1, 1), thread_layout=(4, 8),
                       thread_tile=(4, 4), block_k=8, double_buffer=False)
SMALL_DB = MatmulSchedule(block_warps=(1, 1), warp_outer=(1, 1), thread_layout=(4, 8),
                          thread_tile=(4, 4), block_k=8, double_buffer=True)


# -- interval domain ----------------------------------------------------------

class TestInterval:
    def test_arith(self):
        a, b = Interval(0, 3), Interval(2, 5)
        assert (a + b).lo == 2 and (a + b).hi == 8
        assert (a - b).lo == -5 and (a - b).hi == 1
        assert (a * b).lo == 0 and (a * b).hi == 15
        assert (-b).lo == -5 and (-b).hi == -2

    def test_floordiv_keeps_one_sided_bounds(self):
        assert (Interval(0, None) // Interval.point(4)).lo == 0
        v = Interval(0, 63) // Interval.point(8)
        assert v.lo == 0 and v.hi == 7

    def test_mod_python_semantics(self):
        v = Interval(-5, 100) % Interval.point(8)
        assert v.lo == 0 and v.hi == 7
        # identity when already within [0, m)
        v = Interval(2, 5) % Interval.point(8)
        assert v.lo == 2 and v.hi == 5

    def test_within_and_unknown(self):
        assert Interval(0, 7).within(0, 7)
        assert not Interval(0, 8).within(0, 7)
        assert not Interval.unknown().within(0, 7)


# -- task-mapping coverage ----------------------------------------------------

def _brute_force_exact(mapping):
    """Independent exact-once oracle: raw worker2task enumeration."""
    counts = Counter()
    for w in range(mapping.num_workers):
        for task in mapping.worker2task(w):
            t = tuple(int(x) for x in task)
            if any(not (0 <= x < e) for x, e in zip(t, mapping.task_shape)):
                return False
            counts[t] += 1
    return (len(counts) == mapping.num_tasks
            and all(c == 1 for c in counts.values()))


class TestCoverage:
    def test_builtin_mappings_analytic(self):
        for m in (spatial(4, 8), repeat(2, 3),
                  ComposedTaskMapping(spatial(2, 2), repeat(4, 1))):
            rep = check_coverage(m)
            assert rep.exact and rep.method == 'analytic'

    def test_exact_custom_enumerated(self):
        m = CustomTaskMapping(task_shape=[6], num_workers=6,
                              func=lambda w: [(5 - w,)], name='rev')
        rep = check_coverage(m)
        assert rep.exact and rep.method == 'enumerated'

    def test_holes_reported(self):
        rep = check_coverage(CustomTaskMapping(
            task_shape=[8], num_workers=4, func=lambda w: [(2 * w,)],
            name='evens'))
        assert not rep.exact
        assert rep.num_holes == 4 and (1,) in rep.holes
        assert 'uncovered' in rep.describe()

    def test_duplicates_reported(self):
        rep = check_coverage(CustomTaskMapping(
            task_shape=[4], num_workers=8, func=lambda w: [(w % 4,)],
            name='doubled'))
        assert not rep.exact
        assert rep.num_duplicates == 4
        assert 'duplicate' in rep.describe()

    def test_out_of_domain_reported(self):
        rep = check_coverage(CustomTaskMapping(
            task_shape=[4], num_workers=4, func=lambda w: [(w + 1,)],
            name='shifted'))
        assert not rep.exact and rep.out_of_domain

    def test_budget_exceeded_is_unproven(self):
        big = CustomTaskMapping(task_shape=[1 << 20], num_workers=1 << 20,
                                func=lambda w: [(w,)], name='big')
        rep = check_coverage(big, budget=1 << 10)
        assert not rep.proven and not rep.exact
        assert rep.method == 'budget-exceeded'


@st.composite
def _random_mappings(draw):
    """Custom mappings (optionally composed with exact builtins)."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    num_tasks = math.prod(shape)
    num_workers = draw(st.integers(1, 6))
    table = draw(st.lists(
        st.lists(st.integers(0, num_tasks - 1), max_size=4),
        min_size=num_workers, max_size=num_workers))

    def func(w, _table=table, _shape=shape):
        out = []
        for flat in _table[w]:
            task = []
            for extent in reversed(_shape):
                task.append(flat % extent)
                flat //= extent
            out.append(tuple(reversed(task)))
        return out

    custom = CustomTaskMapping(task_shape=shape, num_workers=num_workers,
                               func=func, name='rand')
    wrap = draw(st.sampled_from(['none', 'spatial-outer', 'repeat-outer']))
    if wrap == 'spatial-outer':
        return ComposedTaskMapping(spatial(*([2] * len(shape))), custom)
    if wrap == 'repeat-outer':
        return ComposedTaskMapping(repeat(*([2] * len(shape))), custom)
    return custom


class TestCoverageProperty:
    @settings(max_examples=60, deadline=None)
    @given(_random_mappings())
    def test_verdict_matches_brute_force(self, mapping):
        rep = check_coverage(mapping)
        assert rep.proven
        assert rep.exact == _brute_force_exact(mapping)


# -- seeded-bad fixtures: one detection per failure class ---------------------

def _errors(module, check=None):
    report = analyze_module(module)
    errs = report.errors
    if check is not None:
        errs = [f for f in errs if f.check == check]
    return errs


class TestFixtureDetection:
    def test_oob_store_names_buffer_and_range(self):
        errs = _errors(build_oob_store_kernel(), check='bounds')
        assert len(errs) == 1
        f = errs[0]
        assert f.buffer == 'smem'
        assert '[1, 64]' in f.message and '[0, 64)' in f.message

    def test_hole_mapping_flags_uncovered_tasks(self):
        errs = _errors(build_hole_mapping_kernel(), check='coverage')
        assert len(errs) == 1
        assert 'uncovered' in errs[0].message
        assert "'evens'" in errs[0].message or 'evens' in errs[0].message

    def test_duplicate_writer_flags_mapping_and_race(self):
        module = build_duplicate_writer_kernel()
        cov = _errors(module, check='coverage')
        assert len(cov) == 1 and 'duplicate' in cov[0].message
        races = _errors(module, check='race')
        assert races and races[0].buffer == 'smem'

    def test_missing_barrier_names_buffer_and_phase(self):
        errs = _errors(build_missing_barrier_kernel(), check='race')
        assert len(errs) == 1
        f = errs[0]
        assert f.buffer == 'smem' and 'phase 0' in f.message

    def test_synced_control_kernel_is_clean(self):
        report = analyze_module(build_missing_barrier_kernel(
            missing_barrier=False))
        assert report.ok, report.summary()

    def test_stripped_template_races_on_shared_buffers(self):
        racy = strip_loop_barrier(build_matmul_module(64, 64, 64, SMALL_DB))
        errs = _errors(racy, check='race')
        assert errs
        assert {f.buffer for f in errs} <= {'smem_a', 'smem_b'}

    def test_fixtures_exit_nonzero_via_cli(self):
        from repro.analysis.__main__ import main
        assert main(['--fixtures']) == 1
        assert main(['--templates', '1']) == 0


# -- no false positives on real schedules -------------------------------------

class TestCleanKernels:
    @pytest.mark.parametrize('m,n,k,sched,batch', [
        (64, 64, 64, SMALL, 1),
        (64, 64, 64, SMALL_DB, 1),
        (63, 63, 63, SMALL, 1),        # ragged: predicated loads survive
        (63, 65, 63, SMALL_DB, 1),
        (64, 64, 64, SMALL_DB, 3),     # batched
    ])
    def test_matmul_variants(self, m, n, k, sched, batch):
        report = analyze_module(build_matmul_module(m, n, k, sched, batch=batch))
        assert report.ok, report.summary()

    def test_split_k(self):
        sched = MatmulSchedule(block_warps=(1, 1), warp_outer=(1, 1),
                               thread_layout=(4, 8), thread_tile=(4, 4),
                               block_k=8, split_k=2)
        report = analyze_module(build_matmul_module(32, 32, 64, sched))
        assert report.ok, report.summary()

    def test_reduce_template(self):
        a = tensor_input('A', 'float32', [5, 33])
        task = Task('rsum', [a], compute('B', [5], lambda i: reduce(
            [33], lambda j: a[i, j], 'sum')))
        for block in (32, 128):
            module = build_reduce_module(task, ReduceSchedule(block_size=block))
            report = analyze_module(module)
            assert report.ok, report.summary()


class TestBoundsProperty:
    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(matmul_schedule_space()),
           st.sampled_from([(64, 64, 64), (96, 72, 136), (33, 65, 17)]))
    def test_no_false_positives_on_space(self, sched, size):
        m, n, k = size
        report = analyze_module(build_matmul_module(m, n, k, sched))
        assert report.ok, report.summary()


# -- tuner gate ---------------------------------------------------------------

def _small_space():
    return [s for s in matmul_schedule_space() if s.block_k == 8][:6]


class TestTunerGate:
    def test_poisoned_candidate_rejected_choice_unchanged(self):
        space = _small_space()
        baseline = MatmulTuner().tune(64, 64, 64, space=space,
                                      try_split_k=False)
        # poison a loser so the winner must be unaffected
        bad = next(s for s in space if s != baseline.best_schedule)
        analyzer = ScheduleAnalyzer(builder=poisoned_matmul_builder(bad))
        tuner = MatmulTuner()
        result = tuner.tune(64, 64, 64, space=space, try_split_k=False,
                            analyzer=analyzer)
        assert result.analysis_rejected == 1
        assert tuner.analysis_checked == len(space)
        assert tuner.analysis_rejected == 1
        assert result.best_schedule == baseline.best_schedule
        assert result.best_latency == baseline.best_latency

    def test_all_rejected_raises(self):
        class RejectAll:
            def reject(self, m, n, k, sched, batch=1):
                return 'statically unsafe (test stub)'

        with pytest.raises(RuntimeError, match='reject'):
            MatmulTuner().tune(64, 64, 64, space=_small_space(),
                               try_split_k=False, analyzer=RejectAll())

    def test_collected_analyzer_result_not_reused(self):
        # a new analyzer at a collected one's address gets its own screen
        class Screen:
            def __init__(self, rejected):
                self.rejected = rejected

            def reject(self, m, n, k, sched, batch=1):
                return 'unsafe (test stub)' if sched in self.rejected else None

        space = _small_space()
        tuner = MatmulTuner()
        first = Screen(set(space[::2]))
        stale = id(first)
        assert tuner.tune(64, 64, 64, space=space, try_split_k=False,
                          analyzer=first).analysis_rejected == 3
        del first
        gc.collect()
        fresh = [Screen(set())]
        while id(fresh[-1]) != stale and len(fresh) < 1000:
            fresh.append(Screen(set()))
        result = tuner.tune(64, 64, 64, space=space, try_split_k=False,
                            analyzer=fresh[-1])
        assert result.analysis_rejected == 0
        assert result.tuning_seconds > 0

    def test_schedule_analyzer_caches_verdicts(self):
        analyzer = ScheduleAnalyzer()
        assert analyzer.reject(64, 64, 64, SMALL_DB) is None
        assert analyzer.reject(64, 64, 64, SMALL_DB) is None  # cached path
        bad = ScheduleAnalyzer(builder=poisoned_matmul_builder(SMALL_DB))
        msg = bad.reject(64, 64, 64, SMALL_DB)
        assert msg is not None and 'race' in msg


# -- executor gate ------------------------------------------------------------

class TestExecutorGate:
    def _graph(self):
        from repro.graph import ops, randn, symbol, trace
        x = symbol([64, 64], name='x')
        w = randn([64, 64], seed=0, name='w')
        return trace(ops.matmul(x, w))

    def _poison(self, monkeypatch):
        from repro.sched import matmul_template
        original = matmul_template.build_matmul_module

        def poisoned(m, n, k, sched, name='matmul', batch=1):
            return strip_loop_barrier(
                original(m, n, k, sched, name=name, batch=batch))

        monkeypatch.setattr(matmul_template, 'build_matmul_module', poisoned)

    def test_healthy_compile_passes_gate(self):
        from repro.runtime import HidetExecutor
        executor = HidetExecutor(build_ir=True, space=[SMALL_DB],
                                 try_split_k=False)
        assert executor.check_ir
        compiled = executor.compile(self._graph())
        assert any(op.module is not None for op in compiled.ops)

    def test_poisoned_build_raises_analysis_error(self, monkeypatch):
        from repro.runtime import HidetExecutor
        self._poison(monkeypatch)
        executor = HidetExecutor(build_ir=True, space=[SMALL_DB],
                                 try_split_k=False)
        with pytest.raises(AnalysisError) as exc:
            executor.compile(self._graph())
        assert exc.value.report.errors

    def test_check_ir_false_escape_hatch(self, monkeypatch):
        from repro.runtime import HidetExecutor
        self._poison(monkeypatch)
        executor = HidetExecutor(build_ir=True, space=[SMALL_DB],
                                 try_split_k=False, check_ir=False)
        compiled = executor.compile(self._graph())
        assert any(op.module is not None for op in compiled.ops)


# -- report plumbing ----------------------------------------------------------

class TestReport:
    def test_summary_counts(self):
        report = analyze_module(build_oob_store_kernel())
        counts = report.counts()
        assert counts['bounds'] == 1
        assert 'oob_store' in report.kernels
        text = report.summary()
        assert 'bounds' in text and 'smem' in text

    def test_merged_reports_keep_all_kernels(self):
        merged = AnalysisReport()
        merged.extend(analyze_module(build_oob_store_kernel()))
        merged.extend(analyze_module(build_missing_barrier_kernel()))
        assert len(merged.kernels) == 2
        assert len(merged.errors) == 2
        assert not merged.ok
