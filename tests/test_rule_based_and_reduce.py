"""Rule-based scheduling and the reduction template (paper §5.1.3, §6.1)."""
import numpy as np
import pytest

from repro.backend.interpreter import run_kernel
from repro.graph import symbol
from repro.ir import max_expr
from repro.ir.compute import compute, reduce, tensor_input
from repro.ir.task import Task
from repro.models import bert_base, mobilenet_v2
from repro.runtime import HidetExecutor, ScheduleCache
from repro.sched.lower_compute import ComputeLoweringError
from repro.sched.reduce_template import (build_reduce_module, is_last_axis_reduction,
                                         reduce_stats)
from repro.sched.rule_based import build_rule_based_module, rule_based_stats
from repro.sched.schedule import ReduceSchedule


def _run_task(module, arrays):
    run_kernel(module[0], arrays)


class TestRuleBasedInjective:
    def test_elementwise(self):
        a = tensor_input('A', 'float32', [7, 9])
        task = Task('t', [a], compute('B', [7, 9], lambda i, j: a[i, j] * 2.0 + 1.0))
        module = build_rule_based_module(task)
        a_np = np.random.default_rng(0).standard_normal((7, 9)).astype(np.float32)
        b_np = np.full((7, 9), np.nan, dtype=np.float32)
        _run_task(module, [a_np, b_np])
        np.testing.assert_allclose(b_np, a_np * 2 + 1, rtol=1e-6)

    def test_transform_with_gather(self):
        a = tensor_input('A', 'float32', [10])
        task = Task('rev', [a], compute('B', [10], lambda i: a[9 - i]))
        module = build_rule_based_module(task)
        a_np = np.arange(10, dtype=np.float32)
        b_np = np.full(10, np.nan, dtype=np.float32)
        _run_task(module, [a_np, b_np])
        np.testing.assert_allclose(b_np, a_np[::-1])

    def test_tail_block_predicated(self):
        """Output size not divisible by the block: the guard must hold."""
        n = 300   # 256-thread blocks -> 2 blocks, 212-thread tail
        a = tensor_input('A', 'float32', [n])
        task = Task('t', [a], compute('B', [n], lambda i: a[i] + 1.0))
        module = build_rule_based_module(task)
        assert module[0].num_blocks == 2
        a_np = np.zeros(n, dtype=np.float32)
        b_np = np.full(n, np.nan, dtype=np.float32)
        _run_task(module, [a_np, b_np])
        assert np.all(b_np == 1.0)


class TestRuleBasedReduce:
    def test_serial_sum(self):
        a = tensor_input('A', 'float32', [5, 33])
        task = Task('sum', [a],
                    compute('B', [5], lambda i: reduce([33], lambda k: a[i, k])))
        module = build_rule_based_module(task)
        a_np = np.random.default_rng(1).standard_normal((5, 33)).astype(np.float32)
        b_np = np.full(5, np.nan, dtype=np.float32)
        _run_task(module, [a_np, b_np])
        np.testing.assert_allclose(b_np, a_np.sum(axis=1), rtol=1e-4, atol=1e-5)

    def test_multi_axis_avg(self):
        a = tensor_input('A', 'float32', [3, 4, 5])
        task = Task('avg', [a], compute('B', [3], lambda i: reduce(
            [4, 5], lambda p, q: a[i, p, q], op='avg')))
        module = build_rule_based_module(task)
        a_np = np.random.default_rng(2).standard_normal((3, 4, 5)).astype(np.float32)
        b_np = np.full(3, np.nan, dtype=np.float32)
        _run_task(module, [a_np, b_np])
        np.testing.assert_allclose(b_np, a_np.mean(axis=(1, 2)), rtol=1e-4, atol=1e-5)

    def test_nested_reduce_rejected(self):
        a = tensor_input('A', 'float32', [4, 4])
        inner = reduce([4], lambda k: a[0, k])
        task = Task('bad', [a], compute('B', [1], lambda i: reduce(
            [4], lambda k: inner)))
        with pytest.raises(ComputeLoweringError, match='nested'):
            build_rule_based_module(task)

    def test_stats_memory_bound(self):
        a = tensor_input('A', 'float32', [128, 64])
        task = Task('sum', [a],
                    compute('B', [128], lambda i: reduce([64], lambda k: a[i, k])))
        stats = rule_based_stats(task, [symbol([128, 64])], symbol([128]))
        assert stats.is_memory_bound_hint
        assert stats.gmem_read_bytes == 128 * 64 * 4
        assert stats.gmem_write_bytes == 128 * 4

    @pytest.mark.parametrize('build', [
        # depthwise convs: window re-reads at a reduced coalesce factor
        lambda: mobilenet_v2(image_size=32),
        # embedding gathers: reads capped at the touched rows
        lambda: bert_base(seq_length=8, hidden=16, layers=1, heads=2,
                          vocab_size=50),
    ], ids=['mobilenet_v2', 'bert'])
    def test_compiler_models_rule_based_kernels_with_this_formula(self, build):
        compiled = HidetExecutor(cache=ScheduleCache()).compile(build())
        rule_based = [op for op in compiled.ops if op.kind == 'rule_based']
        assert rule_based
        for op in rule_based:
            group = op.group
            assert op.stats == [rule_based_stats(
                group.anchor.task, group.input_tensors(), group.output,
                name=group.name)], op.name


class TestReduceTemplate:
    def _sum_task(self, rows, cols, op='sum'):
        a = tensor_input('A', 'float32', [rows, cols])
        return Task('r', [a], compute('B', [rows], lambda i: reduce(
            [cols], lambda k: a[i, k], op=op)))

    @pytest.mark.parametrize('op,ref', [('sum', np.sum), ('max', np.max),
                                        ('avg', np.mean)])
    def test_block_reduce_ops(self, op, ref):
        rows, cols = 6, 200
        task = self._sum_task(rows, cols, op)
        module = build_reduce_module(task, ReduceSchedule(block_size=64))
        a_np = np.random.default_rng(3).standard_normal((rows, cols)).astype(np.float32)
        b_np = np.full(rows, np.nan, dtype=np.float32)
        _run_task(module, [a_np, b_np])
        np.testing.assert_allclose(b_np, ref(a_np, axis=1), rtol=1e-4, atol=1e-5)

    def test_cols_not_multiple_of_block(self):
        task = self._sum_task(4, 137)
        module = build_reduce_module(task, ReduceSchedule(block_size=64,
                                                          items_per_thread=4))
        a_np = np.ones((4, 137), dtype=np.float32)
        b_np = np.full(4, np.nan, dtype=np.float32)
        _run_task(module, [a_np, b_np])
        np.testing.assert_allclose(b_np, 137.0)

    def test_template_compatibility_check(self):
        assert is_last_axis_reduction(self._sum_task(4, 64))
        a = tensor_input('A', 'float32', [8])
        elementwise = Task('e', [a], compute('B', [8], lambda i: a[i]))
        assert not is_last_axis_reduction(elementwise)
        with pytest.raises(ComputeLoweringError):
            build_reduce_module(elementwise, ReduceSchedule())

    def test_reduce_schedule_validity(self):
        assert ReduceSchedule(block_size=256).is_valid()
        assert not ReduceSchedule(block_size=96).is_valid()     # not a power of two
        assert not ReduceSchedule(block_size=16).is_valid()     # below a warp

    def test_stats_shape(self):
        task = self._sum_task(32, 512)
        (stats,) = reduce_stats(task, ReduceSchedule(block_size=128))
        assert stats.grid_blocks == 32
        assert stats.threads_per_block == 128
        assert stats.is_memory_bound_hint
