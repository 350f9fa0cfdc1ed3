"""IR passes: task-mapping lowering, simplification, verification."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import (BarrierStmt, BufferStoreStmt, Constant, FunctionBuilder,
                      IfStmt, SeqStmt, f32, tensor_var, thread_idx, var)
from repro.ir.functor import collect
from repro.ir.passes import (IRVerificationError, lower_task_mappings, simplify,
                             verify_function)
from repro.ir.passes.simplify import Simplifier, const_int
from repro.ir.stmt import AssignStmt, DeclareStmt, ForStmt, ForTaskStmt
from repro.ir.taskmap import repeat, spatial


def _lowered_store_tasks(mapping, workers):
    """Execute the lowered ForTask for each worker and collect stored indices."""
    from repro.backend.interpreter import KernelInterpreter
    import numpy as np
    dims = len(mapping.task_shape)
    fb = FunctionBuilder('probe', grid_dim=1, block_dim=workers)
    out = fb.tensor_param('out', 'int32', list(mapping.task_shape))
    with fb.for_task(mapping, worker=thread_idx()) as idx:
        idx = idx if isinstance(idx, tuple) else (idx,)
        fb.store(out, list(idx), thread_idx())
    func = fb.finish()
    arr = np.full(mapping.task_shape, -1, dtype=np.int32)
    KernelInterpreter(func).run([arr])
    return arr


class TestLowering:
    def test_lowered_matches_worker2task(self):
        tm = repeat(4, 1) * spatial(16, 8)
        arr = _lowered_store_tasks(tm, tm.num_workers)
        for w in range(tm.num_workers):
            for (i, k) in tm(w):
                assert arr[i, k] == w

    @given(st.sampled_from([
        spatial(8), repeat(3) * spatial(4), spatial(2, 2) * repeat(2, 2),
        repeat(2, 1) * spatial(4, 8), spatial(4, 8, ranks=[1, 0]),
    ]))
    @settings(max_examples=10, deadline=None)
    def test_lowering_assignment_property(self, tm):
        arr = _lowered_store_tasks(tm, tm.num_workers)
        for w in range(tm.num_workers):
            for task in tm(w):
                assert arr[tuple(task)] == w

    def test_large_repeat_becomes_loop_not_unrolled_copies(self):
        tm = repeat(32) * spatial(4)
        fb = FunctionBuilder('k', block_dim=4)
        out = fb.tensor_param('out', f32, [128])
        with fb.for_task(tm, worker=thread_idx()) as i:
            fb.store(out, [i], 1.0)
        lowered = lower_task_mappings(fb.finish())
        loops = collect(lowered.body, ForStmt)
        assert len(loops) == 1 and const_int(loops[0].extent) == 32
        stores = collect(lowered.body, BufferStoreStmt)
        assert len(stores) == 1   # one body instance, not 32 copies

    def test_lowering_leaves_no_for_task(self):
        fb = FunctionBuilder('k', block_dim=8)
        out = fb.tensor_param('out', f32, [8])
        with fb.for_task(spatial(8), worker=thread_idx()) as i:
            fb.store(out, [i], 0.0)
        lowered = lower_task_mappings(fb.finish())
        assert not collect(lowered.body, ForTaskStmt)
        verify_function(lowered, lowered=True)


class TestSimplify:
    def test_constant_folding(self):
        x = var('x')
        assert repr(simplify((x + 0) * 1 + 2 * 3)) == 'x + 6'
        assert const_int(simplify(Constant(7, 'int32') % 4)) == 3

    def test_zero_mul_and_div(self):
        x = var('x')
        assert const_int(simplify(x * 0)) == 0
        assert repr(simplify(x // 1)) == 'x'
        assert const_int(simplify(x % 1)) == 0

    def test_boolean_short_circuit(self):
        x = var('x')
        t = Constant(True, 'bool')
        f = Constant(False, 'bool')
        from repro.ir import BinaryExpr
        assert repr(simplify(BinaryExpr('&&', t, x < 1))) == 'x < 1'
        assert simplify(BinaryExpr('&&', f, x < 1)).value is False
        assert simplify(BinaryExpr('||', t, x < 1)).value is True

    def test_range_based_modulo_elimination(self):
        """threadIdx.x % 8 folds when block_dim proves the range."""
        fb = FunctionBuilder('k', block_dim=8)
        out = fb.tensor_param('out', f32, [8])
        fb.store(out, [thread_idx() % 8], 1.0)
        fb.store(out, [thread_idx() // 8], 2.0)   # provably 0
        func = simplify(fb.finish())
        stores = collect(func.body, BufferStoreStmt)
        assert repr(stores[0].indices[0]) == 'threadIdx.x'
        assert const_int(stores[1].indices[0]) == 0

    def test_loop_with_extent_one_inlined(self):
        fb = FunctionBuilder('k')
        out = fb.tensor_param('out', f32, [4])
        with fb.for_range(1, name='i') as i:
            fb.store(out, [i], 1.0)
        func = simplify(fb.finish())
        assert not collect(func.body, ForStmt)

    def test_if_with_constant_condition(self):
        fb = FunctionBuilder('k')
        out = fb.tensor_param('out', f32, [4])
        with fb.if_then(Constant(True, 'bool')):
            fb.store(out, [0], 1.0)
        func = simplify(fb.finish())
        assert not collect(func.body, IfStmt)

    def test_provable_bound_predicate_dropped(self):
        """The hardware-centric predicate folds away on divisible shapes."""
        fb = FunctionBuilder('k', grid_dim=4, block_dim=32)
        from repro.ir import block_idx
        out = fb.tensor_param('out', f32, [128])
        gi = block_idx() * 32 + thread_idx()
        with fb.if_then(gi < 128):
            fb.store(out, [gi], 1.0)
        func = simplify(fb.finish())
        assert not collect(func.body, IfStmt)

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(1, 7))
    @settings(max_examples=50, deadline=None)
    def test_simplify_preserves_value(self, a, b, m):
        """Random integer expressions evaluate identically after simplify."""
        x = var('x')
        expr = ((x + a) * b) % m + (x * 0) + (x + a) // m
        simplified = simplify(expr)
        from repro.backend.interpreter import KernelInterpreter
        interp = KernelInterpreter.__new__(KernelInterpreter)
        for xv in range(0, 10):
            env = {x._id: xv}
            ctx = _ctx(env)
            assert interp.compile_expr(expr)(ctx) == interp.compile_expr(simplified)(ctx)


def _ctx(env):
    from repro.backend.interpreter import _Ctx
    return _Ctx(env, {}, (0, 0, 0), (0, 0, 0))


class TestVerifier:
    def _func_with_body(self, body, params):
        from repro.ir import Function
        return Function('k', params, body, 1, 32)

    def test_undeclared_variable(self):
        out = tensor_var('out', f32, [4])
        ghost = var('ghost')
        func = self._func_with_body(BufferStoreStmt(out, [ghost], Constant(0.0, f32)), [out])
        with pytest.raises(IRVerificationError, match='before declaration'):
            verify_function(func)

    def test_rank_mismatch(self):
        out = tensor_var('out', f32, [4, 4])
        func = self._func_with_body(BufferStoreStmt(out, [var('i')], Constant(0.0, f32)), [out])
        with pytest.raises(IRVerificationError):
            verify_function(func)

    def test_double_declaration(self):
        v = var('x')
        body = SeqStmt([DeclareStmt(v, Constant(0, 'int32')),
                        DeclareStmt(v, Constant(1, 'int32'))])
        with pytest.raises(IRVerificationError, match='declared twice'):
            verify_function(self._func_with_body(body, []))

    def test_barrier_in_divergent_branch(self):
        out = tensor_var('out', f32, [4])
        body = IfStmt(thread_idx() < 2, BarrierStmt())
        with pytest.raises(IRVerificationError, match='deadlock'):
            verify_function(self._func_with_body(body, [out]))

    def test_barrier_in_uniform_branch_ok(self):
        from repro.ir import block_idx
        out = tensor_var('out', f32, [4])
        body = IfStmt(block_idx() < 2, BarrierStmt())
        verify_function(self._func_with_body(body, [out]))

    def test_assign_to_tensor_rejected(self):
        out = tensor_var('out', f32, [4])
        body = AssignStmt(out, Constant(0.0, f32))
        with pytest.raises(IRVerificationError):
            verify_function(self._func_with_body(body, [out]))

    def test_for_task_rejected_when_lowered(self):
        fb = FunctionBuilder('k', block_dim=8)
        out = fb.tensor_param('out', f32, [8])
        with fb.for_task(spatial(8), worker=thread_idx()) as i:
            fb.store(out, [i], 0.0)
        func = fb.finish()
        with pytest.raises(IRVerificationError):
            verify_function(func, lowered=True)
        verify_function(func, lowered=False)
