"""CUDA C code generation: structure of the emitted kernels."""
import numpy as np
import pytest

from repro.backend.codegen import generate_cuda, generate_cuda_module
from repro.ir import FunctionBuilder, f32, if_then_else, thread_idx
from repro.ir.primitives import atomic_add
from repro.sched.matmul_template import build_matmul_module
from repro.sched.schedule import MatmulSchedule

SMALL = MatmulSchedule(block_warps=(1, 1), warp_outer=(1, 1), thread_layout=(4, 8),
                       thread_tile=(4, 4), block_k=8, double_buffer=False)
SMALL_DB = MatmulSchedule(block_warps=(1, 1), warp_outer=(1, 1), thread_layout=(4, 8),
                          thread_tile=(4, 4), block_k=8, double_buffer=True)


class TestBasicEmission:
    def test_signature_and_launch_comment(self):
        fb = FunctionBuilder('my_kernel', grid_dim=(4, 2), block_dim=128)
        a = fb.tensor_param('A', f32, [8])
        fb.store(a, [0], 1.0)
        src = generate_cuda(fb.finish())
        assert '__global__ void my_kernel(float* __restrict__ A)' in src
        assert 'grid dim: (4, 2, 1), block dim: (128, 1, 1)' in src

    def test_global_tensors_linearized(self):
        fb = FunctionBuilder('k', block_dim=1)
        a = fb.tensor_param('A', f32, [4, 8])
        fb.store(a, [2, 3], 0.0)
        src = generate_cuda(fb.finish())
        assert 'A[2 * 8 + 3] = 0.0f;' in src

    def test_shared_memory_declaration(self):
        fb = FunctionBuilder('k', block_dim=32)
        a = fb.tensor_param('A', f32, [32])
        smem = fb.shared_tensor('buf', f32, [2, 32])
        fb.store(smem, [0, thread_idx()], a[thread_idx()])
        src = generate_cuda(fb.finish())
        assert '__shared__ float buf[2][32];' in src
        assert 'buf[0][threadIdx.x]' in src

    def test_unroll_pragma(self):
        fb = FunctionBuilder('k', block_dim=1)
        a = fb.tensor_param('A', f32, [4])
        with fb.for_range(4, name='i', unroll=True) as i:
            fb.store(a, [i], 0.0)
        assert '#pragma unroll' in generate_cuda(fb.finish())

    def test_predicated_select_and_atomic(self):
        fb = FunctionBuilder('k', block_dim=8)
        a = fb.tensor_param('A', f32, [5])
        acc = fb.tensor_param('acc', f32, [1])
        t = thread_idx()
        fb.evaluate(atomic_add(acc, [0], if_then_else(t < 5, a[t], 0.0)))
        src = generate_cuda(fb.finish())
        assert 'atomicAdd(&acc[0]' in src
        assert 'threadIdx.x < 5 ?' in src

    def test_math_intrinsics(self):
        from repro.ir import UnaryExpr
        fb = FunctionBuilder('k', block_dim=1)
        a = fb.tensor_param('A', f32, [1])
        fb.store(a, [0], UnaryExpr('erf', UnaryExpr('exp', a[0])))
        src = generate_cuda(fb.finish())
        assert 'erff(expf(A[0]))' in src


class TestMatmulKernels:
    def test_single_buffer_structure(self):
        src = generate_cuda_module(build_matmul_module(64, 64, 64, SMALL))
        # one smem stage per operand, two syncs per K tile (Figure 3)
        assert '__shared__ float smem_a[1][16][8];' in src
        assert src.count('__syncthreads()') == 2

    def test_double_buffer_structure(self):
        """Figure 5: two buffers, one sync per steady-state iteration."""
        src = generate_cuda_module(build_matmul_module(64, 64, 64, SMALL_DB))
        assert '__shared__ float smem_a[2][16][8];' in src
        assert '__shared__ float smem_b[2][8][32];' in src
        # prologue sync + one sync inside the pipeline loop
        assert src.count('__syncthreads()') == 2
        assert 'regs_ld_a' in src and 'regs_ld_b' in src

    def test_predicates_dropped_for_divisible_shapes(self):
        """Hardware-centric predication folds away when extents divide (§4.3)."""
        exact = generate_cuda_module(build_matmul_module(64, 64, 64, SMALL))
        ragged = generate_cuda_module(build_matmul_module(63, 63, 63, SMALL))
        assert exact.count('?') == 0          # no selects left
        assert ragged.count('?') > 0          # predicated loads survive
        assert 'if (' not in exact
        assert 'if (' in ragged

    def test_split_k_emits_two_kernels(self):
        sched = MatmulSchedule(block_warps=(1, 1), warp_outer=(1, 1),
                               thread_layout=(4, 8), thread_tile=(4, 4),
                               block_k=8, split_k=2)
        src = generate_cuda_module(build_matmul_module(32, 32, 64, sched))
        assert src.count('__global__ void') == 2
        assert 'splitk_reduce' in src

    def test_for_task_must_be_lowered_first(self):
        from repro.backend.codegen import CudaCodegen
        from repro.ir.taskmap import spatial
        fb = FunctionBuilder('k', block_dim=4)
        a = fb.tensor_param('A', f32, [4])
        with fb.for_task(spatial(4), worker=thread_idx()) as i:
            fb.store(a, [i], 0.0)
        gen = CudaCodegen()
        with pytest.raises(NotImplementedError):
            gen.func(fb.finish())


class TestExpressionPrecedence:
    """The emitted C must evaluate exactly like the IR tree it came from.

    Random trees over +, -, *, //, % and unary minus are printed and then
    re-evaluated as Python (C's ``/`` on nonnegative ints is Python's
    ``//``); any parenthesization bug in ``BINARY_PRECEDENCE`` changes the value.
    Valuations are filtered so every division/modulo sees a nonnegative
    dividend and positive divisor — where C and Python semantics agree.
    """

    def _random_tree(self, rng, env, depth):
        import repro.ir.expr as ir
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.5 and env:
                name = rng.choice(sorted(env))
                return ir.Var(name, ir.i32), env[name]
            value = int(rng.integers(0, 9))
            return ir.Constant(value, ir.i32), value
        op = rng.choice(['+', '-', '*', '//', '%', 'neg'])
        if op == 'neg':
            a, va = self._random_tree(rng, env, depth - 1)
            return ir.UnaryExpr('-', a), -va
        a, va = self._random_tree(rng, env, depth - 1)
        b, vb = self._random_tree(rng, env, depth - 1)
        if op in ('//', '%') and (va < 0 or vb <= 0):
            raise ValueError('C/Python division semantics diverge')
        ops = {'+': lambda: va + vb, '-': lambda: va - vb, '*': lambda: va * vb,
               '//': lambda: va // vb, '%': lambda: va % vb}
        value = ops[op]()
        return ir.BinaryExpr(op, a, b), value

    def test_roundtrip_random_trees(self):
        from repro.backend.codegen import CudaCodegen
        rng = np.random.default_rng(20260808)
        env = {'x': 3, 'y': 7, 'z': 2}
        gen = CudaCodegen()
        checked = 0
        while checked < 300:
            try:
                tree, expected = self._random_tree(rng, env, depth=4)
            except ValueError:
                continue
            text = gen.expr(tree)
            # C's '/' truncates but every division here is nonnegative, so
            # Python's floor division computes the same value
            got = eval(text.replace('/', '//'), dict(env))
            assert got == expected, (
                f'{text!r} printed from the IR evaluates to {got}, '
                f'expected {expected}')
            checked += 1

    def test_double_unary_minus_is_not_predecrement(self):
        import repro.ir.expr as ir
        from repro.backend.codegen import CudaCodegen
        gen = CudaCodegen()
        x = ir.Var('x', ir.i32)
        assert '--' not in gen.expr(ir.UnaryExpr('-', ir.UnaryExpr('-', x)))
        assert '--' not in gen.expr(ir.UnaryExpr('-', ir.Constant(-5, ir.i32)))
        assert eval(gen.expr(ir.UnaryExpr('-', ir.Constant(-5, ir.i32)))) == 5

    def test_mod_of_product_keeps_parens(self):
        """a % (b * c) must not print as a % b * c (which is (a%b)*c)."""
        import repro.ir.expr as ir
        from repro.backend.codegen import CudaCodegen
        gen = CudaCodegen()
        a, b, c = (ir.Var(n, ir.i32) for n in 'abc')
        text = gen.expr(ir.BinaryExpr('%', a, ir.BinaryExpr('*', b, c)))
        assert eval(text.replace('/', '//'), {'a': 7, 'b': 2, 'c': 3}) == 7 % 6
