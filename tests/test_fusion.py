"""Post-scheduling fusion (paper §4.2/§5.2, Figure 15)."""
import numpy as np
import pytest

from repro.backend.interpreter import run_kernel
from repro.ir.compute import compute, reduce, tensor_input
from repro.ir.task import InverseMap, Task, identity_inverse_map
from repro.sched.fusion import (EpilogueStep, FusedTaskSpec, FusionError,
                                apply_fusion)
from repro.sched.matmul_template import build_matmul_module, matmul_task
from repro.sched.rule_based import build_rule_based_module
from repro.sched.schedule import MatmulSchedule

SMALL_DB = MatmulSchedule(block_warps=(1, 1), warp_outer=(1, 1), thread_layout=(4, 8),
                          thread_tile=(4, 4), block_k=8, double_buffer=True)


def _figure15_spec():
    """Mul(2.0) -> Reverse(anchor) -> Mul(3.0) -> Reshape(2, 50)."""
    n = 100
    a = tensor_input('A', 'float32', [n])
    anchor_out = compute('B', [n], lambda i: a[n - 1 - i])
    anchor = Task('reverse', [a], anchor_out)

    c = tensor_input('C', 'float32', [n])
    prologue = compute('A', [n], lambda i: c[i] * 2.0)

    b_in = tensor_input('B', 'float32', [n])
    mul3 = Task('mul3', [b_in], compute('E', [n], lambda i: b_in[i] * 3.0),
                inverse_maps={b_in: identity_inverse_map(1)})
    e_in = tensor_input('E', 'float32', [n])
    resh = Task('reshape', [e_in],
                compute('D', [2, 50], lambda i, j: e_in[i * 50 + j]),
                inverse_maps={e_in: InverseMap.from_lambda(
                    lambda x: [x // 50, x % 50], 1)})
    spec = FusedTaskSpec(anchor=anchor, prologue_defs={a: prologue},
                         epilogue_steps=[EpilogueStep(mul3, b_in),
                                         EpilogueStep(resh, e_in)])
    return anchor, spec, c


class TestFigure15:
    def test_fused_kernel_matches_reference(self):
        anchor, spec, _ = _figure15_spec()
        module = build_rule_based_module(anchor)
        result = apply_fusion(module, spec,
                              {anchor.inputs[0]: module[0].params[0]},
                              module[0].params[1])
        c = np.arange(100, dtype=np.float32)
        d = np.full((2, 50), np.nan, dtype=np.float32)
        run_kernel(result.module[0], [c, d])
        np.testing.assert_allclose(d, ((c * 2.0)[::-1] * 3.0).reshape(2, 50))

    def test_fused_params_are_outer_tensors(self):
        anchor, spec, c = _figure15_spec()
        module = build_rule_based_module(anchor)
        result = apply_fusion(module, spec,
                              {anchor.inputs[0]: module[0].params[0]},
                              module[0].params[1])
        names = [p.name for p in result.module[0].params]
        assert names == ['C', 'D']

    def test_generated_cuda_matches_paper_shape(self):
        """The emitted kernel computes D[i/50, i%50] = C[99-i]*2*3 (Fig. 15)."""
        from repro.backend.codegen import generate_cuda
        anchor, spec, _ = _figure15_spec()
        module = build_rule_based_module(anchor)
        result = apply_fusion(module, spec,
                              {anchor.inputs[0]: module[0].params[0]},
                              module[0].params[1])
        src = generate_cuda(result.module[0])
        assert 'C[99 - ' in src
        assert '* 2.0f * 3.0f' in src


class TestSpecValidation:
    def test_prologue_must_be_injective(self):
        a = tensor_input('A', 'float32', [4])
        anchor = Task('id', [a], compute('B', [4], lambda i: a[i]))
        x = tensor_input('X', 'float32', [4, 8])
        reducing = compute('A', [4], lambda i: reduce([8], lambda k: x[i, k]))
        with pytest.raises(FusionError, match='injective'):
            FusedTaskSpec(anchor=anchor, prologue_defs={a: reducing})

    def test_prologue_shape_must_match(self):
        a = tensor_input('A', 'float32', [4])
        anchor = Task('id', [a], compute('B', [4], lambda i: a[i]))
        c = tensor_input('C', 'float32', [8])
        wrong = compute('A', [8], lambda i: c[i])
        with pytest.raises(FusionError, match='shape'):
            FusedTaskSpec(anchor=anchor, prologue_defs={a: wrong})

    def test_epilogue_needs_inverse_map_on_chain_edge(self):
        b = tensor_input('B', 'float32', [4])
        task = Task('noinv', [b], compute('E', [4], lambda i: b[i] + 1.0))
        with pytest.raises(FusionError, match='bijective'):
            EpilogueStep(task, b)

    def test_epilogue_side_inputs_need_no_inverse_map(self):
        b = tensor_input('B', 'float32', [4])
        bias = tensor_input('bias', 'float32', [4])
        task = Task('addb', [b, bias],
                    compute('E', [4], lambda i: b[i] + bias[i]),
                    inverse_maps={b: identity_inverse_map(1)})
        EpilogueStep(task, b)   # must not raise

    def test_chain_input_must_belong_to_task(self):
        b = tensor_input('B', 'float32', [4])
        other = tensor_input('O', 'float32', [4])
        task = Task('t', [b], compute('E', [4], lambda i: b[i]),
                    inverse_maps={b: identity_inverse_map(1)})
        with pytest.raises(FusionError):
            EpilogueStep(task, other)


class TestMatmulFusion:
    def _fuse_bias_relu(self, m, n, k, sched):
        """matmul -> +bias (broadcast) -> relu, fused into the template."""
        anchor = matmul_task(m, n, k)
        module = build_matmul_module(m, n, k, sched)
        c_in = tensor_input('Cin', 'float32', [m, n])
        bias = tensor_input('bias', 'float32', [n])
        add = Task('bias_add', [c_in, bias],
                   compute('D', [m, n], lambda i, j: c_in[i, j] + bias[j]),
                   inverse_maps={c_in: identity_inverse_map(2)})
        d_in = tensor_input('D', 'float32', [m, n])
        from repro.ir import max_expr
        relu = Task('relu', [d_in],
                    compute('E', [m, n], lambda i, j: max_expr(d_in[i, j], 0.0)),
                    inverse_maps={d_in: identity_inverse_map(2)})
        spec = FusedTaskSpec(anchor=anchor,
                             epilogue_steps=[EpilogueStep(add, c_in),
                                             EpilogueStep(relu, d_in)])
        params = module[0].params
        anchor_inputs = {anchor.inputs[0]: params[0], anchor.inputs[1]: params[1]}
        out_param = module[1].params[1] if sched.split_k > 1 else params[2]
        return apply_fusion(module, spec, anchor_inputs, out_param)

    @pytest.mark.parametrize('split_k', [1, 2])
    def test_bias_relu_epilogue_on_template(self, split_k):
        m, n, k = 17, 33, 24
        sched = MatmulSchedule(block_warps=(1, 1), warp_outer=(1, 1),
                               thread_layout=(4, 8), thread_tile=(4, 4),
                               block_k=8, double_buffer=True, split_k=split_k)
        result = self._fuse_bias_relu(m, n, k, sched)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((m, k), dtype=np.float32)
        b = rng.standard_normal((k, n), dtype=np.float32)
        bias = rng.standard_normal((n,), dtype=np.float32)
        e = np.full((m, n), np.nan, dtype=np.float32)
        if split_k == 1:
            run_kernel(result.module[0], [a, b, bias, e])
        else:
            partial = np.full((split_k, m, n), np.nan, dtype=np.float32)
            run_kernel(result.module[0], [a, b, partial])
            run_kernel(result.module[1], [partial, bias, e])
        np.testing.assert_allclose(e, np.maximum(a @ b + bias, 0.0),
                                   atol=1e-3, rtol=1e-4)

    def test_img2col_prologue_is_implicit_gemm(self):
        """Conv as matmul with the img2col gather fused into the loads (§5.2)."""
        from repro.graph import ops, randn, symbol, trace
        from repro.runtime import HidetExecutor
        x = symbol([1, 3, 6, 6], name='x')
        w = randn([4, 3, 3, 3], seed=1, name='w')
        g = trace(ops.conv2d(x, w, stride=1, padding=1))
        executor = HidetExecutor(build_ir=True)
        compiled = executor.compile(g)
        matmul_ops = [op for op in compiled.ops if op.kind == 'matmul_template']
        assert len(matmul_ops) == 1
        module = matmul_ops[0].module
        # the fused kernel reads the image directly: its params are x and the
        # reshaped weight, not an img2col matrix
        param_shapes = [p.type.shape for p in module[0].params
                        if hasattr(p.type, 'shape')]
        assert (1, 3, 6, 6) in param_shapes
