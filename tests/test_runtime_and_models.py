"""The Hidet pipeline end to end, plus the model zoo's structure."""
import numpy as np
import pytest

from repro.graph import from_numpy, ops, symbol, trace
from repro.models import (bert_base, gpt2, inception_v3, mobilenet_v2, resnet50)
from repro.models.bert import transformer_encoder_layer
from repro.models.common import WeightFactory
from repro.runtime import HidetExecutor, benchmark, optimize
from repro.sched.space import matmul_schedule_space

RNG = np.random.default_rng(7)


class TestOptimizePipeline:
    def _small_cnn(self):
        x = symbol([1, 4, 12, 12], name='x')
        wf = WeightFactory(1)
        from repro.models.common import conv_bn_relu
        y = conv_bn_relu(wf, x, 8, kernel=3, padding=1, name='c1')
        y = conv_bn_relu(wf, y, 8, kernel=3, padding=1, name='c2')
        y = ops.global_avg_pool(y)
        return trace(y, name='small_cnn'), x

    def test_functional_equivalence_cnn(self):
        g, _ = self._small_cnn()
        compiled = optimize(g)
        x = RNG.standard_normal((1, 4, 12, 12)).astype(np.float32)
        np.testing.assert_allclose(compiled.run(x)[0], g.run(x)[0],
                                   rtol=1e-4, atol=1e-4)

    def test_functional_equivalence_transformer_layer(self):
        wf = WeightFactory(3)
        x = symbol([8, 16], name='x')
        y = transformer_encoder_layer(wf, x, 16, 2, 32, name='L')
        g = trace(y)
        compiled = optimize(g)
        xv = RNG.standard_normal((8, 16)).astype(np.float32)
        np.testing.assert_allclose(compiled.run(xv)[0], g.run(xv)[0],
                                   rtol=1e-3, atol=1e-4)

    def test_fusion_reduces_kernels(self):
        g, _ = self._small_cnn()
        fused = HidetExecutor(enable_fusion=True).compile(g)
        unfused = HidetExecutor(enable_fusion=False).compile(g)
        assert fused.num_kernels < unfused.num_kernels
        assert fused.latency < unfused.latency

    def test_latency_breakdown_and_summary(self):
        g, _ = self._small_cnn()
        compiled = optimize(g)
        breakdown = compiled.latency_breakdown()
        assert abs(sum(l for _, l in breakdown)
                   + compiled.num_kernels * compiled.dispatch_overhead
                   - compiled.latency) < 1e-12
        assert 'CompiledGraph' in compiled.summary()

    def test_double_buffer_toggle(self):
        g, _ = self._small_cnn()
        db = HidetExecutor(space=matmul_schedule_space(double_buffer=True)).compile(g)
        sb = HidetExecutor(space=matmul_schedule_space(double_buffer=False)).compile(g)
        assert db.latency < sb.latency

    def test_benchmark_helper(self):
        g, _ = self._small_cnn()
        compiled = optimize(g)
        exact = benchmark(compiled)
        assert exact.std_ms == 0.0
        noisy = benchmark(compiled, noise=0.02, repeats=20, seed=1)
        assert noisy.std_ms > 0
        assert abs(noisy.mean_ms - exact.mean_ms) / exact.mean_ms < 0.05

    def test_tuning_cache_shared_within_executor(self):
        """Identical conv shapes tune once (simulated clock counts tasks)."""
        from repro.runtime import ScheduleCache
        x = symbol([1, 8, 8, 8], name='x')
        w1 = from_numpy(RNG.standard_normal((8, 8, 3, 3)).astype(np.float32))
        w2 = from_numpy(RNG.standard_normal((8, 8, 3, 3)).astype(np.float32))
        y = ops.conv2d(ops.conv2d(x, w1, padding=1), w2, padding=1)
        # a private cache isolates the clock accounting from compiles that
        # warmed the process-wide cache earlier in the test session
        executor = HidetExecutor(cache=ScheduleCache())
        executor.compile(trace(y))
        labels = {label for label, _ in executor.clock.events}
        compile_labels = [l for l in labels if l.startswith('compile matmul')]
        assert len(compile_labels) == 1     # one unique GEMM task


class TestModelZoo:
    def test_resnet50_structure(self):
        g = resnet50()
        hist = g.operator_histogram()
        assert hist['conv2d'] == 53
        assert g.outputs[0].shape == (1, 1000)

    def test_resnet50_batch(self):
        g = resnet50(batch_size=4)
        assert g.inputs[0].shape == (4, 3, 224, 224)
        assert g.outputs[0].shape == (4, 1000)

    def test_inception_v3_structure(self):
        g = inception_v3()
        hist = g.operator_histogram()
        assert hist['conv2d'] == 94          # torchvision inception_v3 conv count
        assert g.outputs[0].shape == (1, 1000)

    def test_mobilenet_v2_structure(self):
        g = mobilenet_v2()
        convs = [op for op in g.nodes if op.name == 'conv2d']
        depthwise = [op for op in convs if op.attrs['groups'] > 1]
        assert len(convs) == 52
        assert len(depthwise) == 17
        assert g.outputs[0].shape == (1, 1000)

    def test_bert_structure(self):
        g = bert_base(seq_length=128)
        assert g.outputs[0].shape == (128, 768)
        hist = g.operator_histogram()
        assert hist['matmul'] == 12 * 6      # q,k,v,o,ffn1,ffn2 per layer
        assert hist['batch_matmul'] == 24

    def test_gpt2_structure(self):
        g = gpt2(seq_length=128)
        assert g.outputs[0].shape == (128, 50257)
        assert g.operator_histogram()['batch_matmul'] == 24

    def test_tiny_models_run_functionally(self):
        g = resnet50(image_size=32)
        out = g.run(RNG.standard_normal((1, 3, 32, 32)).astype(np.float32))[0]
        assert out.shape == (1, 1000) and np.isfinite(out).all()
        gm = mobilenet_v2(image_size=32)
        out = gm.run(RNG.standard_normal((1, 3, 32, 32)).astype(np.float32))[0]
        assert out.shape == (1, 1000) and np.isfinite(out).all()

    def test_bert_tiny_run(self):
        g = bert_base(seq_length=8, hidden=16, layers=1, heads=2, vocab_size=50)
        ids = np.arange(8, dtype=np.int32)
        out = g.run(ids)[0]
        assert out.shape == (8, 16) and np.isfinite(out).all()
