"""Lazy weights and lazy constant folding.

Model weights are recorded at build time and drawn on first read; folded
constants compute their value on first read.  The values must be
bit-identical to drawing everything eagerly, in whatever order they are
first read, and compiling, registering or deploying a model must read none.
"""
import hashlib
import importlib
import os
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.models
from repro.graph import Tensor, from_numpy, ops, symbol, trace
from repro.graph.passes import fold_constants, lower_conv_to_gemm
from repro.models.common import WeightFactory
from repro.runtime import HidetExecutor, ScheduleCache
from repro.serve.memory import footprint_from_graphs

#: the zoo at the sizes the compile benchmark builds it
ZOO = {
    'resnet50': {'image_size': 112},
    'inception_v3': {'image_size': 150},
    'mobilenet_v2': {'image_size': 112},
    'bert': {'layers': 2, 'vocab_size': 8000},
    'gpt2': {'layers': 2, 'vocab_size': 8000},
}
#: the module whose ``WeightFactory`` each builder uses
MODULES = {'resnet50': 'resnet', 'inception_v3': 'inception',
           'mobilenet_v2': 'mobilenet', 'bert': 'bert', 'gpt2': 'gpt2'}
SPEC = os.path.join(os.path.dirname(__file__), '..', 'examples',
                    'deployment_spec.json')


class EagerWeightFactory:
    """The eager weight generator the lazy one replaced, kept verbatim as
    the oracle: every draw runs at build time."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def conv_weight(self, oc: int, ic: int, kh: int, kw: int, name: str = 'w') -> Tensor:
        fan_in = max(1, ic * kh * kw)
        scale = (2.0 / fan_in) ** 0.5
        data = (self.rng.standard_normal((oc, ic, kh, kw)) * scale).astype(np.float32)
        return from_numpy(data, name=name)

    def matrix(self, rows: int, cols: int, name: str = 'w') -> Tensor:
        scale = (1.0 / max(1, rows)) ** 0.5
        data = (self.rng.standard_normal((rows, cols)) * scale).astype(np.float32)
        return from_numpy(data, name=name)

    def vector(self, n: int, name: str = 'b', scale: float = 0.02) -> Tensor:
        data = (self.rng.standard_normal((n,)) * scale).astype(np.float32)
        return from_numpy(data, name=name)

    def bn_params(self, channels: int, name: str = 'bn') -> tuple[Tensor, Tensor]:
        """Folded inference-time batch-norm scale/shift, shaped [C, 1, 1]."""
        scale = (1.0 + self.rng.standard_normal((channels, 1, 1)) * 0.05).astype(np.float32)
        shift = (self.rng.standard_normal((channels, 1, 1)) * 0.05).astype(np.float32)
        return from_numpy(scale, name=f'{name}_scale'), from_numpy(shift, name=f'{name}_shift')


def _build(name: str, seed: int = 1, eager: bool = False):
    builder = repro.models.MODEL_BUILDERS[name]
    if not eager:
        return builder(seed=seed, **ZOO[name])
    module = importlib.import_module(f'repro.models.{MODULES[name]}')
    with mock.patch.object(module, 'WeightFactory', EagerWeightFactory):
        return builder(seed=seed, **ZOO[name])


def _optimized(graph):
    """The executor's graph-level pass pipeline."""
    return fold_constants(lower_conv_to_gemm(fold_constants(graph)))


def _constants(graph) -> list[Tensor]:
    """The graph's constants, each once, in operator order."""
    seen: dict[int, Tensor] = {}
    for op in graph.nodes:
        for t in op.inputs:
            if t.is_constant:
                seen.setdefault(t._id, t)
    return list(seen.values())


def _bytes(t: Tensor) -> bytes:
    return np.ascontiguousarray(t.numpy()).tobytes()


def _digests(constants) -> list[tuple]:
    return [(t.shape, t.numpy().dtype.str, hashlib.sha256(_bytes(t)).hexdigest())
            for t in constants]


_EAGER_DIGESTS: dict[str, list] = {}


def _eager_digests(name: str) -> list[tuple]:
    if name not in _EAGER_DIGESTS:
        _EAGER_DIGESTS[name] = _digests(_constants(_build(name, eager=True)))
    return _EAGER_DIGESTS[name]


@pytest.fixture
def drawn(monkeypatch):
    """The weight tensors drawn while the fixture is live."""
    weights: list[Tensor] = []
    real = WeightFactory._draw

    def draw(self, *args, **kwargs):
        weights.append(real(self, *args, **kwargs))
        return weights[-1]
    monkeypatch.setattr(WeightFactory, '_draw', draw)
    return weights


@pytest.fixture
def reads(monkeypatch):
    """Names of the tensors whose value was read while the fixture is live."""
    names: list[str] = []
    real = Tensor.numpy

    def spy(self):
        names.append(self.name)
        return real(self)
    monkeypatch.setattr(Tensor, 'numpy', spy)
    return names


class TestBitIdentity:
    @pytest.mark.parametrize('name', sorted(ZOO))
    def test_values_match_eager_draws(self, name, drawn):
        eager, lazy = _build(name, eager=True), _build(name, eager=False)
        assert drawn and not any(w.is_materialized for w in drawn)
        _EAGER_DIGESTS.setdefault(name, _digests(_constants(eager)))
        # optimize before any read: the folds must compose lazily
        pairs = [(eager, lazy), (_optimized(eager), _optimized(lazy))]
        for want_graph, got_graph in pairs:
            want, got = _constants(want_graph), _constants(got_graph)
            assert [(t.shape, t.dtype) for t in got] == [(t.shape, t.dtype) for t in want]
            for w, g in zip(want, got):
                assert g.numpy().dtype == w.numpy().dtype, g.name
                assert _bytes(g) == _bytes(w), g.name
        assert footprint_from_graphs(name, {1: lazy}) == \
            footprint_from_graphs(name, {1: eager})

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_first_read_order_does_not_matter(self, data):
        name = data.draw(st.sampled_from(sorted(ZOO)))
        constants = _constants(_build(name))
        want = _eager_digests(name)
        order = data.draw(st.permutations(range(len(constants))))
        for i in order:
            assert _digests([constants[i]]) == [want[i]], constants[i].name

    def test_draws_after_a_read_continue_the_stream(self):
        eager, lazy = EagerWeightFactory(4), WeightFactory(4)
        want = [eager.matrix(3, 5), *eager.bn_params(2)]
        got = [lazy.matrix(3, 5), *lazy.bn_params(2)]
        got[1].numpy()
        want.append(eager.conv_weight(2, 3, 3, 3))
        got.append(lazy.conv_weight(2, 3, 3, 3))
        assert not got[-1].is_materialized
        assert [_bytes(t) for t in got] == [_bytes(t) for t in want]

    def test_replay_releases_the_factory(self):
        wf = WeightFactory(0)
        weight = wf.vector(4)
        ref = weakref.ref(wf)
        del wf
        assert ref() is not None       # the pending draw keeps its factory
        weight.numpy()
        assert ref() is None           # no tensor -> factory cycle remains


class TestCompileReadsNoValues:
    @pytest.mark.parametrize('name', sorted(ZOO))
    def test_cold_compile(self, name, drawn, reads):
        compiled = HidetExecutor(cache=ScheduleCache()).compile(_build(name), name=name)
        assert compiled.ops and drawn
        assert reads == []
        assert not any(w.is_materialized for w in drawn)

    def test_serving_registry(self, drawn, reads):
        from repro.experiments.serving import SMOKE_MODELS, build_registry
        registry = build_registry(SMOKE_MODELS, (1, 2))
        assert sorted(registry.models) == sorted(SMOKE_MODELS) and drawn
        assert reads == []
        assert not any(w.is_materialized for w in drawn)

    def test_deployment_build(self, drawn, reads):
        from repro.serve.deployment import Deployment, DeploymentSpec
        with open(SPEC) as f:
            Deployment(DeploymentSpec.from_json(f.read())).build()
        assert drawn
        assert reads == []
        assert not any(w.is_materialized for w in drawn)


class TestLazyConstants:
    def _folded_transpose(self):
        x = symbol([3, 2], name='x')
        w = from_numpy(np.arange(6, dtype=np.float32).reshape(2, 3), name='w')
        graph = trace(ops.add(x, ops.transpose(w, [1, 0])))
        (transpose,) = [op for op in graph.nodes if op.inputs[0] is w]
        folded = fold_constants(graph)
        (const,) = [t for t in _constants(folded) if t.name.endswith('_folded')]
        return transpose, const

    def test_fold_is_lazy_and_cached(self):
        transpose, const = self._folded_transpose()
        assert const.is_constant and not const.is_materialized
        value = const.numpy()
        np.testing.assert_array_equal(value, np.arange(6).reshape(2, 3).T)
        assert const.is_materialized and const.numpy() is value

    def test_wrong_shape_fails_naming_the_tensor(self):
        transpose, const = self._folded_transpose()
        transpose.run_numpy = lambda w: w       # forgets to transpose
        with pytest.raises(ValueError, match=const.name):
            const.numpy()

    def test_symbolic_tensor_has_no_value(self):
        x = symbol([2], name='x')
        assert x.is_symbolic and not x.is_constant
        with pytest.raises(ValueError, match="'x'"):
            x.numpy()
