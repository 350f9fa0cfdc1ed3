"""Shared building blocks for the model zoo.

Weights are seeded-random constants with magnitudes that keep activations in
a sane range (the experiments only need correct shapes and graph structure;
functional tests compare executors against the numpy reference, so values
just need to be finite and non-degenerate).

Weights are lazy.  Building a model records each draw and returns constants
that carry only a shape; compiling, tuning and serving read nothing else.
Values materialize only where a graph is executed (``FlowGraph.run``,
``CompiledGraph.run``) or exported (``onnx_io``).  The first read of any
weight replays the model's single seed stream in draw order, so every value
is bit-identical to drawing eagerly at build time.
"""
from __future__ import annotations

import functools

import numpy as np

from ..graph import Tensor, ops

__all__ = ['WeightFactory', 'conv_bn_relu', 'linear']


class WeightFactory:
    """Deterministic weight generator: one seed stream per model."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        #: (tensor, scale, offset) per draw not yet replayed, in draw order
        self._draws: list = []

    def _draw(self, shape: tuple[int, ...], scale: float, name: str,
              offset: float = 0.0) -> Tensor:
        tensor = Tensor(shape, 'float32', name=name,
                        compute=functools.partial(self._replay, len(self._draws)))
        self._draws.append((tensor, scale, offset))
        return tensor

    def _replay(self, index: int) -> np.ndarray:
        """Draw every pending weight at once, in build order, and return the
        ``index``-th.  Filled weights drop their producer and the factory
        drops its draw list, so no tensor <-> factory cycle remains; later
        draws continue the same stream."""
        draws, self._draws = self._draws, []
        for tensor, scale, offset in draws:
            value = self._rng.standard_normal(tensor.shape) * scale
            if offset:
                value = offset + value
            tensor._set_value(value.astype(np.float32))
        return draws[index][0].numpy()

    def conv_weight(self, oc: int, ic: int, kh: int, kw: int, name: str = 'w') -> Tensor:
        fan_in = max(1, ic * kh * kw)
        return self._draw((oc, ic, kh, kw), (2.0 / fan_in) ** 0.5, name)

    def matrix(self, rows: int, cols: int, name: str = 'w') -> Tensor:
        return self._draw((rows, cols), (1.0 / max(1, rows)) ** 0.5, name)

    def vector(self, n: int, name: str = 'b', scale: float = 0.02) -> Tensor:
        return self._draw((n,), scale, name)

    def bn_params(self, channels: int, name: str = 'bn') -> tuple[Tensor, Tensor]:
        """Folded inference-time batch-norm scale/shift, shaped [C, 1, 1]."""
        scale = self._draw((channels, 1, 1), 0.05, f'{name}_scale', offset=1.0)
        shift = self._draw((channels, 1, 1), 0.05, f'{name}_shift')
        return scale, shift


def conv_bn_relu(wf: WeightFactory, x: Tensor, out_channels: int,
                 kernel: int | tuple[int, int], stride: int = 1, padding=0,
                 groups: int = 1, relu: bool = True, relu6: bool = False,
                 name: str = 'conv') -> Tensor:
    """The Conv2d-BN-ReLU motif (paper Figures 6 and 21)."""
    kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
    in_channels = x.shape[1] // groups
    weight = wf.conv_weight(out_channels, in_channels, kh, kw, name=f'{name}_w')
    y = ops.conv2d(x, weight, stride=stride, padding=padding, groups=groups)
    scale, shift = wf.bn_params(out_channels, name=f'{name}_bn')
    y = ops.batch_norm(y, scale, shift)
    if relu6:
        return ops.relu6(y)
    if relu:
        return ops.relu(y)
    return y


def linear(wf: WeightFactory, x: Tensor, out_features: int, bias: bool = True,
           name: str = 'fc') -> Tensor:
    """Dense layer ``[*, in] @ [in, out] (+ bias)``."""
    in_features = x.shape[-1]
    weight = wf.matrix(in_features, out_features, name=f'{name}_w')
    if x.rank != 2:
        raise ValueError('linear expects a 2-D input; reshape first')
    y = ops.matmul(x, weight)
    if bias:
        y = ops.add(y, wf.vector(out_features, name=f'{name}_b'))
    return y
