"""Pooling operators (max / average / global average)."""
from __future__ import annotations

import numpy as np

from ..operator import Operator
from ..tensor import Tensor
from ...ir.compute import compute, reduce, tensor_input
from ...ir.expr import if_then_else, logical_and
from ...ir.task import Task

__all__ = ['Pool2dOp', 'GlobalAvgPoolOp', 'max_pool2d', 'avg_pool2d', 'global_avg_pool']


class Pool2dOp(Operator):
    """NCHW max/avg pooling with square kernels."""

    def __init__(self, x: Tensor, kind: str, kernel: int, stride: int, padding: int = 0):
        if kind not in ('max', 'avg'):
            raise ValueError(f'unknown pooling kind {kind!r}')
        attrs = {'kind': kind, 'kernel': int(kernel), 'stride': int(stride),
                 'padding': int(padding)}
        super().__init__([x], attrs=attrs, name=f'{kind}_pool2d')

    def infer_output(self):
        n, c, h, w = self.inputs[0].shape
        k, s, p = self.attrs['kernel'], self.attrs['stride'], self.attrs['padding']
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        return (n, c, oh, ow), self.inputs[0].dtype

    def make_task(self) -> Task:
        x = self.inputs[0]
        n, c, h, w = x.shape
        k, s, p = self.attrs['kernel'], self.attrs['stride'], self.attrs['padding']
        kind = self.attrs['kind']
        tx = tensor_input(x.name, x.dtype, x.shape)
        pad_value = -3.0e38 if kind == 'max' else 0.0

        def fcompute(nn, cc, oh, ow):
            def freduce(ki, kj):
                ih = oh * s + ki - p
                iw = ow * s + kj - p
                in_bounds = logical_and(0 <= ih, ih < h, 0 <= iw, iw < w)
                return if_then_else(in_bounds, tx[nn, cc, ih, iw], pad_value)
            return reduce([k, k], freduce, op='max' if kind == 'max' else 'avg')

        out = compute(f'{self.name}_out', self.output.shape, fcompute)
        return Task(self.name, [tx], out, attrs={'kind': f'{kind}_pool'})

    def run_numpy(self, x: np.ndarray) -> np.ndarray:
        k, s, p = self.attrs['kernel'], self.attrs['stride'], self.attrs['padding']
        kind = self.attrs['kind']
        fill = -np.inf if kind == 'max' else 0.0
        padded = np.pad(x, [(0, 0), (0, 0), (p, p), (p, p)], constant_values=fill)
        windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(2, 3))
        windows = windows[:, :, ::s, ::s, :, :]
        if kind == 'max':
            return windows.max(axis=(4, 5)).astype(np.float32)
        # count_include_pad=True semantics: divide by the full window size
        return windows.mean(axis=(4, 5)).astype(np.float32)


class GlobalAvgPoolOp(Operator):
    """Average over the spatial dimensions: ``[N,C,H,W] -> [N,C]``."""

    def __init__(self, x: Tensor):
        super().__init__([x], name='global_avg_pool')

    def infer_output(self):
        n, c, h, w = self.inputs[0].shape
        return (n, c), self.inputs[0].dtype

    def make_task(self) -> Task:
        x = self.inputs[0]
        n, c, h, w = x.shape
        tx = tensor_input(x.name, x.dtype, x.shape)
        out = compute(f'{self.name}_out', [n, c],
                      lambda nn, cc: reduce([h, w], lambda i, j: tx[nn, cc, i, j], op='avg'))
        return Task(self.name, [tx], out, attrs={'kind': 'global_avg_pool'})

    def run_numpy(self, x: np.ndarray) -> np.ndarray:
        return x.mean(axis=(2, 3)).astype(np.float32)


def max_pool2d(x: Tensor, kernel: int, stride: int, padding: int = 0) -> Tensor:
    return Pool2dOp(x, 'max', kernel, stride, padding).output


def avg_pool2d(x: Tensor, kernel: int, stride: int, padding: int = 0) -> Tensor:
    return Pool2dOp(x, 'avg', kernel, stride, padding).output


def global_avg_pool(x: Tensor) -> Tensor:
    return GlobalAvgPoolOp(x).output
