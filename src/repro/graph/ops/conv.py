"""2-D convolution and the img2col operator.

Hidet implements dense convolution as *implicit GEMM* (paper §5.2, §6.3.4):
a graph pass decomposes ``Conv2d`` into ``img2col -> matmul -> transform``,
and post-scheduling fusion folds the img2col gather (prologue) and the output
transform (epilogue) into the matmul kernel, reusing all matmul optimizations
(double buffering, parallel-k reduction) for convolutions.

Grouped and depthwise convolutions keep a direct computation definition and
are scheduled rule-based — which is exactly why Ansor's dedicated depthwise
sketches beat Hidet on MobileNetV2 in the paper (Figure 16 discussion).

Rectangular kernels and asymmetric padding (Inception-V3's 1×7 / 7×1 convs)
are supported: ``padding`` may be an int or an ``(ph, pw)`` pair; kernel
sizes come from the weight shape.
"""
from __future__ import annotations

import numpy as np

from ..operator import Operator
from ..tensor import Tensor
from ...ir.compute import compute, reduce, tensor_input
from ...ir.expr import if_then_else, logical_and
from ...ir.task import Task

__all__ = ['Conv2dOp', 'Im2colOp', 'conv2d', 'conv2d_numpy', 'conv2d_output_shape']


def _pair(value) -> tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    ph, pw = value
    return (int(ph), int(pw))


def conv2d_output_shape(x_shape, w_shape, stride: int, padding) -> tuple[int, int, int, int]:
    n, c, h, w = x_shape
    oc, _, kh, kw = w_shape
    ph, pw = _pair(padding)
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (w + 2 * pw - kw) // stride + 1
    return n, oc, oh, ow


class Conv2dOp(Operator):
    """NCHW convolution: ``x [N,C,H,W] * w [OC, C/groups, KH, KW]``."""

    def __init__(self, x: Tensor, weight: Tensor, stride: int = 1, padding=0,
                 groups: int = 1):
        n, c, h, w = x.shape
        oc, icpg, kh, kw = weight.shape
        if c % groups != 0 or oc % groups != 0 or icpg != c // groups:
            raise ValueError(
                f'conv2d group mismatch: x channels {c}, weight {weight.shape}, '
                f'groups {groups}')
        attrs = {'stride': int(stride), 'padding': _pair(padding), 'groups': int(groups)}
        super().__init__([x, weight], attrs=attrs, name='conv2d')

    @property
    def is_depthwise(self) -> bool:
        c = self.inputs[0].shape[1]
        return self.attrs['groups'] == c and self.inputs[1].shape[1] == 1

    def infer_output(self):
        return conv2d_output_shape(self.inputs[0].shape, self.inputs[1].shape,
                                   self.attrs['stride'], self.attrs['padding']), \
            self.inputs[0].dtype

    def make_task(self) -> Task:
        x, weight = self.inputs
        n, c, h, w = x.shape
        oc, icpg, kh, kw = weight.shape
        stride, groups = self.attrs['stride'], self.attrs['groups']
        ph, pw = self.attrs['padding']
        ocpg = oc // groups
        tx = tensor_input(x.name, x.dtype, x.shape)
        tw = tensor_input(weight.name, weight.dtype, weight.shape)

        def fcompute(nn, co, oh, ow):
            def freduce(ci, ki, kj):
                ih = oh * stride + ki - ph
                iw = ow * stride + kj - pw
                group = co // ocpg
                in_bounds = logical_and(0 <= ih, ih < h, 0 <= iw, iw < w)
                value = tx[nn, group * icpg + ci, ih, iw] * tw[co, ci, ki, kj]
                return if_then_else(in_bounds, value, 0.0)
            return reduce([icpg, kh, kw], freduce)

        out = compute(f'{self.name}_out', self.output.shape, fcompute)
        return Task(self.name, [tx, tw], out,
                    attrs={'kind': 'conv2d', 'depthwise': self.is_depthwise,
                           'reduce_size': icpg * kh * kw})

    def run_numpy(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        return conv2d_numpy(x, weight, self.attrs['stride'], self.attrs['padding'],
                            self.attrs['groups'])


class Im2colOp(Operator):
    """Gather conv patches into a matrix: ``[N*OH*OW, C*KH*KW]``.

    Injective (a pure gather with zero padding), hence a legal prologue for
    the implicit-GEMM matmul.  Only ``groups == 1`` convolutions lower this way.
    """

    def __init__(self, x: Tensor, kernel: tuple[int, int], stride: int, padding,
                 out_hw: tuple[int, int]):
        attrs = {'kernel': tuple(kernel), 'stride': int(stride),
                 'padding': _pair(padding), 'out_hw': tuple(out_hw)}
        super().__init__([x], attrs=attrs, name='img2col')

    def infer_output(self):
        n, c, h, w = self.inputs[0].shape
        kh, kw = self.attrs['kernel']
        oh, ow = self.attrs['out_hw']
        return (n * oh * ow, c * kh * kw), self.inputs[0].dtype

    def make_task(self) -> Task:
        x = self.inputs[0]
        n, c, h, w = x.shape
        kh, kw = self.attrs['kernel']
        oh, ow = self.attrs['out_hw']
        stride = self.attrs['stride']
        ph, pw = self.attrs['padding']
        tx = tensor_input(x.name, x.dtype, x.shape)

        def fcompute(row, col):
            nn = row // (oh * ow) if n > 1 else 0
            pix = row % (oh * ow) if n > 1 else row
            r_oh = pix // ow
            r_ow = pix % ow
            ci = col // (kh * kw)
            k = col % (kh * kw)
            ki = k // kw
            kj = k % kw
            ih = r_oh * stride + ki - ph
            iw = r_ow * stride + kj - pw
            in_bounds = logical_and(0 <= ih, ih < h, 0 <= iw, iw < w)
            return if_then_else(in_bounds, tx[nn, ci, ih, iw], 0.0)

        out = compute(f'{self.name}_out', self.output.shape, fcompute)
        return Task(self.name, [tx], out, attrs={'kind': 'img2col'})

    def run_numpy(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        kh, kw = self.attrs['kernel']
        oh, ow = self.attrs['out_hw']
        stride = self.attrs['stride']
        ph, pw = self.attrs['padding']
        padded = np.pad(x, [(0, 0), (0, 0), (ph, ph), (pw, pw)])
        windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
        windows = windows[:, :, ::stride, ::stride, :, :]       # [N, C, OH, OW, KH, KW]
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
        return np.ascontiguousarray(cols.astype(np.float32))


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding=0,
           groups: int = 1) -> Tensor:
    return Conv2dOp(x, weight, stride, padding, groups).output


def conv2d_numpy(x: np.ndarray, weight: np.ndarray, stride: int, padding,
                 groups: int = 1) -> np.ndarray:
    """Reference NCHW convolution via im2col (supports groups/depthwise)."""
    n, c, h, w = x.shape
    oc, icpg, kh, kw = weight.shape
    ph, pw = _pair(padding)
    _, _, oh, ow = conv2d_output_shape(x.shape, weight.shape, stride, padding)
    padded = np.pad(x, [(0, 0), (0, 0), (ph, ph), (pw, pw)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]           # [N, C, OH, OW, KH, KW]
    ocpg = oc // groups
    out = np.empty((n, oc, oh, ow), dtype=np.float32)
    for g in range(groups):
        xg = windows[:, g * icpg:(g + 1) * icpg]                 # [N, icpg, OH, OW, KH, KW]
        wg = weight[g * ocpg:(g + 1) * ocpg]                     # [ocpg, icpg, KH, KW]
        out[:, g * ocpg:(g + 1) * ocpg] = np.einsum(
            'nchwij,ocij->nohw', xg, wg, optimize=True)
    return out.astype(np.float32)
