"""Elementwise arithmetic and activation operators.

All operators here are injective; same-shaped inputs additionally get
identity inverse maps, making them bijective and hence eligible as both
prologues and epilogues (paper §4.2: "all elementwise operators ... are
bijective operators and are qualified as both prologue and epilogue
operators").

Binary operators support numpy-style broadcasting; the inverse map is only
provided for inputs whose shape equals the output shape (a broadcast input
feeds many output elements, so it is not bijective).
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..operator import Operator
from ..tensor import Tensor
from ...ir.compute import compute, tensor_input
from ...ir.expr import Expr, UnaryExpr, min_expr, max_expr
from ...ir.task import Task, identity_inverse_map

__all__ = ['BinaryElementwiseOp', 'UnaryElementwiseOp', 'add', 'sub', 'mul', 'div',
           'relu', 'relu6', 'clip', 'exp', 'sqrt', 'rsqrt', 'erf', 'tanh',
           'sigmoid', 'gelu', 'negate', 'broadcast_shapes']


def broadcast_shapes(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Numpy-style broadcast of two shapes."""
    result = []
    for da, db in zip(_pad_left(a, b), _pad_left(b, a)):
        if da == db or db == 1:
            result.append(da)
        elif da == 1:
            result.append(db)
        else:
            raise ValueError(f'cannot broadcast shapes {tuple(a)} and {tuple(b)}')
    return tuple(result)


def _pad_left(shape: Sequence[int], other: Sequence[int]) -> list[int]:
    rank = max(len(shape), len(other))
    return [1] * (rank - len(shape)) + list(shape)


def _broadcast_indices(out_indices, in_shape: Sequence[int]):
    """Indices into a broadcast input, given output indices (aligned right)."""
    offset = len(out_indices) - len(in_shape)
    return [out_indices[offset + d] if extent > 1 else 0
            for d, extent in enumerate(in_shape)]


class BinaryElementwiseOp(Operator):
    """``out = fn(a, b)`` with broadcasting."""

    def __init__(self, a: Tensor, b: Tensor, op_name: str,
                 expr_fn: Callable[[Expr, Expr], Expr],
                 np_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        self.expr_fn = expr_fn
        self.np_fn = np_fn
        super().__init__([a, b], attrs={'op': op_name}, name=op_name)

    def infer_output(self):
        a, b = self.inputs
        return broadcast_shapes(a.shape, b.shape), a.dtype

    def make_task(self) -> Task:
        a, b = self.inputs
        out_shape = self.output.shape
        ta = tensor_input(a.name, a.dtype, a.shape)
        tb = tensor_input(b.name, b.dtype, b.shape)

        def fcompute(*axes):
            lhs = ta[tuple(_broadcast_indices(axes, ta.shape))] if ta.shape else ta[()]
            rhs = tb[tuple(_broadcast_indices(axes, tb.shape))] if tb.shape else tb[()]
            return self.expr_fn(lhs, rhs)

        out = compute(f'{self.name}_out', out_shape, fcompute)
        inverse_maps = {}
        rank = len(out_shape)
        if ta.shape == out_shape:
            inverse_maps[ta] = identity_inverse_map(rank)
        if tb.shape == out_shape:
            inverse_maps[tb] = identity_inverse_map(rank)
        return Task(self.name, [ta, tb], out, inverse_maps=inverse_maps)

    def run_numpy(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.np_fn(a, b).astype(np.float32)


class UnaryElementwiseOp(Operator):
    """``out = fn(x)`` elementwise; always bijective."""

    def __init__(self, x: Tensor, op_name: str,
                 expr_fn: Callable[[Expr], Expr],
                 np_fn: Callable[[np.ndarray], np.ndarray],
                 extra_attrs: dict | None = None):
        self.expr_fn = expr_fn
        self.np_fn = np_fn
        attrs = {'op': op_name}
        attrs.update(extra_attrs or {})
        super().__init__([x], attrs=attrs, name=op_name)

    def infer_output(self):
        return self.inputs[0].shape, self.inputs[0].dtype

    def make_task(self) -> Task:
        x = self.inputs[0]
        tx = tensor_input(x.name, x.dtype, x.shape)
        out = compute(f'{self.name}_out', x.shape,
                      lambda *axes: self.expr_fn(tx[tuple(axes)] if axes else tx[()]))
        return Task(self.name, [tx], out,
                    inverse_maps={tx: identity_inverse_map(len(x.shape))})

    def run_numpy(self, x: np.ndarray) -> np.ndarray:
        return self.np_fn(x).astype(np.float32)


# ---------------------------------------------------------------------------
# functional API
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    return BinaryElementwiseOp(a, b, 'add', lambda x, y: x + y, np.add).output


def sub(a: Tensor, b: Tensor) -> Tensor:
    return BinaryElementwiseOp(a, b, 'sub', lambda x, y: x - y, np.subtract).output


def mul(a: Tensor, b: Tensor) -> Tensor:
    return BinaryElementwiseOp(a, b, 'mul', lambda x, y: x * y, np.multiply).output


def div(a: Tensor, b: Tensor) -> Tensor:
    return BinaryElementwiseOp(a, b, 'div', lambda x, y: x / y, np.divide).output


def relu(x: Tensor) -> Tensor:
    return UnaryElementwiseOp(x, 'relu', lambda v: max_expr(v, 0.0),
                              lambda a: np.maximum(a, 0.0)).output


def clip(x: Tensor, low: float, high: float) -> Tensor:
    return UnaryElementwiseOp(
        x, 'clip', lambda v: min_expr(max_expr(v, float(low)), float(high)),
        lambda a: np.clip(a, low, high),
        extra_attrs={'low': float(low), 'high': float(high)}).output


def relu6(x: Tensor) -> Tensor:
    """The MobileNet activation ``min(max(x, 0), 6)``."""
    return clip(x, 0.0, 6.0)


def exp(x: Tensor) -> Tensor:
    return UnaryElementwiseOp(x, 'exp', lambda v: UnaryExpr('exp', v), np.exp).output


def sqrt(x: Tensor) -> Tensor:
    return UnaryElementwiseOp(x, 'sqrt', lambda v: UnaryExpr('sqrt', v), np.sqrt).output


def rsqrt(x: Tensor) -> Tensor:
    return UnaryElementwiseOp(x, 'rsqrt', lambda v: UnaryExpr('rsqrt', v),
                              lambda a: 1.0 / np.sqrt(a)).output


def _np_erf(a: np.ndarray) -> np.ndarray:
    """scipy's erf, imported on first evaluation: building a graph reads no
    values, so it does not pay for importing scipy."""
    from scipy.special import erf as np_erf
    return np_erf(a)


def erf(x: Tensor) -> Tensor:
    return UnaryElementwiseOp(x, 'erf', lambda v: UnaryExpr('erf', v), _np_erf).output


def tanh(x: Tensor) -> Tensor:
    return UnaryElementwiseOp(x, 'tanh', lambda v: UnaryExpr('tanh', v), np.tanh).output


def sigmoid(x: Tensor) -> Tensor:
    return UnaryElementwiseOp(x, 'sigmoid', lambda v: UnaryExpr('sigmoid', v),
                              lambda a: 1.0 / (1.0 + np.exp(-a))).output


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU, the transformer feed-forward activation."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return UnaryElementwiseOp(
        x, 'gelu',
        lambda v: 0.5 * v * (1.0 + UnaryExpr('erf', v * inv_sqrt2)),
        lambda a: 0.5 * a * (1.0 + _np_erf(a * inv_sqrt2))).output


def negate(x: Tensor) -> Tensor:
    return UnaryElementwiseOp(x, 'neg', lambda v: -v, np.negative).output
