"""Tensor layout/transform operators: reshape, transpose, concat, pad.

Reshape and transpose are bijective (paper §4.2: "transform operators (e.g.,
reshape, transpose) are bijective operators") and carry the inverse index
maps post-scheduling fusion needs; pad and concat are injective (and concat
is bijective per-input with an offset inverse map).
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..operator import Operator
from ..tensor import Tensor
from ...ir.compute import compute, tensor_input
from ...ir.expr import convert, if_then_else, logical_and
from ...ir.task import InverseMap, Task

__all__ = ['ReshapeOp', 'TransposeOp', 'ConcatOp', 'PadOp',
           'reshape', 'transpose', 'concat', 'pad', 'flatten']


def _linearize(indices, shape: Sequence[int]):
    flat = None
    for idx, extent in zip(indices, shape):
        flat = idx if flat is None else flat * extent + idx
    return flat if flat is not None else convert(0)


def _delinearize(flat, shape: Sequence[int]):
    indices = []
    for dim, extent in enumerate(shape):
        stride = math.prod(shape[dim + 1:])
        idx = flat // stride if stride > 1 else flat
        if dim > 0:
            idx = idx % extent
        indices.append(idx)
    return indices


class ReshapeOp(Operator):
    def __init__(self, x: Tensor, shape: Sequence[int]):
        shape = _resolve_shape(x, shape)
        if math.prod(shape) != x.num_elements:
            raise ValueError(f'cannot reshape {x.shape} to {tuple(shape)}')
        super().__init__([x], attrs={'shape': tuple(shape)}, name='reshape')

    def infer_output(self):
        return self.attrs['shape'], self.inputs[0].dtype

    def make_task(self) -> Task:
        x = self.inputs[0]
        out_shape = self.attrs['shape']
        tx = tensor_input(x.name, x.dtype, x.shape)

        def fcompute(*axes):
            flat = _linearize(axes, out_shape)
            return tx[tuple(_delinearize(flat, x.shape))]

        out = compute(f'{self.name}_out', out_shape, fcompute)
        inverse = InverseMap.from_lambda(
            lambda *in_axes: _delinearize(_linearize(in_axes, x.shape), out_shape),
            num_args=len(x.shape))
        return Task(self.name, [tx], out, inverse_maps={tx: inverse})

    def run_numpy(self, x: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(x).reshape(self.attrs['shape'])


class TransposeOp(Operator):
    def __init__(self, x: Tensor, perm: Sequence[int]):
        perm = tuple(int(p) for p in perm)
        if sorted(perm) != list(range(x.rank)):
            raise ValueError(f'invalid permutation {perm} for rank {x.rank}')
        super().__init__([x], attrs={'perm': perm}, name='transpose')

    def infer_output(self):
        x = self.inputs[0]
        perm = self.attrs['perm']
        return tuple(x.shape[p] for p in perm), x.dtype

    def make_task(self) -> Task:
        x = self.inputs[0]
        perm = self.attrs['perm']
        tx = tensor_input(x.name, x.dtype, x.shape)

        def fcompute(*axes):
            in_indices = [None] * len(perm)
            for out_dim, in_dim in enumerate(perm):
                in_indices[in_dim] = axes[out_dim]
            return tx[tuple(in_indices)]

        out = compute(f'{self.name}_out', self.output.shape, fcompute)
        inverse = InverseMap.from_lambda(
            lambda *in_axes: [in_axes[p] for p in perm], num_args=x.rank)
        return Task(self.name, [tx], out, inverse_maps={tx: inverse})

    def run_numpy(self, x: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(np.transpose(x, self.attrs['perm']))


class ConcatOp(Operator):
    def __init__(self, tensors: Sequence[Tensor], axis: int):
        if not tensors:
            raise ValueError('concat needs at least one tensor')
        rank = tensors[0].rank
        axis = axis % rank
        for t in tensors[1:]:
            if t.rank != rank:
                raise ValueError('concat inputs must have equal rank')
            for d in range(rank):
                if d != axis and t.shape[d] != tensors[0].shape[d]:
                    raise ValueError(f'concat shape mismatch on dim {d}')
        super().__init__(list(tensors), attrs={'axis': axis}, name='concat')

    def infer_output(self):
        axis = self.attrs['axis']
        shape = list(self.inputs[0].shape)
        shape[axis] = sum(t.shape[axis] for t in self.inputs)
        return tuple(shape), self.inputs[0].dtype

    def make_task(self) -> Task:
        axis = self.attrs['axis']
        t_inputs = [tensor_input(t.name, t.dtype, t.shape) for t in self.inputs]

        def fcompute(*axes):
            expr = None
            offset = 0
            pieces = []
            for ti in t_inputs:
                extent = ti.shape[axis]
                idx = list(axes)
                idx[axis] = axes[axis] - offset
                pieces.append((offset + extent, ti[tuple(idx)]))
                offset += extent
            # build the select chain from the last piece backwards
            expr = pieces[-1][1]
            for bound, piece in reversed(pieces[:-1]):
                expr = if_then_else(axes[axis] < bound, piece, expr)
            return expr

        out = compute(f'{self.name}_out', self.output.shape, fcompute)
        inverse_maps = {}
        offset = 0
        for ti in t_inputs:
            shift = offset

            def make(shift=shift, rank=len(ti.shape)):
                return InverseMap.from_lambda(
                    lambda *in_axes: [in_axes[d] + shift if d == axis else in_axes[d]
                                      for d in range(rank)],
                    num_args=rank)

            inverse_maps[ti] = make()
            offset += ti.shape[axis]
        return Task(self.name, t_inputs, out, inverse_maps=inverse_maps)

    def run_numpy(self, *arrays: np.ndarray) -> np.ndarray:
        return np.concatenate(arrays, axis=self.attrs['axis'])


class PadOp(Operator):
    """Zero padding of the last two (spatial) dimensions of an NCHW tensor."""

    def __init__(self, x: Tensor, padding: int | tuple[int, int], value: float = 0.0):
        if isinstance(padding, int):
            padding = (padding, padding)
        super().__init__([x], attrs={'padding': tuple(padding), 'value': float(value)},
                         name='pad')

    def infer_output(self):
        x = self.inputs[0]
        ph, pw = self.attrs['padding']
        shape = list(x.shape)
        shape[-2] += 2 * ph
        shape[-1] += 2 * pw
        return tuple(shape), x.dtype

    def make_task(self) -> Task:
        x = self.inputs[0]
        ph, pw = self.attrs['padding']
        fill = self.attrs['value']
        tx = tensor_input(x.name, x.dtype, x.shape)
        h, w = x.shape[-2], x.shape[-1]

        def fcompute(*axes):
            ih = axes[-2] - ph
            iw = axes[-1] - pw
            in_idx = list(axes[:-2]) + [ih, iw]
            in_bounds = logical_and(0 <= ih, ih < h, 0 <= iw, iw < w)
            return if_then_else(in_bounds, tx[tuple(in_idx)], fill)

        out = compute(f'{self.name}_out', self.output.shape, fcompute)
        return Task(self.name, [tx], out)

    def run_numpy(self, x: np.ndarray) -> np.ndarray:
        ph, pw = self.attrs['padding']
        width = [(0, 0)] * (x.ndim - 2) + [(ph, ph), (pw, pw)]
        return np.pad(x, width, constant_values=self.attrs['value'])


def _resolve_shape(x: Tensor, shape: Sequence[int]) -> tuple[int, ...]:
    shape = [int(s) for s in shape]
    if shape.count(-1) > 1:
        raise ValueError('at most one -1 dimension allowed in reshape')
    if -1 in shape:
        rest = math.prod(s for s in shape if s != -1)
        shape[shape.index(-1)] = x.num_elements // max(1, rest)
    return tuple(shape)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    return ReshapeOp(x, shape).output


def transpose(x: Tensor, perm: Sequence[int]) -> Tensor:
    return TransposeOp(x, perm).output


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    return ConcatOp(tensors, axis).output


def pad(x: Tensor, padding: int | tuple[int, int], value: float = 0.0) -> Tensor:
    return PadOp(x, padding, value).output


def flatten(x: Tensor, start_dim: int = 1) -> Tensor:
    shape = x.shape[:start_dim] + (math.prod(x.shape[start_dim:]),)
    return reshape(x, shape)
