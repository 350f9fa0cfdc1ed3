"""Operator base class.

Every operator supplies three things:

* shape/dtype inference (``infer_output``);
* a computation definition (``make_task``) — the input to scheduling and the
  source of the fusion classification (injective / bijective, paper §4.2);
* a numpy reference implementation (``run_numpy``) — ground truth for the
  functional tests and for graph-level reference execution.
"""
from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .tensor import Tensor
from ..ir.task import Task
from ..ir.types import DataType

__all__ = ['Operator']


class Operator:
    #: operators with higher anchor priority are scheduled as sub-graph anchors
    #: first (matmul-class ops get templates; 0 = plain op)
    anchor_priority: int = 0

    def __init__(self, inputs: Sequence[Tensor], attrs: Optional[dict] = None,
                 name: str = ''):
        self.inputs: list[Tensor] = list(inputs)
        self.attrs = dict(attrs or {})
        self.name = name or type(self).__name__.replace('Op', '').lower()
        shape, dtype = self.infer_output()
        self.output = Tensor(shape, dtype, producer=self, name=f'{self.name}_out')

    # -- to be implemented by concrete operators -----------------------------

    def infer_output(self) -> tuple[tuple[int, ...], DataType | str]:
        raise NotImplementedError

    def make_task(self) -> Task:
        raise NotImplementedError

    def run_numpy(self, *arrays: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- derived -----------------------------------------------------------

    @cached_property
    def task(self) -> Task:
        task = self.make_task()
        if len(task.inputs) != len(self.inputs):
            raise RuntimeError(
                f'{self.name}: task has {len(task.inputs)} inputs but the '
                f'operator has {len(self.inputs)}')
        for ti, tensor in zip(task.inputs, self.inputs):
            if ti.shape != tensor.shape:
                raise RuntimeError(
                    f'{self.name}: task input {ti.name!r} shape {ti.shape} does '
                    f'not match tensor shape {tensor.shape}')
        if task.output.shape != self.output.shape:
            raise RuntimeError(
                f'{self.name}: task output shape {task.output.shape} does not '
                f'match inferred shape {self.output.shape}')
        return task

    @cached_property
    def is_injective(self) -> bool:
        return self.task.is_injective

    @property
    def is_bijective(self) -> bool:
        return self.task.is_bijective

    def __repr__(self) -> str:
        ins = ', '.join(t.name for t in self.inputs)
        return f'{self.name}({ins}) -> {self.output.name}{list(self.output.shape)}'
