"""Graph-level tensors.

A :class:`Tensor` is an edge of the computation graph: it has a static shape
and dtype, may carry constant data (weights after import / constant folding),
and records which :class:`~repro.graph.operator.Operator` produced it.
Symbolic tensors (no data, no producer) are graph inputs.

A constant holds either its array or a ``compute`` callable that produces
it.  :meth:`Tensor.numpy` is the only way to read a value: it materializes a
lazy constant once and caches the array.  Compiling, tuning and serving only
look at shapes and dtypes, so they never materialize a weight.
"""
from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..ir.types import DataType, data_type

__all__ = ['Tensor', 'symbol', 'from_numpy', 'randn']


class Tensor:
    _counter = 0

    def __init__(self, shape: Sequence[int], dtype: DataType | str = 'float32',
                 data: Optional[np.ndarray] = None, producer=None, name: str = '',
                 compute: Optional[Callable[[], np.ndarray]] = None):
        self.shape: tuple[int, ...] = tuple(int(s) for s in shape)
        self.dtype: DataType = data_type(dtype)
        self._data: Optional[np.ndarray] = None
        self._compute = compute    # lazy constant: produces the value once
        self.producer = producer   # Operator or None
        Tensor._counter += 1
        self._id = Tensor._counter
        self.name = name or f't{self._id}'
        if data is not None:
            self._set_value(data)

    # -- classification -----------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return self._data is not None or self._compute is not None

    @property
    def is_materialized(self) -> bool:
        """Whether this constant's value has been computed (or was given)."""
        return self._data is not None

    @property
    def is_symbolic(self) -> bool:
        return not self.is_constant and self.producer is None

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def num_elements(self) -> int:
        out = 1
        for s in self.shape:
            out *= s
        return out

    @property
    def nbytes(self) -> int:
        return self.num_elements * self.dtype.nbytes

    def numpy(self) -> np.ndarray:
        """The constant's value, computed on first read and then cached."""
        if self._data is None:
            if self._compute is None:
                raise ValueError(f'tensor {self.name!r} has no constant data')
            self._set_value(self._compute())
        return self._data

    def _set_value(self, value: np.ndarray) -> None:
        if tuple(value.shape) != self.shape:
            raise ValueError(f'tensor {self.name!r}: value shape {tuple(value.shape)} '
                             f'!= tensor shape {self.shape}')
        self._data, self._compute = value, None

    def __repr__(self) -> str:
        kind = 'const' if self.is_constant else ('sym' if self.is_symbolic else 'op')
        return f'Tensor({self.name}: {self.dtype}{list(self.shape)}, {kind})'

    # -- operator sugar (defers to graph.ops to avoid import cycles) --------

    def _binary(self, fn_name: str, other):
        from . import ops
        if not isinstance(other, Tensor):
            other = from_scalar(other)
        return getattr(ops, fn_name)(self, other)

    def __add__(self, other):
        return self._binary('add', other)

    def __radd__(self, other):
        return self._binary('add', other)

    def __sub__(self, other):
        return self._binary('sub', other)

    def __mul__(self, other):
        return self._binary('mul', other)

    def __rmul__(self, other):
        return self._binary('mul', other)

    def __truediv__(self, other):
        return self._binary('div', other)

    def reshape(self, shape: Sequence[int]) -> 'Tensor':
        from . import ops
        return ops.reshape(self, shape)

    def transpose(self, perm: Sequence[int]) -> 'Tensor':
        from . import ops
        return ops.transpose(self, perm)


def symbol(shape: Sequence[int], dtype='float32', name: str = '') -> Tensor:
    """Create a symbolic graph-input tensor."""
    return Tensor(shape, dtype, name=name)


def from_numpy(array: np.ndarray, name: str = '') -> Tensor:
    """Wrap a numpy array as a constant tensor."""
    dtype = {np.dtype('float32'): 'float32', np.dtype('float64'): 'float64',
             np.dtype('int64'): 'int64', np.dtype('int32'): 'int32',
             np.dtype('bool'): 'bool'}.get(array.dtype)
    if dtype is None:
        raise ValueError(f'unsupported numpy dtype {array.dtype}')
    return Tensor(array.shape, dtype, data=array, name=name)


def from_scalar(value: float, name: str = '') -> Tensor:
    return from_numpy(np.asarray(value, dtype=np.float32).reshape(()), name=name)


def randn(shape: Sequence[int], dtype='float32', seed: Optional[int] = None,
          scale: float = 1.0, name: str = '') -> Tensor:
    """A constant tensor of seeded gaussian values (stand-in for weights)."""
    rng = np.random.default_rng(seed)
    return Tensor(shape, dtype, data=(rng.standard_normal(shape) * scale).astype(np.float32),
                  name=name)

