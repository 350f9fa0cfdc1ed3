"""Type system of the tensor-program IR.

Two families of types exist:

* :class:`DataType` — scalar types (``f32``, ``f16``, ``i32``, ...), each with
  a fixed byte width and a numpy counterpart used by the interpreter.
* :class:`TensorType` — a statically-shaped tensor of a scalar type living in
  one of the GPU memory scopes (global, shared, or register memory).

Shapes are static integers: Hidet tunes and compiles one kernel per concrete
input size (hardware-centric schedules make that cheap), so the IR never needs
symbolic shapes.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    'DataType', 'TensorType', 'MemoryScope',
    'f64', 'f32', 'f16', 'i64', 'i32', 'i8', 'u8', 'boolean',
    'data_type', 'tensor_type',
]


class DataType:
    """A scalar data type (name, byte width, numpy dtype)."""

    _registry: dict[str, 'DataType'] = {}

    def __init__(self, name: str, short_name: str, nbytes: int, np_dtype, is_float: bool, is_integer: bool):
        self.name = name
        self.short_name = short_name
        self.nbytes = nbytes
        self.np_dtype = np_dtype
        self.is_float = is_float
        self.is_integer = is_integer
        DataType._registry[name] = self
        DataType._registry[short_name] = self

    def __repr__(self) -> str:
        return self.short_name

    def __eq__(self, other) -> bool:
        return isinstance(other, DataType) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def cast_py(self, value):
        """Cast a python scalar to this type's semantics (used by the interpreter)."""
        if self.is_float:
            return float(np.asarray(value, dtype=self.np_dtype))
        if self.name == 'bool':
            return bool(value)
        return int(np.asarray(value, dtype=self.np_dtype))

    @staticmethod
    def from_name(name: str) -> 'DataType':
        if name not in DataType._registry:
            raise ValueError(f'unknown data type: {name!r}')
        return DataType._registry[name]


f64 = DataType('float64', 'f64', 8, np.float64, True, False)
f32 = DataType('float32', 'f32', 4, np.float32, True, False)
f16 = DataType('float16', 'f16', 2, np.float16, True, False)
i64 = DataType('int64', 'i64', 8, np.int64, False, True)
i32 = DataType('int32', 'i32', 4, np.int32, False, True)
i8 = DataType('int8', 'i8', 1, np.int8, False, True)
u8 = DataType('uint8', 'u8', 1, np.uint8, False, True)
boolean = DataType('bool', 'bool', 1, np.bool_, False, False)


def data_type(dtype: 'DataType | str') -> DataType:
    """Normalize a dtype given either as a :class:`DataType` or by name."""
    if isinstance(dtype, DataType):
        return dtype
    return DataType.from_name(dtype)


class MemoryScope:
    """GPU memory scopes for tensor buffers."""

    GLOBAL = 'global'
    SHARED = 'shared'
    REGISTER = 'register'

    ALL = (GLOBAL, SHARED, REGISTER)


class TensorType:
    """A statically-shaped tensor type: scalar dtype, shape, memory scope."""

    def __init__(self, dtype: DataType | str, shape: Sequence[int], scope: str = MemoryScope.GLOBAL):
        self.dtype: DataType = data_type(dtype)
        self.shape: tuple[int, ...] = tuple(int(s) for s in shape)
        if any(s < 0 for s in self.shape):
            raise ValueError(f'tensor shape must be non-negative, got {self.shape}')
        if scope not in MemoryScope.ALL:
            raise ValueError(f'unknown memory scope: {scope!r}')
        self.scope = scope

    def __repr__(self) -> str:
        dims = ', '.join(str(s) for s in self.shape)
        return f'{self.scope} {self.dtype}[{dims}]'

    def __eq__(self, other) -> bool:
        return (isinstance(other, TensorType) and self.dtype == other.dtype
                and self.shape == other.shape and self.scope == other.scope)

    def __hash__(self) -> int:
        return hash((self.dtype, self.shape, self.scope))

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def num_elements(self) -> int:
        return math.prod(self.shape) if self.shape else 1

    @property
    def nbytes(self) -> int:
        return self.num_elements * self.dtype.nbytes

    def with_scope(self, scope: str) -> 'TensorType':
        return TensorType(self.dtype, self.shape, scope)


def tensor_type(dtype: DataType | str, shape: Sequence[int], scope: str = MemoryScope.GLOBAL) -> TensorType:
    """Construct a :class:`TensorType` (convenience mirror of Hidet's API)."""
    return TensorType(dtype, shape, scope)
