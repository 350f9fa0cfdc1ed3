"""Expression nodes of the tensor-program IR.

The expression tree is deliberately small: variables, constants, binary and
unary arithmetic, tensor-element access, type casts, a ternary select, and
calls to GPU primitives.  Python operators are overloaded on :class:`Expr`
so programs read like the pseudo-code in the paper::

    SmemA[i, k] = A[i + blockIdx.x * 64, k0 * 8 + k]
"""
from __future__ import annotations

import math
from typing import Sequence, Union

from .types import DataType, TensorType, data_type, i32, boolean

__all__ = [
    'Expr', 'Var', 'Constant', 'BinaryExpr', 'UnaryExpr', 'Cast',
    'TensorElement', 'IfThenElse', 'Call', 'ThreadIndex', 'BlockIndex',
    'convert', 'var', 'tensor_var', 'scalar_var', 'const',
    'logical_and', 'logical_or', 'logical_not', 'if_then_else', 'cast',
    'min_expr', 'max_expr', 'thread_idx', 'block_idx', 'ExprLike',
]

ExprLike = Union['Expr', int, float, bool]


class Expr:
    """Base class of all IR expressions."""

    __slots__ = ()

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):  return BinaryExpr('+', self, convert(other))
    def __radd__(self, other): return BinaryExpr('+', convert(other), self)
    def __sub__(self, other):  return BinaryExpr('-', self, convert(other))
    def __rsub__(self, other): return BinaryExpr('-', convert(other), self)
    def __mul__(self, other):  return BinaryExpr('*', self, convert(other))
    def __rmul__(self, other): return BinaryExpr('*', convert(other), self)
    def __truediv__(self, other):  return BinaryExpr('/', self, convert(other))
    def __rtruediv__(self, other): return BinaryExpr('/', convert(other), self)
    def __floordiv__(self, other):  return BinaryExpr('//', self, convert(other))
    def __rfloordiv__(self, other): return BinaryExpr('//', convert(other), self)
    def __mod__(self, other):  return BinaryExpr('%', self, convert(other))
    def __rmod__(self, other): return BinaryExpr('%', convert(other), self)
    def __neg__(self): return UnaryExpr('-', self)

    # -- comparison (returns boolean expressions) -------------------------
    def __lt__(self, other): return BinaryExpr('<', self, convert(other))
    def __le__(self, other): return BinaryExpr('<=', self, convert(other))
    def __gt__(self, other): return BinaryExpr('<', convert(other), self)
    def __ge__(self, other): return BinaryExpr('<=', convert(other), self)

    def equals(self, other) -> 'BinaryExpr':
        """Element equality as an IR expression (``==`` is kept for hashing)."""
        return BinaryExpr('==', self, convert(other))

    def not_equals(self, other) -> 'BinaryExpr':
        return BinaryExpr('!=', self, convert(other))

    # -- indexing ----------------------------------------------------------
    def __getitem__(self, indices) -> 'TensorElement':
        if not isinstance(indices, tuple):
            indices = (indices,)
        return TensorElement(self, tuple(convert(i) for i in indices))

    def __repr__(self) -> str:
        from .tools import expr_repr
        return expr_repr(self)

    def __bool__(self):
        raise TypeError(
            'IR expressions have no Python truth value; use logical_and/or/not '
            'and if_then_else to build conditions.'
        )


class Var(Expr):
    """A named variable, either scalar (``dtype``) or tensor (``TensorType``)."""

    __slots__ = ('name', 'type', '_id')
    _counter = 0

    def __init__(self, name: str, type: DataType | TensorType):
        self.name = name
        self.type = type
        Var._counter += 1
        self._id = Var._counter

    @property
    def is_tensor(self) -> bool:
        return isinstance(self.type, TensorType)


class Constant(Expr):
    """A scalar literal with an explicit data type."""

    __slots__ = ('value', 'dtype')

    def __init__(self, value, dtype: DataType | str):
        self.dtype = data_type(dtype)
        self.value = self.dtype.cast_py(value)


#: Binary operator kinds and their python semantics (used by the constant
#: folder; the interpreter keeps ``&&``/``||`` lazy).
PY_BINARY = {
    '+': lambda a, b: a + b,
    '-': lambda a, b: a - b,
    '*': lambda a, b: a * b,
    '/': lambda a, b: a / b,
    '//': lambda a, b: a // b,
    '%': lambda a, b: a % b,
    'min': min,
    'max': max,
    '<': lambda a, b: a < b,
    '<=': lambda a, b: a <= b,
    '==': lambda a, b: a == b,
    '!=': lambda a, b: a != b,
    '&&': lambda a, b: bool(a) and bool(b),
    '||': lambda a, b: bool(a) or bool(b),
}
BINARY_OP_KINDS = tuple(PY_BINARY)

#: Binding strength of the infix binary operators in printed IR and CUDA
#: (higher binds tighter); ``min``/``max`` print as calls.
BINARY_PRECEDENCE = {
    '||': 1, '&&': 2, '==': 3, '!=': 3, '<': 4, '<=': 4,
    '+': 5, '-': 5, '*': 6, '/': 6, '//': 6, '%': 6,
}


class BinaryExpr(Expr):
    __slots__ = ('op', 'a', 'b')

    def __init__(self, op: str, a: Expr, b: Expr):
        if op not in BINARY_OP_KINDS:
            raise ValueError(f'unknown binary op {op!r}')
        self.op = op
        self.a = a
        self.b = b


#: Unary operator kinds (arithmetic negation, logical not, and math
#: intrinsics) and their python semantics.
PY_UNARY = {
    '-': lambda a: -a,
    '!': lambda a: not a,
    'exp': math.exp, 'log': math.log, 'sqrt': math.sqrt,
    'rsqrt': lambda a: 1.0 / math.sqrt(a),
    'abs': abs, 'tanh': math.tanh, 'erf': math.erf,
    'floor': math.floor, 'ceil': math.ceil,
    'sigmoid': lambda a: 1.0 / (1.0 + math.exp(-a)),
}
UNARY_OP_KINDS = tuple(PY_UNARY)


class UnaryExpr(Expr):
    __slots__ = ('op', 'a')

    def __init__(self, op: str, a: Expr):
        if op not in UNARY_OP_KINDS:
            raise ValueError(f'unknown unary op {op!r}')
        self.op = op
        self.a = a


class Cast(Expr):
    __slots__ = ('expr', 'dtype')

    def __init__(self, expr: Expr, dtype: DataType | str):
        self.expr = expr
        self.dtype = data_type(dtype)


class TensorElement(Expr):
    """``base[indices]`` — element read of a tensor variable."""

    __slots__ = ('base', 'indices')

    def __init__(self, base: Expr, indices: tuple[Expr, ...]):
        self.base = base
        self.indices = indices


class IfThenElse(Expr):
    """Ternary select ``cond ? a : b``."""

    __slots__ = ('cond', 'then_expr', 'else_expr')

    def __init__(self, cond: Expr, then_expr: Expr, else_expr: Expr):
        self.cond = cond
        self.then_expr = then_expr
        self.else_expr = else_expr


class Call(Expr):
    """Call to a named GPU primitive (e.g. ``__shfl_down_sync``, ``atomic_add``)."""

    __slots__ = ('func_name', 'args')

    def __init__(self, func_name: str, args: Sequence[Expr]):
        self.func_name = func_name
        self.args = tuple(args)


class ThreadIndex(Expr):
    """``threadIdx.{x,y,z}`` — bound per-thread by the interpreter/hardware."""

    __slots__ = ('dim',)

    def __init__(self, dim: str = 'x'):
        if dim not in ('x', 'y', 'z'):
            raise ValueError(f'invalid thread index dim {dim!r}')
        self.dim = dim


class BlockIndex(Expr):
    """``blockIdx.{x,y,z}`` — bound per-block by the interpreter/hardware."""

    __slots__ = ('dim',)

    def __init__(self, dim: str = 'x'):
        if dim not in ('x', 'y', 'z'):
            raise ValueError(f'invalid block index dim {dim!r}')
        self.dim = dim


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def convert(value: ExprLike) -> Expr:
    """Convert a python scalar to a :class:`Constant`; pass expressions through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return Constant(value, boolean)
    if isinstance(value, int):
        return Constant(value, i32)
    if isinstance(value, float):
        return Constant(value, 'float32')
    raise TypeError(f'cannot convert {type(value).__name__} to IR expression')


def var(name: str, dtype: DataType | str = i32) -> Var:
    """Create a scalar variable (defaults to ``i32``, the index type)."""
    return Var(name, data_type(dtype))


scalar_var = var


def tensor_var(name: str, dtype: DataType | str, shape: Sequence[int], scope: str = 'global') -> Var:
    """Create a tensor variable with the given element type, shape and scope."""
    return Var(name, TensorType(dtype, shape, scope))


def const(value, dtype: DataType | str = None) -> Constant:
    if dtype is not None:
        return Constant(value, dtype)
    return convert(value)  # type: ignore[return-value]


def logical_and(*conds: ExprLike) -> Expr:
    conds = [convert(c) for c in conds]
    if not conds:
        return Constant(True, boolean)
    result = conds[0]
    for cond in conds[1:]:
        result = BinaryExpr('&&', result, cond)
    return result


def logical_or(*conds: ExprLike) -> Expr:
    conds = [convert(c) for c in conds]
    if not conds:
        return Constant(False, boolean)
    result = conds[0]
    for cond in conds[1:]:
        result = BinaryExpr('||', result, cond)
    return result


def logical_not(cond: ExprLike) -> Expr:
    return UnaryExpr('!', convert(cond))


def if_then_else(cond: ExprLike, then_expr: ExprLike, else_expr: ExprLike) -> IfThenElse:
    return IfThenElse(convert(cond), convert(then_expr), convert(else_expr))


def cast(expr: ExprLike, dtype: DataType | str) -> Cast:
    return Cast(convert(expr), dtype)


def min_expr(a: ExprLike, b: ExprLike) -> BinaryExpr:
    return BinaryExpr('min', convert(a), convert(b))


def max_expr(a: ExprLike, b: ExprLike) -> BinaryExpr:
    return BinaryExpr('max', convert(a), convert(b))


def thread_idx(dim: str = 'x') -> ThreadIndex:
    return ThreadIndex(dim)


def block_idx(dim: str = 'x') -> BlockIndex:
    return BlockIndex(dim)
