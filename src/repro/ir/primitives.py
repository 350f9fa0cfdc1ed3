"""GPU primitive functions available as :class:`~repro.ir.expr.Call` targets.

The interpreter and code generator both understand this closed set.  Each
primitive records its CUDA spelling for codegen.
"""
from __future__ import annotations

from .expr import Call, ExprLike, Var, convert

__all__ = ['PRIMITIVES', 'atomic_add', 'fma', 'shfl_down', 'shfl_xor']

#: primitive name -> CUDA source spelling
PRIMITIVES: dict[str, str] = {
    'atomic_add': 'atomicAdd',
    'fma': '__fmaf_rn',
    'shfl_down': '__shfl_down_sync',
    'shfl_xor': '__shfl_xor_sync',
}


def atomic_add(buf: Var, indices, value: ExprLike) -> Call:
    """``atomicAdd(&buf[indices], value)`` — used by split-k accumulation."""
    args = [buf, *[convert(i) for i in indices], convert(value)]
    return Call('atomic_add', args)


def fma(a: ExprLike, b: ExprLike, c: ExprLike) -> Call:
    """Fused multiply-add ``a * b + c``."""
    return Call('fma', [convert(a), convert(b), convert(c)])


def shfl_down(value: ExprLike, delta: int) -> Call:
    """Warp shuffle-down (modeled by the interpreter at warp granularity)."""
    return Call('shfl_down', [convert(value), convert(delta)])


def shfl_xor(value: ExprLike, mask: int) -> Call:
    return Call('shfl_xor', [convert(value), convert(mask)])
