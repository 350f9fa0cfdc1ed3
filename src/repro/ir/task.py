"""Operator tasks: the unit handed to scheduling and fusion.

A :class:`Task` bundles an operator's computation definition (inputs and
output as :mod:`repro.ir.compute` nodes) with the metadata fusion needs:

* ``is_injective`` — no reduction: the op qualifies as a *prologue* when it
  produces an anchor input (paper §4.2);
* ``is_bijective`` — injective and each input element feeds exactly one
  output element: the op qualifies as an *epilogue*;
* ``inverse_maps`` — for bijective ops, the explicit inverse index map per
  input: given the indices at which the op *reads* its input, where does the
  result land in the op's output?  Post-scheduling fusion uses this to
  redirect the anchor's stores through the epilogue chain (Figure 15).
"""
from __future__ import annotations

from typing import Callable, Optional, Sequence

from .compute import GridCompute, TensorInput, TensorNode
from .expr import Expr, Var, convert, var as make_var

__all__ = ['Task', 'InverseMap', 'identity_inverse_map']


class InverseMap:
    """Bijective index map from an input's indices to the output's indices.

    ``axes`` are placeholder variables for the *input* element index;
    ``indices`` give the output element that input element contributes to.
    For an elementwise op this is the identity; for ``transpose`` it is the
    axis permutation; for ``reshape`` it is unflatten∘flatten.
    """

    def __init__(self, axes: Sequence[Var], indices: Sequence[Expr]):
        self.axes = tuple(axes)
        self.indices = tuple(convert(i) for i in indices)

    @staticmethod
    def from_lambda(fn: Callable[..., Sequence[Expr]], num_args: int) -> 'InverseMap':
        axes = tuple(make_var(f'x{k}', 'int32') for k in range(num_args))
        indices = fn(*axes)
        if isinstance(indices, Expr):
            indices = [indices]
        return InverseMap(axes, indices)

    def apply(self, input_indices: Sequence[Expr]) -> tuple[Expr, ...]:
        """Map concrete input indices to output indices."""
        from .tools import substitute
        if len(input_indices) != len(self.axes):
            raise ValueError(
                f'inverse map expects {len(self.axes)} indices, got {len(input_indices)}')
        mapping = {axis: convert(i) for axis, i in zip(self.axes, input_indices)}
        return tuple(substitute(i, mapping) for i in self.indices)


def identity_inverse_map(rank: int) -> InverseMap:
    """The identity inverse map of an elementwise operator."""
    return InverseMap.from_lambda(lambda *axes: list(axes), rank)


def _tensor_key(t: TensorNode) -> tuple:
    return (t.dtype.name, t.shape)


def _attr_value(v):
    """A task attribute as plain, process-stable data."""
    if isinstance(v, (tuple, list)):
        return tuple(_attr_value(x) for x in v)
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    return repr(v)


class Task:
    """An operator's computation: inputs, single output, fusion metadata."""

    def __init__(self, name: str, inputs: Sequence[TensorInput], output: GridCompute,
                 inverse_maps: Optional[dict[TensorInput, InverseMap]] = None,
                 attrs: Optional[dict] = None):
        self.name = name
        self.inputs = tuple(inputs)
        self.output = output
        self.inverse_maps = dict(inverse_maps or {})
        self.attrs = dict(attrs or {})

    # -- fusion classification (paper §4.2) ---------------------------------

    @property
    def is_injective(self) -> bool:
        """True when the output contains no reduction."""
        return self.output.is_injective

    @property
    def is_bijective(self) -> bool:
        """True when injective and every input has an inverse index map."""
        return self.is_injective and all(inp in self.inverse_maps for inp in self.inputs)

    # -- compilation-cache signature ---------------------------------------

    def signature_key(self) -> tuple:
        """Canonical, process-stable description of the scheduling problem.

        Captures everything template dispatch and tuning depend on — task
        kind, operand shapes and dtypes, and scalar attributes (``m``/``n``/
        ``k``, ``batch``, ``reduce_size``, ...) — and nothing tied to object
        identity, so the same model built twice (or in another process)
        yields equal keys.  The runtime hashes this, together with the device
        spec and the fused prologue/epilogue shape, into the
        content-addressed signature of the compilation cache
        (:func:`repro.runtime.cache.task_signature`).
        """
        attrs = tuple(sorted((k, _attr_value(v)) for k, v in self.attrs.items()))
        return (self.name,
                tuple(_tensor_key(i) for i in self.inputs),
                _tensor_key(self.output),
                attrs)

    def inverse_map_of(self, inp: TensorInput) -> InverseMap:
        try:
            return self.inverse_maps[inp]
        except KeyError:
            raise KeyError(f'task {self.name!r} has no inverse map for input {inp.name!r}') from None

    def __repr__(self) -> str:
        ins = ', '.join(f'{i.name}{list(i.shape)}' for i in self.inputs)
        return f'Task({self.name}: ({ins}) -> {self.output.name}{list(self.output.shape)})'
