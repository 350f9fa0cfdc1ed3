"""Records kept as columns of plain scalars.

A long serving replay records a row per request, per batch and per span.
Kept as one object each, those rows are hundreds of thousands of live
objects that every full pass of the cyclic garbage collector walks again,
though none of them is ever freed before the run's result is.
:class:`Columns` keeps the rows of one record kind as one column per field
instead: ``float`` and ``int`` fields in :mod:`array` buffers, which the
collector does not track at all, every other field in a plain list.  A
record object exists only when a caller asks for the rows
(:meth:`Columns.rows`), and each ask builds a new list.
"""
from __future__ import annotations

import dataclasses
from array import array
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

__all__ = ['Columns']

#: array typecodes by field annotation (the annotations are strings)
_TYPECODES = {'float': 'd', 'int': 'q', float: 'd', int: 'q'}


class Columns:
    """The rows of one record kind, a dataclass, stored column by column.

    The columns are ``kind``'s fields in declaration order, except the
    fields named in ``derived`` (their values are handed to :meth:`rows`),
    followed by the ``extra`` columns, each given a type: ``float`` or
    ``int`` make an array column, anything else a list.  ``cols[name]`` is
    one column, to append to or to set one row of.
    """

    __slots__ = ('kind', '_cols', '_columns', '_first')

    def __init__(self, kind, *derived: str, **extra):
        self.kind = kind
        types = {f.name: f.type for f in dataclasses.fields(kind)
                 if f.name not in derived}
        types.update(extra)
        self._cols = {name: (array(_TYPECODES[t]) if t in _TYPECODES
                             else []) for name, t in types.items()}
        # the columns, not their bound ``append``s: a deep copy must
        # append to its own columns
        self._columns = tuple(self._cols.values())
        self._first = self._columns[0]

    def append(self, *row) -> int:
        """Add one row, its values in column order; returns its index."""
        for column, value in zip(self._columns, row):
            column.append(value)
        return len(self._first) - 1

    def __getitem__(self, name: str):
        return self._cols[name]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Columns) and self.kind is other.kind
                and self._cols == other._cols)

    def __len__(self) -> int:
        return len(self._first)

    def extend(self, count: int, *values) -> None:
        """Add ``count`` rows.  Each value, in column order, is a list of
        ``count`` values, or one value all the new rows share."""
        for column, value in zip(self._cols.values(), values):
            column.extend(value if isinstance(value, list)
                          else repeat(value, count))

    def numpy(self, name: str) -> np.ndarray:
        """A copy of one column as a numpy array."""
        return np.array(self._cols[name])

    def rows(self, order: Optional[Sequence[int]] = None, **derived) -> list:
        """One ``kind`` record per row, in ``order`` (row indices; default
        the recording order).  ``derived`` gives the values of the fields
        that are not stored, one per row of ``order``."""
        if order is not None:
            order = np.asarray(order).tolist()
        fields = []
        for f in dataclasses.fields(self.kind):
            if f.name in derived:
                fields.append(derived[f.name])
            elif order is None:
                fields.append(self._cols[f.name])
            else:
                fields.append(list(map(self._cols[f.name].__getitem__,
                                       order)))
        return list(map(self.kind, *fields))
