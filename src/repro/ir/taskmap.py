"""Task mappings — the core abstraction of the task-mapping programming paradigm.

A *task mapping* (paper §5.1) assigns a grid of tasks to a set of workers and
fixes the order in which each worker executes its tasks:

* ``W_n = {0, 1, ..., n-1}`` is the worker set;
* ``T = {(t_0, ..., t_{m-1}) | 0 <= t_i < d_i}`` is the task domain with task
  shape ``d``;
* a mapping ``f`` sends each worker ``w`` to an *ordered list* of tasks.

Two basic mappings exist: :func:`repeat` (one worker executes a whole grid of
tasks sequentially) and :func:`spatial` (a grid of tasks is executed by the
same number of workers, one task each).  Mappings compose with ``*``
(the paper's ``∘``/``×``)::

    f3 = f1 * f2
    f3(w) = [t1 ⊙ d2 + t2  for t1 in f1(w // n2)  for t2 in f2(w % n2)]

Composition is associative but not commutative.

The same ``worker2task`` definition serves two purposes:

* given a **concrete** worker id (int), it enumerates that worker's tasks —
  used by the interpreter-free analyses and by tests;
* given a **symbolic** worker (an IR :class:`~repro.ir.expr.Expr`), it builds
  index expressions — used by the ``lower_task_mapping`` pass to turn
  ``ForTaskStmt`` into plain loops, exactly as in Figure 8 of the paper.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence, Union

from .expr import Expr

__all__ = [
    'TaskMapping', 'RepeatTaskMapping', 'SpatialTaskMapping',
    'ComposedTaskMapping', 'CustomTaskMapping',
    'repeat', 'spatial', 'column_repeat', 'column_spatial', 'auto_map',
]

Index = Union[int, Expr]


def _normalize_ranks(num_dims: int, ranks: Sequence[int] | None) -> tuple[int, ...]:
    if ranks is None:
        return tuple(range(num_dims))
    ranks = tuple(int(r) for r in ranks)
    if sorted(ranks) != list(range(num_dims)):
        raise ValueError(f'ranks must be a permutation of 0..{num_dims - 1}, got {ranks}')
    return ranks


def _is_symbolic(worker: Index) -> bool:
    return isinstance(worker, Expr)


class TaskMapping:
    """Base class for task mappings.

    Attributes
    ----------
    task_shape:
        Shape ``d`` of the task domain.
    num_workers:
        Size ``n`` of the worker set.
    """

    def __init__(self, task_shape: Sequence[int], num_workers: int):
        self.task_shape: tuple[int, ...] = tuple(int(d) for d in task_shape)
        if any(d <= 0 for d in self.task_shape):
            raise ValueError(f'task shape must be positive, got {self.task_shape}')
        self.num_workers = int(num_workers)
        if self.num_workers <= 0:
            raise ValueError('a task mapping needs at least one worker')

    # -- core interface ----------------------------------------------------

    def worker2task(self, worker: Index) -> list[tuple[Index, ...]]:
        """The ordered task list of ``worker`` (concrete int or symbolic Expr)."""
        raise NotImplementedError

    # -- derived queries -----------------------------------------------------

    @property
    def num_tasks(self) -> int:
        return math.prod(self.task_shape)

    @property
    def tasks_per_worker(self) -> int:
        """Number of tasks each worker executes (all mappings here are balanced)."""
        return self.num_tasks // self.num_workers

    def __call__(self, worker: Index) -> list[tuple[Index, ...]]:
        return self.worker2task(worker)

    def __mul__(self, other: 'TaskMapping') -> 'ComposedTaskMapping':
        return ComposedTaskMapping(self, other)

    def task2workers(self) -> dict[tuple[int, ...], list[int]]:
        """Inverse map: task -> workers executing it (for analyses and tests)."""
        inverse: dict[tuple[int, ...], list[int]] = {}
        for w in range(self.num_workers):
            for task in self.worker2task(w):
                inverse.setdefault(tuple(int(t) for t in task), []).append(w)
        return inverse

    def __repr__(self) -> str:
        return self._repr()

    def _repr(self) -> str:
        raise NotImplementedError


class RepeatTaskMapping(TaskMapping):
    """``repeat(d0, ..., dm)`` — a single worker executes the whole task grid.

    The execution order follows ``ranks``: the dimension with the largest rank
    varies fastest (row-major by default).
    """

    def __init__(self, task_shape: Sequence[int], ranks: Sequence[int] | None = None):
        super().__init__(task_shape, num_workers=1)
        self.ranks = _normalize_ranks(len(self.task_shape), ranks)

    def worker2task(self, worker: Index) -> list[tuple[Index, ...]]:
        # Enumeration does not depend on the worker (there is exactly one).
        num_dims = len(self.task_shape)
        order = sorted(range(num_dims), key=lambda i: self.ranks[i])  # most significant first
        tasks: list[tuple[Index, ...]] = []

        def rec(level: int, indices: dict[int, int]):
            if level == num_dims:
                tasks.append(tuple(indices[i] for i in range(num_dims)))
                return
            dim = order[level]
            for v in range(self.task_shape[dim]):
                indices[dim] = v
                rec(level + 1, indices)

        rec(0, {})
        return tasks

    def _repr(self) -> str:
        dims = ', '.join(str(d) for d in self.task_shape)
        if self.ranks != tuple(range(len(self.task_shape))):
            return f'repeat({dims}, ranks={list(self.ranks)})'
        return f'repeat({dims})'


class SpatialTaskMapping(TaskMapping):
    """``spatial(d0, ..., dm)`` — one task per worker.

    Worker ``w`` is de-linearized over the task shape in rank order (row-major
    by default, so the last dimension is contiguous across consecutive
    workers — the coalescing-friendly choice for memory loads).
    """

    def __init__(self, task_shape: Sequence[int], ranks: Sequence[int] | None = None):
        super().__init__(task_shape, num_workers=math.prod(task_shape))
        self.ranks = _normalize_ranks(len(self.task_shape), ranks)

    def worker2task(self, worker: Index) -> list[tuple[Index, ...]]:
        num_dims = len(self.task_shape)
        # strides[i] = product of extents of dims with rank greater than rank(i)
        strides = [1] * num_dims
        for i in range(num_dims):
            for j in range(num_dims):
                if self.ranks[j] > self.ranks[i]:
                    strides[i] *= self.task_shape[j]
        indices: list[Index] = []
        for i in range(num_dims):
            if _is_symbolic(worker):
                idx: Index = (worker // strides[i]) % self.task_shape[i]
            else:
                idx = (int(worker) // strides[i]) % self.task_shape[i]
            indices.append(idx)
        return [tuple(indices)]

    def _repr(self) -> str:
        dims = ', '.join(str(d) for d in self.task_shape)
        if self.ranks != tuple(range(len(self.task_shape))):
            return f'spatial({dims}, ranks={list(self.ranks)})'
        return f'spatial({dims})'


class ComposedTaskMapping(TaskMapping):
    """``f1 * f2`` — task-mapping composition (paper §5.1.2).

    The composed mapping has ``n1 * n2`` workers and task shape ``d1 ⊙ d2``::

        f3(w) = [t1 ⊙ d2 + t2 | t1 ∈ f1(w // n2), t2 ∈ f2(w % n2)]
    """

    def __init__(self, outer: TaskMapping, inner: TaskMapping):
        if len(outer.task_shape) != len(inner.task_shape):
            raise ValueError(
                f'cannot compose task mappings with different dimensionality: '
                f'{outer.task_shape} vs {inner.task_shape}'
            )
        shape = tuple(a * b for a, b in zip(outer.task_shape, inner.task_shape))
        super().__init__(shape, outer.num_workers * inner.num_workers)
        self.outer = outer
        self.inner = inner

    def worker2task(self, worker: Index) -> list[tuple[Index, ...]]:
        n2 = self.inner.num_workers
        if _is_symbolic(worker):
            outer_worker: Index = worker // n2
            inner_worker: Index = worker % n2
        else:
            outer_worker = int(worker) // n2
            inner_worker = int(worker) % n2
        d2 = self.inner.task_shape
        tasks: list[tuple[Index, ...]] = []
        for t1 in self.outer.worker2task(outer_worker):
            for t2 in self.inner.worker2task(inner_worker):
                tasks.append(tuple(a * d + b for a, d, b in zip(t1, d2, t2)))
        return tasks

    def _repr(self) -> str:
        return f'{self.outer!r} * {self.inner!r}'


class CustomTaskMapping(TaskMapping):
    """A user-defined task mapping (paper §5.1.1: "Hidet also allows developers
    to define custom task mappings by specifying the task shape, number of
    workers, and the mapping function").

    The mapping function must be *polymorphic*: it receives either an int or a
    symbolic worker expression and must use only ``//``, ``%``, ``+``, ``*``
    arithmetic so it works for both.
    """

    def __init__(self, task_shape: Sequence[int], num_workers: int,
                 func: Callable[[Index], list[tuple[Index, ...]]], name: str = 'custom'):
        super().__init__(task_shape, num_workers)
        self.func = func
        self.name = name

    def worker2task(self, worker: Index) -> list[tuple[Index, ...]]:
        tasks = self.func(worker)
        return [tuple(t) if isinstance(t, (tuple, list)) else (t,) for t in tasks]

    def _repr(self) -> str:
        dims = ', '.join(str(d) for d in self.task_shape)
        return f'{self.name}({dims})'


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def repeat(*task_shape: int, ranks: Sequence[int] | None = None) -> RepeatTaskMapping:
    """One worker executes the whole ``task_shape`` grid, row-major by default."""
    return RepeatTaskMapping(task_shape, ranks)


def spatial(*task_shape: int, ranks: Sequence[int] | None = None) -> SpatialTaskMapping:
    """``prod(task_shape)`` workers execute one task each, row-major by default."""
    return SpatialTaskMapping(task_shape, ranks)


def column_repeat(*task_shape: int) -> RepeatTaskMapping:
    """Like :func:`repeat` but iterating the first dimension fastest."""
    return RepeatTaskMapping(task_shape, ranks=tuple(reversed(range(len(task_shape)))))


def column_spatial(*task_shape: int) -> SpatialTaskMapping:
    """Like :func:`spatial` but de-linearizing the first dimension fastest."""
    return SpatialTaskMapping(task_shape, ranks=tuple(reversed(range(len(task_shape)))))


def auto_map(*task_shape: int, workers: int) -> TaskMapping:
    """Cover ``task_shape`` with ``workers`` workers: ``repeat(r) * spatial(s)``.

    Workers are assigned to the innermost dimensions first so that consecutive
    workers touch contiguous addresses (coalesced global-memory access), and
    remaining extent becomes per-worker repeats.  Used by the matmul template
    to derive cooperative-loading mappings like ``repeat(4, 1) * spatial(16, 8)``
    from Figure 8.
    """
    total = math.prod(task_shape)
    if total % workers != 0:
        raise ValueError(f'cannot evenly map {task_shape} tasks to {workers} workers')
    spatial_dims = [1] * len(task_shape)
    remaining = workers
    for i in reversed(range(len(task_shape))):
        take = math.gcd(task_shape[i], remaining)
        spatial_dims[i] = take
        remaining //= take
    if remaining != 1:
        raise ValueError(
            f'cannot factor {workers} workers over task shape {task_shape}; '
            f'left with factor {remaining}'
        )
    repeat_dims = [d // s for d, s in zip(task_shape, spatial_dims)]
    return RepeatTaskMapping(repeat_dims) * SpatialTaskMapping(spatial_dims)
