"""Task-mapping coverage: does every task get exactly one worker?

A mapping with a *hole* leaves output elements unwritten (uninitialized
memory); a mapping with *duplicate writers* makes two workers store to the
same element (a data race unless the value is identical).  The built-in
mapping algebra is exact by construction — ``spatial`` is a bijection,
``repeat`` enumerates its grid once, and a product of exact mappings is
exact — so those verdicts are analytic.  Anything containing a custom
mapping is checked by brute-force ``worker2task`` enumeration up to a
budget.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..ir.taskmap import (ComposedTaskMapping, RepeatTaskMapping,
                          SpatialTaskMapping, TaskMapping)

#: enumeration budget: max worker-task instances to expand for mappings that
#: have no analytic verdict (customs); beyond this the verdict is 'unproven'
DEFAULT_BUDGET = 1 << 16

#: how many offending task tuples a report keeps per category
SAMPLE_LIMIT = 5


@dataclass
class CoverageReport:
    """Verdict of :func:`check_coverage` for one mapping."""

    mapping: TaskMapping
    exact: bool                     # proven exactly-once coverage
    method: str                     # 'analytic' | 'enumerated' | 'budget-exceeded'
    holes: List[Tuple[int, ...]] = field(default_factory=list)
    duplicates: List[Tuple[Tuple[int, ...], int]] = field(default_factory=list)
    out_of_domain: List[Tuple[int, ...]] = field(default_factory=list)
    num_holes: int = 0
    num_duplicates: int = 0

    @property
    def proven(self) -> bool:
        """Did the check reach a definite verdict (either way)?"""
        return self.method != 'budget-exceeded'

    def describe(self) -> str:
        if self.exact:
            return f'exact ({self.method})'
        if not self.proven:
            return (f'unproven: enumeration over {self.mapping.num_workers} '
                    f'workers x {self.mapping.num_tasks} tasks exceeds budget')
        parts = []
        if self.num_holes:
            parts.append(f'{self.num_holes} uncovered task(s), '
                         f'e.g. {self.holes[:SAMPLE_LIMIT]}')
        if self.num_duplicates:
            sample = [f'{task} x{count}'
                      for task, count in self.duplicates[:SAMPLE_LIMIT]]
            parts.append(f'{self.num_duplicates} task(s) with duplicate '
                         f'writers, e.g. {sample}')
        if self.out_of_domain:
            parts.append(f'tasks outside the domain, '
                         f'e.g. {self.out_of_domain[:SAMPLE_LIMIT]}')
        return '; '.join(parts) or 'not exact'


def _analytic_exact(mapping: TaskMapping) -> Optional[bool]:
    """True if exact by construction, None if no analytic verdict."""
    if isinstance(mapping, (RepeatTaskMapping, SpatialTaskMapping)):
        # repeat: one worker enumerates the full grid once (ranks are a
        # permutation); spatial: worker <-> task is a bijection
        return True
    if isinstance(mapping, ComposedTaskMapping):
        outer = _analytic_exact(mapping.outer)
        inner = _analytic_exact(mapping.inner)
        if outer and inner:
            # the product of two exactly-once mappings tiles the product
            # domain exactly once
            return True
        return None
    return None


def check_coverage(mapping: TaskMapping,
                   budget: int = DEFAULT_BUDGET) -> CoverageReport:
    """Prove (or refute) that ``mapping`` covers its domain exactly once."""
    if _analytic_exact(mapping):
        return CoverageReport(mapping, exact=True, method='analytic')

    num_instances = mapping.num_workers * max(1, mapping.tasks_per_worker)
    if num_instances > budget or mapping.num_tasks > budget:
        return CoverageReport(mapping, exact=False, method='budget-exceeded')

    counts: dict = {}
    out_of_domain: List[Tuple[int, ...]] = []
    shape = mapping.task_shape
    for worker in range(mapping.num_workers):
        for task in mapping.worker2task(worker):
            task = tuple(int(t) for t in task)
            if any(not (0 <= t < extent) for t, extent in zip(task, shape)):
                if len(out_of_domain) < SAMPLE_LIMIT:
                    out_of_domain.append(task)
                continue
            counts[task] = counts.get(task, 0) + 1

    holes = []
    num_holes = 0
    for task in itertools.product(*(range(extent) for extent in shape)):
        if task not in counts:
            num_holes += 1
            if len(holes) < SAMPLE_LIMIT:
                holes.append(task)
    duplicates = [(task, count) for task, count in sorted(counts.items())
                  if count > 1]
    exact = not num_holes and not duplicates and not out_of_domain
    return CoverageReport(mapping, exact=exact, method='enumerated',
                          holes=holes,
                          duplicates=duplicates[:SAMPLE_LIMIT],
                          out_of_domain=out_of_domain,
                          num_holes=num_holes,
                          num_duplicates=len(duplicates))
