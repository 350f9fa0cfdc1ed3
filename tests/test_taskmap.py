"""Task-mapping semantics (paper §5.1): the core abstraction."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.taskmap import (ComposedTaskMapping, CustomTaskMapping,
                              RepeatTaskMapping, SpatialTaskMapping, auto_map,
                              column_repeat, column_spatial, repeat, spatial)


class TestBasicMappings:
    def test_repeat_single_worker_all_tasks(self):
        tm = repeat(2, 2)
        assert tm.num_workers == 1
        assert tm.task_shape == (2, 2)
        # Figure 11(a): row-major execution order
        assert tm(0) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_spatial_one_task_per_worker(self):
        tm = spatial(2, 2)
        assert tm.num_workers == 4
        # Figure 11(b): worker w executes (w / 2, w % 2)
        assert [tm(w)[0] for w in range(4)] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_column_variants_order(self):
        assert column_repeat(2, 2)(0) == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert [column_spatial(2, 2)(w)[0] for w in range(4)] == \
            [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_repeat_with_ranks_matches_column_repeat(self):
        assert repeat(3, 2, ranks=[1, 0])(0) == column_repeat(3, 2)(0)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            repeat(0, 2)
        with pytest.raises(ValueError):
            spatial(2, ranks=[1, 0])   # rank permutation mismatch


class TestComposition:
    def test_figure8_mapping(self):
        """repeat(4, 1) * spatial(16, 8): 512 tasks on 128 threads."""
        tm = repeat(4, 1) * spatial(16, 8)
        assert tm.task_shape == (64, 8)
        assert tm.num_workers == 128
        w = 9
        assert tm(w) == [(w // 8, w % 8), (w // 8 + 16, w % 8),
                         (w // 8 + 32, w % 8), (w // 8 + 48, w % 8)]

    def test_figure12a_not_commutative(self):
        a = repeat(1, 3) * spatial(2, 2)
        b = spatial(2, 2) * repeat(1, 3)
        assert a.task_shape == b.task_shape == (2, 6)
        assert a(0) != b(0)

    def test_figure12d_column_major_order(self):
        tm = repeat(1, 2) * repeat(2, 1)
        assert tm(0) == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_paper_matmul_mapping_dimensions(self):
        """spatial(4,2)*repeat(2,2)*spatial(4,8)*repeat(4,4) from §5.1.2."""
        tm = spatial(4, 2) * repeat(2, 2) * spatial(4, 8) * repeat(4, 4)
        assert tm.task_shape == (128, 128)
        assert tm.num_workers == 256
        assert tm.tasks_per_worker == 64

    def test_composition_dimension_mismatch(self):
        with pytest.raises(ValueError):
            repeat(2) * spatial(2, 2)

    def test_associativity_concrete(self):
        f1, f2, f3 = spatial(2), repeat(3), spatial(4)
        left = (f1 * f2) * f3
        right = f1 * (f2 * f3)
        assert left.task_shape == right.task_shape
        assert left.num_workers == right.num_workers
        for w in range(left.num_workers):
            assert left(w) == right(w)


def _coverage(tm):
    """task -> number of times executed across all workers."""
    counts = {}
    for w in range(tm.num_workers):
        for task in tm.worker2task(w):
            counts[task] = counts.get(task, 0) + 1
    return counts


@st.composite
def _atom(draw, dims):
    shape = tuple(draw(st.integers(1, 3)) for _ in range(dims))
    kind = draw(st.sampled_from(['repeat', 'spatial']))
    return repeat(*shape) if kind == 'repeat' else spatial(*shape)


@st.composite
def small_mappings(draw, max_dims=2):
    """Random compositions of repeat/spatial with bounded size."""
    num_atoms = draw(st.integers(1, 3))
    dims = draw(st.integers(1, max_dims))
    tm = draw(_atom(dims))
    for _ in range(num_atoms - 1):
        tm = tm * draw(_atom(dims))
    return tm


@st.composite
def mapping_triples(draw, max_dims=2):
    """Three atoms of equal dimensionality (for composition laws)."""
    dims = draw(st.integers(1, max_dims))
    return tuple(draw(_atom(dims)) for _ in range(3))


class TestProperties:
    @given(small_mappings())
    @settings(max_examples=60, deadline=None)
    def test_every_task_executed_exactly_once(self, tm):
        """repeat/spatial compositions partition the task domain."""
        counts = _coverage(tm)
        assert len(counts) == tm.num_tasks
        assert all(c == 1 for c in counts.values())

    @given(small_mappings())
    @settings(max_examples=60, deadline=None)
    def test_balanced_workers(self, tm):
        sizes = {len(tm.worker2task(w)) for w in range(tm.num_workers)}
        assert sizes == {tm.tasks_per_worker}

    @given(mapping_triples())
    @settings(max_examples=30, deadline=None)
    def test_associativity(self, triple):
        f1, f2, f3 = triple
        left = (f1 * f2) * f3
        right = f1 * (f2 * f3)
        for w in range(left.num_workers):
            assert left(w) == right(w)


class TestAutoMap:
    def test_figure8_auto_map(self):
        tm = auto_map(64, 8, workers=128)
        assert isinstance(tm, ComposedTaskMapping)
        assert tm.outer.task_shape == (4, 1)
        assert tm.inner.task_shape == (16, 8)

    def test_auto_map_covers_domain(self):
        tm = auto_map(32, 16, workers=64)
        counts = _coverage(tm)
        assert len(counts) == 512 and all(c == 1 for c in counts.values())

    def test_auto_map_rejects_uneven(self):
        with pytest.raises(ValueError):
            auto_map(7, 3, workers=4)


class TestCustomMapping:
    def test_custom_polymorphic_function(self):
        tm = CustomTaskMapping((4,), 2, lambda w: [(w * 2,), (w * 2 + 1,)])
        assert tm(0) == [(0,), (1,)]
        assert tm(1) == [(2,), (3,)]
        counts = _coverage(tm)
        assert all(c == 1 for c in counts.values())

    def test_custom_composes(self):
        tm = CustomTaskMapping((2,), 2, lambda w: [(w,)]) * repeat(3)
        assert tm.task_shape == (6,)
        assert tm(1) == [(3,), (4,), (5,)]
