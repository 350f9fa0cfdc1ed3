"""Cache-warmed model registry: named models × pre-compiled batch buckets.

The registry is the deployment-facing face of the compiler: ``register()``
a model and it pre-compiles a ladder of batch-size buckets (1, 2, 4, …,
``max_batch``) through one shared :class:`~repro.runtime.executor.HidetExecutor`.
Three properties make the ladder cheap:

* buckets compile smallest-first with schedule *transfer* enabled: the
  first bucket compiles and measures the candidate space, and each further
  bucket re-measures the already-compiled candidates (§4.3 input-size
  independence) — optimal schedules at a fraction of the tuning bill,
  since compilation dominates it;
* the shared :class:`~repro.runtime.cache.ScheduleCache` can be persisted
  and re-warmed (``cache_path``), so a registry *restart* compiles every
  previously seen bucket with exactly zero simulated tuning seconds;
* all buckets of all models share the executor's lowered-IR cache.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from ..graph.flow_graph import FlowGraph
from ..gpusim.clock import SimulatedClock
from ..gpusim.device import DeviceSpec, RTX3090
from ..models import for_batch
from ..runtime.cache import ScheduleCache
from ..runtime.compiled import CompiledGraph
from ..runtime.executor import HidetExecutor
from ..tune import RidgeCostModel
from .batcher import smallest_covering_bucket
from .memory import MemoryModel, ModelFootprint, footprint_from_graphs, \
    graph_tensor_bytes

__all__ = ['ModelRegistry', 'RegisteredModel', 'bucket_ladder', 'model_ladder']

GraphBuilder = Callable[[int], FlowGraph]


def bucket_ladder(max_batch: int) -> tuple[int, ...]:
    """Powers of two up to ``max_batch``, always including ``max_batch``."""
    if max_batch < 1:
        raise ValueError('max_batch must be >= 1')
    ladder = []
    b = 1
    while b < max_batch:
        ladder.append(b)
        b *= 2
    ladder.append(max_batch)
    return tuple(ladder)


def model_ladder(max_batch: int, buckets: Optional[Sequence[int]]) -> tuple[int, ...]:
    """A model's compiled bucket ladder: the explicit ``buckets`` sorted and
    de-duplicated, else the power-of-two :func:`bucket_ladder`."""
    return tuple(sorted(set(buckets))) if buckets else bucket_ladder(max_batch)


@dataclass
class RegisteredModel:
    """One registered model: its builder and the compiled bucket ladder.

    ``buckets`` maps batch-bucket size to the graph compiled at that size;
    ``compile_seconds`` is the simulated tuning bill (seconds) the ladder
    charged, zero for a fully warm registration.
    """

    name: str
    builder: GraphBuilder
    buckets: dict[int, CompiledGraph]          # bucket size -> compiled graph
    #: simulated tuning seconds charged while compiling the ladder
    compile_seconds: float
    #: DRAM bytes this model has committed on its registry's device
    reserved_bytes: int = 0
    #: measured per-bucket footprint (None when memory accounting is off or
    #: the reservation was declared up front)
    footprint: Optional[ModelFootprint] = None

    @property
    def bucket_sizes(self) -> tuple[int, ...]:
        """Compiled bucket capacities, ascending."""
        return tuple(sorted(self.buckets))

    @property
    def max_batch(self) -> int:
        """Largest compiled bucket (the most samples one dispatch can take)."""
        return self.bucket_sizes[-1]

    def bucket_for(self, size: int) -> int:
        """Smallest compiled bucket covering ``size`` samples (raises
        ``ValueError`` when none does)."""
        return smallest_covering_bucket(size, self.bucket_sizes)

    def latency(self, bucket: int) -> float:
        """Modeled serve-time **seconds** of one dispatch to ``bucket``
        (all of its kernels' gpusim latencies plus dispatch overheads)."""
        return self.buckets[bucket].latency

    def cache_traffic(self) -> dict[str, int]:
        """Schedule-cache traffic summed over the ladder's compiles.

        Returns a dict with ``hits`` (exact records reused, zero tuning
        time), ``misses`` (lookups that paid for tuning or a transfer
        validation), ``transfer_hits`` (misses served by the cross-size
        family tier: re-measurement only), and ``device_transfer_hits``
        (misses served by adopting a foreign device's schedule).
        """
        reports = [c.compile_report for c in self.buckets.values()]
        return {'hits': sum(r.cache_hits for r in reports),
                'misses': sum(r.cache_misses for r in reports),
                'transfer_hits': sum(r.transfer_hits for r in reports),
                'device_transfer_hits': sum(r.device_transfer_hits
                                            for r in reports)}


class ModelRegistry:
    """Register named models, pre-compile their batch buckets, stay warm.

    Args:
        device: the simulated GPU all of this registry's models compile for.
        cache: an explicit :class:`ScheduleCache` to share (e.g. across
            fleet replicas, or one pre-warmed from a foreign device);
            mutually exclusive with ``max_cache_entries``.
        cache_path: a schedule-cache record log: warmed from disk at
            construction (if present) and appended to after every
            registration, so registries sharing the file converge to one
            tuned cache, even when they save at the same time.  A corrupt,
            version-mismatched or non-log file starts the registry cold
            instead of blocking boot, and the next save overwrites it.
        max_cache_entries: optional LRU bound on the registry-owned cache.
        enable_transfer: cross-*size* schedule transfer (§4.3) — later
            buckets of a ladder re-tune by measurement only; on by default.
        enable_device_transfer: cross-*device* schedule transfer — adopt a
            launch-compatible foreign record after validating it against
            ``device`` and re-measuring locally; off by default, enabled by
            fleets warming replicas from a foreign cache.
        cost_model: when true, tune through a learned
            :class:`~repro.tune.RidgeCostModel` trained on this registry's
            accumulated measurement records — candidate sets shrink to the
            predicted top-k once the model calibrates (with automatic
            fallback to exhaustive measurement before then).
        memory: optional :class:`~repro.serve.memory.MemoryModel` tracking
            this registry's DRAM.  When set, every registration commits its
            footprint (measured from the graphs, or declared via
            ``reserve_bytes``), growing a ladder commits the incremental
            activation bytes, and :meth:`evict` releases them; an
            over-capacity registration raises
            :class:`~repro.serve.memory.MemoryOverflowError` before any
            tuning seconds are charged.

    All times the registry reports (``compile_seconds``,
    ``total_compile_seconds``) are simulated tuning **seconds** from the
    shared :class:`SimulatedClock`; model latencies are modeled serve-time
    **seconds** per dispatch.
    """

    def __init__(self, device: DeviceSpec = RTX3090,
                 cache: Optional[ScheduleCache] = None,
                 cache_path: Optional[str] = None,
                 max_cache_entries: Optional[int] = None,
                 enable_transfer: bool = True,
                 enable_device_transfer: bool = False,
                 cost_model: bool = False,
                 memory: Optional[MemoryModel] = None):
        self.device = device
        self.memory = memory
        self._evicted_compile_seconds = 0.0
        if cache is not None and max_cache_entries is not None:
            raise ValueError('pass either an explicit cache or '
                             'max_cache_entries, not both (a cap is only '
                             'applied to the registry-owned cache)')
        self.cache = cache if cache is not None else ScheduleCache(
            max_entries=max_cache_entries)
        self.cache_path = cache_path
        if cache_path is not None and os.path.exists(cache_path):
            try:
                self.cache.warm(cache_path)
            except (OSError, ValueError):
                # stale format version or corrupt file: start cold; the next
                # save() overwrites it (matching save()'s tolerance) — a bad
                # cache file must never keep a fleet node from booting
                pass
        self.clock = SimulatedClock()
        #: optional learned cost model (PR 8): ranks each tuning task's
        #: candidates and measures only the predicted top-k, training on
        #: the measurement records this registry's cache accumulates —
        #: including warmed-in records from previous deployments' logs
        self.cost_model = None
        if cost_model:
            self.cost_model = RidgeCostModel(device).bind(self.cache)
        self.executor = HidetExecutor(
            device, clock=self.clock, cache=self.cache,
            enable_transfer=enable_transfer,
            enable_device_transfer=enable_device_transfer,
            cost_model=self.cost_model)
        self.models: dict[str, RegisteredModel] = {}

    # -- registration ----------------------------------------------------------

    def register(self, name: str, builder: Optional[GraphBuilder] = None,
                 max_batch: int = 8,
                 buckets: Optional[Sequence[int]] = None,
                 reserve_bytes: Optional[int] = None) -> RegisteredModel:
        """Register ``name`` and pre-compile its batch-bucket ladder.

        ``builder(b)`` must rebuild the model's flow graph at batch size
        ``b``; when omitted, the zoo model of that name is used (see
        :func:`repro.models.for_batch`).  ``buckets`` overrides the default
        power-of-two ladder up to ``max_batch``.

        With memory accounting on, the model's DRAM footprint is committed
        *before* compilation: either the declared ``reserve_bytes`` or a
        measurement of the ladder's graphs (weights + workspace + per-bucket
        activations).  An over-capacity model raises
        :class:`~repro.serve.memory.MemoryOverflowError` without charging
        tuning seconds.
        """
        if name in self.models:
            raise ValueError(f'model {name!r} is already registered')
        if builder is None:
            builder = lambda b: for_batch(name, b)   # noqa: E731
        ladder = model_ladder(max_batch, buckets)
        footprint: Optional[ModelFootprint] = None
        reserved = 0
        compile_builder = builder
        if self.memory is not None:
            if reserve_bytes is None:
                # build the ladder's graphs once: measure them here, then
                # hand the same objects to the compiler
                graphs = {b: builder(b) for b in ladder}
                footprint = footprint_from_graphs(name, graphs)
                reserved = footprint.bytes_for(ladder)
                compile_builder = lambda b: (           # noqa: E731
                    graphs[b] if b in graphs else builder(b))
            else:
                reserved = int(reserve_bytes)
            self.memory.commit(name, reserved)
        start = self.clock.elapsed_seconds
        try:
            compiled = self.executor.compile_for_batches(
                compile_builder, ladder, name=name, namespace=name)
        except Exception:
            if self.memory is not None:
                self.memory.release(name)
            raise
        model = RegisteredModel(
            name=name, builder=builder, buckets=compiled,
            compile_seconds=self.clock.elapsed_seconds - start,
            reserved_bytes=reserved, footprint=footprint)
        self.models[name] = model
        if self.cache_path is not None:
            self.save_cache()
        return model

    def add_bucket(self, name: str, bucket: int) -> CompiledGraph:
        """Grow a registered model's ladder by one bucket.

        With a warm cache this charges zero simulated tuning seconds (exact
        hits); on a fresh size it costs re-measurement only (transfer hits).
        """
        model = self[name]
        if bucket < 1:
            raise ValueError(f'batch bucket must be >= 1, got {bucket}')
        if bucket in model.buckets:
            return model.buckets[bucket]
        graph = model.builder(bucket)
        extra = 0
        if self.memory is not None:
            # a new bucket costs its activations; weights and workspace are
            # already resident from the initial registration
            extra = graph_tensor_bytes(graph)['activations']
            if not self.memory.fits(extra):
                raise MemoryOverflowError(
                    self.memory.label, f'{name}@b{bucket}', extra,
                    self.memory.capacity_bytes, self.memory.committed_bytes)
        start = self.clock.elapsed_seconds
        compiled = self.executor.compile(graph,
                                         name=f'{name}_b{bucket}',
                                         namespace=name)
        if self.memory is not None:
            self.memory.commit(name, extra)
            model.reserved_bytes += extra
            if model.footprint is not None:
                acts = dict(model.footprint.activation_bytes)
                acts[bucket] = extra
                model.footprint = replace(model.footprint,
                                          activation_bytes=acts)
        model.buckets[bucket] = compiled
        model.compile_seconds += self.clock.elapsed_seconds - start
        if self.cache_path is not None:
            self.save_cache()
        return compiled

    def evict(self, name: str) -> int:
        """Unregister ``name`` and release its DRAM reservation.

        Returns the bytes freed (0 with memory accounting off).  The evicted
        model's tuning bill stays on the books —
        :attr:`total_compile_seconds` is a monotone cold-start cost, not a
        census of currently resident models.
        """
        model = self[name]
        del self.models[name]
        self._evicted_compile_seconds += model.compile_seconds
        if self.memory is not None:
            return self.memory.release(name)
        return 0

    # -- lookup ------------------------------------------------------------

    def __getitem__(self, name: str) -> RegisteredModel:
        if name not in self.models:
            raise KeyError(f'model {name!r} is not registered '
                           f'(have {sorted(self.models)})')
        return self.models[name]

    def __contains__(self, name: str) -> bool:
        return name in self.models

    def bucket_map(self) -> dict[str, tuple[int, ...]]:
        """model name -> compiled bucket ladder (batcher wiring)."""
        return {name: model.bucket_sizes for name, model in self.models.items()}

    # -- accounting -------------------------------------------------------------

    @property
    def total_compile_seconds(self) -> float:
        """Simulated tuning seconds across every registration (cold-start).

        Includes evicted models: tuning seconds already spent do not come
        back when a model is dropped to free DRAM.
        """
        return (sum(m.compile_seconds for m in self.models.values())
                + self._evicted_compile_seconds)

    def stats(self) -> dict:
        return {
            'models': {name: {'buckets': list(model.bucket_sizes),
                              'compile_seconds': model.compile_seconds,
                              **model.cache_traffic()}
                       for name, model in self.models.items()},
            'cache': self.cache.stats,
            'cache_namespaces': self.cache.namespace_stats(),
        }

    # -- persistence --------------------------------------------------------

    def save_cache(self, path: Optional[str] = None) -> None:
        """Append the shared schedule cache to its record log."""
        target = path or self.cache_path
        if target is None:
            raise ValueError('no cache path given and none configured')
        self.cache.save(target)
