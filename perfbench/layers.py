"""Per-layer tracing for the traced benchmark run.

The traced run wraps the public entry points of each ``repro.*`` layer
where its callers look them up (a module attribute, a class attribute or a
registry entry), records one span per call and keeps every span in memory
until the traced phase ends.  Self time is a span's duration minus the
durations of its direct child spans; time inside the traced phase that no
layer span covers is reported as unattributed, so the per-layer self times
plus the unattributed time add up to the traced phase exactly.

Nothing here changes the library: the wrappers are installed for the traced
phase only and removed afterwards, and the untraced end-to-end runs never
install them.
"""
from __future__ import annotations

import functools
import inspect
import math
import os
import time

#: span label of the traced phase itself (its self time is unattributed)
ROOT = 'trace.phase'


class SpanRecorder:
    """Spans (label, start, end, parent index) plus work counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, label: str, hook=None):
        """``fn`` wrapped to record a ``label`` span per call; ``hook(rec,
        args, kwargs, result)`` turns the call's result into work counts."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def self_times(self) -> dict[str, list[float]]:
        """label -> per-call self seconds, in call order."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for (label, start, end, _), inner in zip(self.spans, child):
            out.setdefault(label, []).append(end - start - inner)
        return out

    def inclusive_seconds(self, label: str) -> float:
        """Wall seconds inside ``label`` spans, children included, each
        nested ``label`` span counted once (through its outermost one)."""
        inside = [False] * len(self.spans)
        total = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            outer = parent >= 0 and inside[parent]
            inside[i] = outer or name == label
            if name == label and not outer:
                total.append(end - start)
        return math.fsum(total)


class Patches:
    """Installs wrappers and puts the originals back."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list = []

    def attr(self, owner, name: str, label: str, hook=None) -> None:
        """Wrap ``owner.name`` (a module function or a method defined on
        the class ``owner`` itself, including class/static methods)."""
        original = inspect.getattr_static(owner, name)
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(
                self.recorder.wrap(original.__func__, label, hook))
        else:
            wrapped = self.recorder.wrap(original, label, hook)
        setattr(owner, name, wrapped)
        self._undo.append(lambda: setattr(owner, name, original))

    def methods(self, cls, names, label: str) -> None:
        """Wrap each of ``names`` that ``cls`` itself defines."""
        for name in names:
            if name in vars(cls):
                self.attr(cls, name, label)

    def item(self, mapping: dict, key, label: str) -> None:
        original = mapping[key]
        mapping[key] = self.recorder.wrap(original, label)
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


# -- result hooks: work counts measured where the work happens ---------------

def _partition_groups(rec, args, kwargs, result):
    rec.count('graph.partition.groups', len(result))


def _lookup(rec, args, kwargs, result):
    rec.count('cache.lookups')
    if result is not None:
        rec.count('cache.hits')


def _record(rec, args, kwargs, result):
    if result:
        rec.count('cache.records')


def _saved(rec, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs['path']
    rec.count('cache.log_bytes', os.path.getsize(path))


def _tuned(rec, args, kwargs, result):
    rec.count('tuning.tasks')
    rec.count('tuning.measurements', result.num_measured)
    if result.used_cost_model:
        rec.count('tune.ranked')
    if result.fallback_reason is not None:
        rec.count('tune.fallbacks')


def _retargeted(rec, args, kwargs, result):
    rec.count('tuning.tasks')
    rec.count('tuning.measurements', 1)


def _analyzed(rec, args, kwargs, result):
    rec.count('analysis.kernels', len(result.kernels))


def install(patches: Patches) -> None:
    """Wrap every layer's public entry points (see METRICS.md)."""
    import repro.analysis
    import repro.models
    import repro.sched.matmul_template as matmul_template
    import repro.tune
    import repro.tune.cost_model
    import repro.tune.features
    from repro.core.tuning import MatmulTuner
    from repro.gpusim.decode import DecodeCostModel
    from repro.gpusim.perfmodel import PerfModel
    from repro.obs.telemetry import Telemetry
    from repro.runtime import executor
    from repro.runtime.cache import ScheduleCache
    from repro.serve.batcher import ContinuousBatcher, DynamicBatcher
    from repro.serve.fleet import Fleet, FleetResult, FleetSimulator
    from repro.serve.lifecycle import AutoscalePolicy, Autoscaler
    from repro.serve.placement import PlacementPolicy
    from repro.serve.simulator import (DecodeResult, DecodeSimulator,
                                       ServerSimulator, SimulationResult)

    p = patches
    # models: every build, ``for_batch`` included, goes through the registry
    for name in list(repro.models.MODEL_BUILDERS):
        p.item(repro.models.MODEL_BUILDERS, name, 'models.build')
    # graph.passes, as the executor looks them up
    for name in ('fold_constants', 'lower_conv_to_gemm', 'build_group_spec'):
        p.attr(executor, name, 'graph.passes')
    p.attr(executor, 'partition_graph', 'graph.passes', _partition_groups)
    # runtime.cache
    for name in ('task_signature', 'task_family_signature',
                 'task_device_family_signature'):
        p.attr(executor, name, 'cache.signature')
    for name in ('get', 'get_transfer', 'get_device_transfer'):
        p.attr(ScheduleCache, name, 'cache.lookup', _lookup)
    p.attr(ScheduleCache, 'put', 'cache.store')
    p.attr(ScheduleCache, 'record_measurement', 'cache.store', _record)
    p.attr(ScheduleCache, 'save', 'cache.save', _saved)
    p.attr(ScheduleCache, 'load', 'cache.load')
    p.attr(ScheduleCache, 'warm', 'cache.load')
    # core.tuning
    p.attr(MatmulTuner, 'tune', 'tuning.tune', _tuned)
    p.attr(MatmulTuner, 'retarget', 'tuning.tune', _retargeted)
    # gpusim
    p.methods(PerfModel, ('estimate', 'latency'), 'gpusim.perfmodel')
    p.methods(DecodeCostModel, ('bucket_for', 'prefill_seconds',
                                'decode_step_seconds',
                                'swap_penalty_seconds'), 'gpusim.decode')
    # sched
    p.attr(matmul_template, 'matmul_stats', 'sched.stats')
    p.attr(repro.tune.features, 'matmul_stats', 'sched.stats')
    p.attr(executor, 'reduce_stats', 'sched.stats')
    p.attr(matmul_template, 'build_matmul_module', 'sched.ir_build')
    p.attr(executor, 'build_reduce_module', 'sched.ir_build')
    p.attr(executor, 'build_rule_based_module', 'sched.ir_build')
    p.attr(executor, 'apply_fusion', 'sched.fusion')
    # analysis (the executor imports it at call time)
    p.attr(repro.analysis, 'analyze_module', 'analysis', _analyzed)
    # tune
    p.attr(repro.tune.cost_model, 'featurize', 'tune.featurize')
    p.attr(repro.tune, 'seed_cost_model', 'tune.seed')
    p.attr(repro.tune.cost_model.RidgeCostModel, 'fit', 'tune.fit')
    p.methods(repro.tune.cost_model.RidgeCostModel, ('rank', 'predict'),
              'tune.rank')
    # serve
    p.attr(ServerSimulator, 'run', 'serve.server')
    p.attr(FleetSimulator, 'run', 'serve.fleet')
    p.attr(DecodeSimulator, 'run', 'serve.decode')
    p.methods(DynamicBatcher, ('enqueue', 'offer', 'pending', 'drain',
                               'add_model', 'remove_model', 'pop_ready',
                               'next_deadline'), 'serve.batcher')
    p.methods(ContinuousBatcher, ('offer', 'pending', 'drain',
                                  'next_joiners'), 'serve.batcher')
    for cls in _subclasses(PlacementPolicy):
        p.methods(cls, ('reset', 'partition', 'choose', 'rehome',
                        'models_for_join'), 'serve.placement')
    p.methods(Autoscaler, ('reset', 'decide', 'record_action'),
              'serve.lifecycle')
    for cls in _subclasses(AutoscalePolicy):
        p.methods(cls, ('desired_replicas',), 'serve.lifecycle')
    p.methods(Fleet, ('add_replica', 'host_model', 'evict_model'),
              'serve.lifecycle')
    for cls in (SimulationResult, FleetResult, DecodeResult):
        p.attr(cls, 'stats', 'serve.stats')
    # obs
    p.methods(Telemetry, [n for n in vars(Telemetry)
                          if not n.startswith('_')
                          and callable(vars(Telemetry)[n])],
              'obs.telemetry')


#: span labels, each reported as ``<label>.calls`` and ``<label>.self_s``
LABELS = ('models.build', 'graph.passes', 'cache.signature', 'cache.lookup',
          'cache.store', 'cache.save', 'cache.load', 'tuning.tune',
          'gpusim.perfmodel', 'gpusim.decode', 'sched.stats',
          'sched.ir_build', 'sched.fusion', 'analysis', 'tune.featurize',
          'tune.fit', 'tune.rank', 'tune.seed', 'serve.server',
          'serve.fleet', 'serve.decode', 'serve.batcher', 'serve.placement',
          'serve.lifecycle', 'serve.stats', 'obs.telemetry')
#: counts the hooks and the workloads record
COUNTS = ('graph.partition.groups', 'cache.records', 'cache.log_bytes',
          'tuning.measurements', 'tuning.tasks', 'analysis.kernels',
          'serve.requests', 'serve.batches', 'serve.decode_steps',
          'serve.tokens', 'serve.requeued', 'serve.joins', 'serve.rehomes',
          'obs.spans')
#: ratios derived from counts: name -> (numerator, denominator)
RATIOS = {'cache.hit_ratio': ('cache.hits', 'cache.lookups'),
          'tune.ranked_ratio': ('tune.ranked', 'tuning.tasks'),
          'tune.fallback_ratio': ('tune.fallbacks', 'tune.ranked'),
          'tune.measurements_per_task': ('tuning.measurements',
                                         'tuning.tasks')}


def _unit(name: str) -> str:
    if name.endswith('_s'):
        return 's'
    if name.endswith('_bytes'):
        return 'B'
    if name.endswith(('_ratio', '_per_task')):
        return 'ratio'
    return 'count'


def per_layer_metrics(rec: SpanRecorder, overhead_ratio: float) -> dict:
    """The traced phase as ``{name: {'value', 'unit'}}`` per-layer metrics,
    the same names on every workload (zero where a layer did no work)."""
    selfs = rec.self_times()
    calls = {label: len(v) for label, v in selfs.items()}
    totals = {label: math.fsum(v) for label, v in selfs.items()}
    values: dict[str, float] = {}
    for label in LABELS:
        values[f'{label}.calls'] = calls.get(label, 0)
        values[f'{label}.self_s'] = totals.get(label, 0.0)
    for name in COUNTS:
        values[name] = rec.counts.get(name, 0)
    for name, (num, den) in RATIOS.items():
        d = rec.counts.get(den, 0)
        values[name] = rec.counts.get(num, 0) / d if d else 0.0
    # the fleet's joins and re-homes with the compiles they run
    values['serve.lifecycle.total_s'] = rec.inclusive_seconds(
        'serve.lifecycle')
    values['trace.phase_s'] = math.fsum(
        end - start for label, start, end, _ in rec.spans if label == ROOT)
    values['trace.unattributed_s'] = totals.get(ROOT, 0.0)
    values['trace.overhead_ratio'] = overhead_ratio
    return {name: {'value': v, 'unit': _unit(name)}
            for name, v in values.items()}


def tail_percentile(n: int) -> float:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it,
    or 0 when even p90 has fewer (then only the median is reported)."""
    for q in (99.9, 99.0, 90.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return 0.0


def layer_table(rec: SpanRecorder) -> str:
    """Self-time share of the traced phase per span label, with the median
    and tail per-call self time and the sample count."""
    from repro.obs import percentile
    selfs = rec.self_times()
    phase = math.fsum(end - start for label, start, end, _ in rec.spans
                      if label == ROOT) or 1.0
    rows = []
    for label, samples in sorted(selfs.items(),
                                 key=lambda kv: -math.fsum(kv[1])):
        q = tail_percentile(len(samples))
        tail = (f'p{q:g} {percentile(samples, q) * 1e6:10.1f}us'
                if q else ' ' * 18)
        name = 'unattributed' if label == ROOT else label
        rows.append(f'  {name:<18} {100 * math.fsum(samples) / phase:6.2f}%'
                    f'  p50 {percentile(samples, 50) * 1e6:10.1f}us'
                    f'  {tail}  n={len(samples)}')
    return '\n'.join(rows)
