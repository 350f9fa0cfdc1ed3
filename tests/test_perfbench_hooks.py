"""The traced benchmark's layer hooks still find every entry point.

``perfbench/layers.py`` wraps library functions and methods by name for the
traced run.  Renaming or removing one of them (``matmul_stats``,
``PerfModel.estimate``, ``MatmulTuner.tune``, ...) would break that run only
when it is next executed; installing and restoring the hooks here makes the
break show in the test suite.  The test only reads ``perfbench/``.
"""
from __future__ import annotations

import importlib.util
import os

import pytest

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      'perfbench', 'layers.py')


@pytest.fixture(scope='module')
def layers():
    spec = importlib.util.spec_from_file_location('perfbench_layers', LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hooks_install_record_and_restore(layers):
    import repro.sched.matmul_template as matmul_template
    from repro.sched.schedule import MatmulSchedule
    from repro.core.tuning import MatmulTuner
    from repro.gpusim.perfmodel import PerfModel

    originals = (matmul_template.matmul_stats, vars(PerfModel)['estimate'],
                 vars(MatmulTuner)['tune'])
    recorder = layers.SpanRecorder()
    patches = layers.Patches(recorder)
    try:
        layers.install(patches)
        assert matmul_template.matmul_stats is not originals[0]
        stats = matmul_template.matmul_stats(64, 64, 64, MatmulSchedule())
        PerfModel().estimate(stats[0])
    finally:
        patches.restore()
    assert (matmul_template.matmul_stats, vars(PerfModel)['estimate'],
            vars(MatmulTuner)['tune']) == originals
    labels = [span[0] for span in recorder.spans]
    assert labels == ['sched.stats', 'gpusim.perfmodel']
    # every label the hooks report is one the metric table knows
    assert set(labels) <= set(layers.LABELS)


def test_graph_rewrite_walk_runs_under_a_graph_passes_span(layers, monkeypatch):
    """A compile builds its one rewritten graph inside a ``graph.passes``
    span: the walk runs under a pass name the hooks wrap."""
    import numpy as np
    from repro.graph import flow_graph, from_numpy, ops, symbol, trace
    from repro.runtime import HidetExecutor, ScheduleCache

    x = symbol([1, 4, 6, 6], name='x')
    w = from_numpy(np.ones((8, 4, 3, 3), dtype=np.float32))
    scale = from_numpy(np.ones((8, 1, 1), dtype=np.float32))
    shift = from_numpy(np.zeros((8, 1, 1), dtype=np.float32))
    graph = trace(ops.relu(ops.batch_norm(ops.conv2d(x, w, padding=1),
                                          scale, shift)))
    recorder = layers.SpanRecorder()
    built = []      # the spans open while each FlowGraph was built
    init = flow_graph.FlowGraph.__init__

    def recording_init(self, *args, **kwargs):
        built.append(list(recorder._stack))
        init(self, *args, **kwargs)

    monkeypatch.setattr(flow_graph.FlowGraph, '__init__', recording_init)
    patches = layers.Patches(recorder)
    try:
        layers.install(patches)
        HidetExecutor(cache=ScheduleCache()).compile(graph)
    finally:
        patches.restore()
    assert len(built) == 1
    assert 'graph.passes' in [recorder.spans[i][0] for i in built[0]]


def test_ir_checked_compile_runs_under_analysis_spans(layers):
    """The executor looks ``repro.analysis.analyze_module`` up at call time,
    so the wrapped name sees every module a ``build_ir`` compile analyzes."""
    from repro.graph import ops, randn, symbol, trace
    from repro.runtime import HidetExecutor, ScheduleCache

    x = symbol([16, 32], name='x')
    w = randn([32, 16], seed=0, name='w')
    graph = trace(ops.softmax(ops.relu(ops.matmul(x, w))))
    executor = HidetExecutor(cache=ScheduleCache(), build_ir=True)
    recorder = layers.SpanRecorder()
    patches = layers.Patches(recorder)
    try:
        layers.install(patches)
        executor.compile(graph)
    finally:
        patches.restore()
    analyzed = [span for span in recorder.spans if span[0] == 'analysis']
    assert len(analyzed) == len(executor._ir_cache) > 1
    assert recorder.counts['analysis.kernels'] >= len(analyzed)
