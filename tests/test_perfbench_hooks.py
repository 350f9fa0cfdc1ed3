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
    from repro.core.schedule import MatmulSchedule
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
