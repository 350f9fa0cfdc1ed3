"""repro — a reproduction of Hidet: Task-Mapping Programming Paradigm for
Deep Learning Tensor Programs (ASPLOS 2023).

Public API highlights:

* ``repro.ir``: the tensor-program IR, ``FunctionBuilder`` and the task
  mappings it lowers (``repro.ir.taskmap``: ``repeat``, ``spatial``,
  composition; re-exported here).
* ``repro.sched``: schedules, their hardware-centric spaces and the kernel
  templates they instantiate.
* ``repro.core``: the exhaustive matmul tuner (``repro.core.tuning``).
* ``repro.graph``: computation graphs, operators, and ``trace`` helpers.
* ``repro.models``: ResNet-50 / Inception-V3 / MobileNet-V2 / Bert / GPT-2.
* ``repro.runtime``: the end-to-end compile pipeline (``optimize``, also
  re-exported here as ``repro.optimize``).
* ``repro.serve``: the simulated serving stack (registry, batcher, fleet,
  lifecycle, and the declarative ``DeploymentSpec``/``Deployment`` API).
* ``repro.baselines``: loop-oriented scheduling, AutoTVM/Ansor-like tuners,
  kernel-library and framework executors used in the paper's evaluation.

``repro.optimize`` and ``repro.serve`` load on first attribute access, so
``import repro.<package>`` loads that package and the layers below it only.
"""
__version__ = '0.1.0'

import importlib

from .ir.taskmap import (repeat, spatial, column_repeat, column_spatial, auto_map,
                         TaskMapping)

__all__ = ['repeat', 'spatial', 'column_repeat', 'column_spatial', 'auto_map',
           'TaskMapping', 'optimize', 'serve', '__version__']


def __getattr__(name):
    # the compile pipeline and the serving stack sit on the top layers;
    # load each on first touch so `import repro.obs` stays as light as obs
    if name == 'optimize':
        return importlib.import_module('.runtime', __name__).optimize
    if name == 'serve':
        return importlib.import_module('.serve', __name__)
    raise AttributeError(f'module {__name__!r} has no attribute {name!r}')
