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
  lifecycle, and the declarative ``DeploymentSpec``/``Deployment`` API);
  imported lazily on first attribute access.
* ``repro.baselines``: loop-oriented scheduling, AutoTVM/Ansor-like tuners,
  kernel-library and framework executors used in the paper's evaluation.
"""
__version__ = '0.1.0'

from .ir.taskmap import (repeat, spatial, column_repeat, column_spatial, auto_map,
                         TaskMapping)
from .runtime import optimize

__all__ = ['repeat', 'spatial', 'column_repeat', 'column_spatial', 'auto_map',
           'TaskMapping', 'optimize', 'serve', '__version__']


def __getattr__(name):
    # repro.serve pulls in the whole serving stack; load it on first touch
    # so `import repro` stays as light as the compiler pipeline alone
    if name == 'serve':
        import importlib
        return importlib.import_module('.serve', __name__)
    raise AttributeError(f'module {__name__!r} has no attribute {name!r}')
