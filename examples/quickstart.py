"""Quickstart: the task-mapping programming paradigm in five minutes.

Reproduces the paper's Figure 8 — a cooperative load written with task
mappings — then a full tiled matmul kernel, lowered, executed, and emitted
as CUDA C.

Run:  python examples/quickstart.py
"""
import numpy as np

from repro import repeat, spatial
from repro.backend.codegen import generate_cuda
from repro.backend.interpreter import run_kernel
from repro.ir import FunctionBuilder, f32, thread_idx
from repro.ir.passes import lower_task_mappings, simplify
from repro.sched.matmul_template import build_matmul_module
from repro.sched.schedule import MatmulSchedule


def figure8_cooperative_load():
    """512 loading tasks assigned to 128 threads, 4 tasks per thread."""
    task_map = repeat(4, 1) * spatial(16, 8)
    print('task mapping :', task_map)
    print('task shape   :', task_map.task_shape, '  workers:', task_map.num_workers)
    print('tasks of w=9 :', task_map(9))

    fb = FunctionBuilder('cooperative_load_A', grid_dim=1, block_dim=128)
    a = fb.tensor_param('A', f32, [64, 8])
    out = fb.tensor_param('SmemA', f32, [64, 8])
    with fb.for_task(task_map, worker=thread_idx(), names=('i', 'k')) as (i, k):
        fb.store(out, [i, k], a[i, k])
    func = fb.finish()

    print('\n--- tensor program (task-mapping form) ---')
    print(func)
    print('\n--- after lowering (paper Figure 8, bottom left) ---')
    print(simplify(lower_task_mappings(func)))

    a_np = np.arange(512, dtype=np.float32).reshape(64, 8)
    out_np = np.full((64, 8), np.nan, dtype=np.float32)
    run_kernel(func, [a_np, out_np])
    assert np.array_equal(a_np, out_np)
    print('\nexecuted on the functional simulator: OK')


def double_buffered_matmul():
    """The paper's flagship kernel: tiled matmul with double buffering."""
    m = n = k = 35   # deliberately awkward: predicated loads handle the tails
    sched = MatmulSchedule(block_warps=(1, 1), warp_outer=(1, 1),
                           thread_layout=(4, 8), thread_tile=(4, 4),
                           block_k=8, double_buffer=True)
    module = build_matmul_module(m, n, k, sched)

    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    c = np.full((m, n), np.nan, dtype=np.float32)
    run_kernel(module[0], [a, b, c])
    print(f'\nmatmul {m}x{n}x{k} with schedule {sched.short_repr()}: '
          f'max error = {np.abs(c - a @ b).max():.2e}')

    print('\n--- generated CUDA (double-buffered pipeline, Figure 5) ---')
    print(generate_cuda(module[0]))


if __name__ == '__main__':
    figure8_cooperative_load()
    double_buffered_matmul()
