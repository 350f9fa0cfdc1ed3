"""Lint CLI: sweep schedule templates and the model zoo with the analyzer.

Usage::

    python -m repro.analysis                       # templates + default zoo
    python -m repro.analysis --templates 8         # more schedules per space
    python -m repro.analysis --models resnet50 bert
    python -m repro.analysis --spec examples/deployment_spec.json
    python -m repro.analysis --fixtures            # seeded-bad kernels

Exits non-zero iff any analyzed kernel has an error-severity finding; CI
runs the template/zoo sweep expecting success and the ``--fixtures`` sweep
expecting failure (the seeded bugs must be detected).

Models are linted at reduced spatial scale (the kernels and templates are
identical to full scale, the loop extents are just smaller), keeping the
sweep inside interactive budgets.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys

from .analyzer import analyze_module
from .report import AnalysisReport

#: awkward problem sizes: not multiples of any block tile, so every
#: predicated tail path of the templates is exercised
TEMPLATE_SIZES = [(96, 72, 136), (33, 65, 17)]

#: reduced-scale zoo builders; same operators and templates as full scale
_ZOO = {
    'resnet50': lambda: _models().resnet50(image_size=32),
    'mobilenet_v2': lambda: _models().mobilenet_v2(image_size=32),
    'inception_v3': lambda: _models().inception_v3(image_size=75),
    'bert': lambda: _models().bert_base(seq_length=8, hidden=16, layers=1,
                                        heads=2, vocab_size=50),
    'gpt2': lambda: _models().gpt2(seq_length=8, hidden=16, layers=1,
                                   heads=2, vocab_size=50),
}


def _models():
    from .. import models
    return models


def _space_sample(count: int):
    """Evenly strided sample of the matmul space, plus split-k and
    single-buffer variants so every template path is covered."""
    from ..sched.space import matmul_schedule_space
    sample = []
    for kwargs in ({}, {'double_buffer': False}, {'split_k': 2}):
        space = matmul_schedule_space(**kwargs)
        stride = max(1, len(space) // max(1, count))
        sample.extend(space[::stride][:count])
    return sample


def matmul_template_modules(scheds):
    """The matmul template at every ``TEMPLATE_SIZES`` size, batch 1 and 3,
    for each schedule."""
    from ..sched.matmul_template import build_matmul_module
    for m, n, k in TEMPLATE_SIZES:
        for batch in (1, 3):
            for sched in scheds:
                if batch > 1 and sched.split_k > 1:
                    continue    # batch and split-k both claim blockIdx.z
                yield build_matmul_module(m, n, k, sched,
                                          name=f'mm{m}x{n}x{k}b{batch}',
                                          batch=batch)


def reduce_template_modules():
    """The reduction template across its block sizes."""
    from ..sched.schedule import ReduceSchedule
    from ..ir.compute import compute, reduce, tensor_input
    from ..ir.task import Task
    from ..sched.reduce_template import build_reduce_module
    a = tensor_input('A', 'float32', [5, 33])
    task = Task('rsum', [a],
                compute('B', [5], lambda i: reduce([33], lambda kk: a[i, kk])))
    for block in (32, 64, 128):
        yield build_reduce_module(task, ReduceSchedule(block_size=block))


def lint_templates(count: int, report: AnalysisReport, verbose: bool):
    scheds = _space_sample(count)
    built = 0
    for module in itertools.chain(matmul_template_modules(scheds),
                                  reduce_template_modules()):
        report.extend(analyze_module(module))
        built += len(module)
    if verbose:
        print(f'templates: {built} kernels from {len(scheds)} schedules '
              f'x {len(TEMPLATE_SIZES)} sizes (+reduce)')


def model_modules(name: str) -> list:
    """The distinct IR modules of a ``build_ir`` compile of a zoo model."""
    from ..runtime import HidetExecutor, ScheduleCache
    graph = _ZOO[name]()
    # the CLI collects full reports itself, so the executor's own raising
    # gate is off for this compile
    executor = HidetExecutor(cache=ScheduleCache(), build_ir=True,
                             check_ir=False)
    compiled = executor.compile(graph)
    modules = []
    seen = set()
    for op in compiled.ops:
        if op.module is None or id(op.module) in seen:
            continue
        seen.add(id(op.module))
        modules.append(op.module)
    return modules


def lint_model(name: str, report: AnalysisReport, verbose: bool):
    kernels = 0
    for module in model_modules(name):
        report.extend(analyze_module(module))
        kernels += len(module)
    if verbose:
        print(f'{name}: {kernels} lowered kernels analyzed')


def fixture_modules() -> list:
    """One seeded-bad module per failure class."""
    from . import fixtures
    from ..sched.space import matmul_schedule_space
    modules = [
        fixtures.build_oob_store_kernel(),
        fixtures.build_hole_mapping_kernel(),
        fixtures.build_duplicate_writer_kernel(),
        fixtures.build_missing_barrier_kernel(),
    ]
    # a real template made racy: strip the main loop's trailing barrier
    from ..sched.matmul_template import build_matmul_module
    sched = next(s for s in matmul_schedule_space() if s.double_buffer)
    modules.append(fixtures.strip_loop_barrier(
        build_matmul_module(64, 64, 64, sched, name='desynced')))
    return modules


def lint_fixtures(report: AnalysisReport, verbose: bool):
    for module in fixture_modules():
        sub = analyze_module(module)
        if sub.ok and verbose:
            print(f'warning: fixture {module.name} analyzed clean')
        report.extend(sub)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog='python -m repro.analysis',
        description='static analysis lint over schedule templates and the '
                    'model zoo')
    parser.add_argument('--templates', type=int, default=4, metavar='N',
                        help='schedules sampled per space variant '
                             '(default 4; 0 skips the template sweep)')
    parser.add_argument('--models', nargs='*', default=None,
                        metavar='NAME', choices=sorted(_ZOO),
                        help=f'zoo models to lint (default: resnet50 bert '
                             f'gpt2; choices: {", ".join(sorted(_ZOO))})')
    parser.add_argument('--spec', default=None, metavar='PATH',
                        help='deployment spec JSON; lints the models it '
                             'names instead of --models')
    parser.add_argument('--fixtures', action='store_true',
                        help='analyze the seeded-bad fixture kernels '
                             '(expected to FAIL: exits non-zero)')
    parser.add_argument('-v', '--verbose', action='store_true')
    args = parser.parse_args(argv)

    report = AnalysisReport()
    if args.fixtures:
        lint_fixtures(report, args.verbose)
    else:
        if args.templates > 0:
            lint_templates(args.templates, report, args.verbose)
        if args.spec:
            with open(args.spec) as fh:
                spec = json.load(fh)
            names = [m['name'] for m in spec.get('models', [])]
        elif args.models is not None:
            names = args.models
        else:
            names = ['resnet50', 'bert', 'gpt2']
        for name in names:
            if name not in _ZOO:
                print(f'warning: unknown model {name!r}, skipping')
                continue
            lint_model(name, report, args.verbose)

    print(report.summary())
    return 0 if report.ok else 1


if __name__ == '__main__':
    sys.exit(main())
