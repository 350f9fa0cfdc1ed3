"""Tier-1 smoke coverage of every benchmark module.

Each ``benchmarks/bench_*.py`` exposes a ``smoke()`` entry: a reduced run of
the same code path the full benchmark exercises, with its own assertions,
returning the formatted report text.  This keeps the benchmark harness from
rotting between full runs — a broken experiment module fails the test suite,
not the next person who tries to reproduce a figure.

Every smoke run also carries a **wall-clock budget**: smoke modes exist so
the whole harness fits in tier-1, and a smoke that silently grows into a
minutes-long run defeats that.  The serving-family entries keep their
documented ten-second acceptance budget; everything else gets a generous
default (the slowest smoke today runs ~6s) that still catches runaway
growth.
"""
import importlib
import pathlib
import sys
import time

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / 'benchmarks'

BENCH_MODULES = sorted(p.stem for p in BENCH_DIR.glob('bench_*.py'))

#: wall-clock seconds a smoke() run may take.  The default is a runaway
#: backstop, not a perf target: ~10x the slowest smoke today (~6s), so a
#: loaded CI machine does not flake but a smoke that grows into a
#: minutes-long run still fails loudly.  The serving family keeps its
#: documented ten-second acceptance budget (README / bench_serving --smoke).
DEFAULT_SMOKE_BUDGET_SECONDS = 60.0
SMOKE_BUDGET_SECONDS = {
    'bench_serving': 10.0,
    # the tuning smoke compiles the whole zoo twice (guided vs exhaustive —
    # the cost-model acceptance claim covers every model) plus three
    # tuning-service runs; ~30 s on a 2-vCPU VM, budgeted at 2x
    'bench_fig17_tuning_cost': 60.0,
}


@pytest.fixture(scope='module', autouse=True)
def _bench_on_path():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        yield
    finally:
        sys.path.remove(str(BENCH_DIR))


def _run_budgeted(module_name: str, entry: str = 'smoke') -> str:
    """Run one smoke entry under its wall-clock budget; returns the text."""
    module = importlib.import_module(module_name)
    budget = SMOKE_BUDGET_SECONDS.get(module_name,
                                      DEFAULT_SMOKE_BUDGET_SECONDS)
    start = time.monotonic()
    text = getattr(module, entry)()
    elapsed = time.monotonic() - start
    assert elapsed < budget, (
        f'{module_name}.{entry}() took {elapsed:.1f}s, over its '
        f'{budget:.0f}s smoke budget')
    return text


def test_every_benchmark_has_a_smoke_mode():
    assert BENCH_MODULES, 'no benchmark modules found'
    missing = [name for name in BENCH_MODULES
               if not hasattr(importlib.import_module(name), 'smoke')]
    assert not missing, f'benchmarks without smoke(): {missing}'


@pytest.mark.parametrize('module_name',
                         [m for m in BENCH_MODULES if m != 'bench_serving'])
def test_benchmark_smoke(module_name):
    text = _run_budgeted(module_name)
    assert isinstance(text, str) and text.strip(), (
        f'{module_name}.smoke() must return a non-empty report')


def test_bench_serving_smoke_cli_budget():
    """The --smoke acceptance: a 200-request trace must finish in <10s."""
    text = _run_budgeted('bench_serving')
    assert 'throughput' in text


def test_bench_serving_decode_smoke_budget():
    """The --decode --smoke acceptance: continuous batching must beat
    request-level batching on token throughput at equal-or-better p99,
    reservation admission must hold the decode SLO the unbounded ablation
    violates, and the run must finish in <10s."""
    text = _run_budgeted('bench_serving', 'decode_smoke')
    for token in ('continuous batching', 'swap-penalized steps',
                  'continuous-over-request-level token throughput'):
        assert token in text


def test_bench_serving_fleet_smoke_budget():
    """The --smoke --fleet acceptance: the reduced fleet experiments
    (placement comparison, cross-device warm-up, SLO sizing) must pass
    their claims and finish in <10s."""
    text = _run_budgeted('bench_serving', 'fleet_smoke')
    for token in ('Placement comparison', 'Cross-device warm-up',
                  'Fleet sizing', 'MEETS SLO'):
        assert token in text


def test_bench_serving_packing_smoke_budget():
    """The --smoke --packing acceptance: memory-aware placement must serve
    the same p99 SLO on strictly fewer replicas than memory-blind
    least-loaded, the seeded failover must re-home orphans without
    overflowing any survivor's DRAM, and the run must finish in <10s."""
    text = _run_budgeted('bench_serving', 'packing_smoke')
    for token in ('Memory-aware packing', 'MEETS SLO', 'packing saves',
                  're-homes', 'survivors within DRAM: yes'):
        assert token in text


def test_bench_serving_lifecycle_smoke_budget():
    """The --smoke --lifecycle acceptance: the reduced lifecycle
    experiments must pass their claims (autoscaled diurnal run meets the
    p99 SLO at fewer replica-seconds than the static optimum; warm
    scale-up beats cold on tuning-seconds-to-SLO) and finish in <10s."""
    text = _run_budgeted('bench_serving', 'lifecycle_smoke')
    for token in ('Diurnal autoscaling', 'MEETS SLO', 'autoscaling saves',
                  'Warm vs cold scale-up', 'device-transfer hits'):
        assert token in text
