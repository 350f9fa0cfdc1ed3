"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compile-zoo --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics: set-up is done several times
and the timed phase repeats identical passes for at least ``--seconds``
host seconds; each metric is the median.  A fixed reference loop, run in a
fresh interpreter before the first pass and after every pass, measures the
machine's speed around each pass, and ``pass_cal_s`` is the pass's host
time scaled to a machine on which that loop takes ``REFERENCE_S``.  ``--trace 1`` makes two untraced
passes, then one traced set-up plus pass with every layer's entry points
wrapped, and reports the per-layer metrics.  Both check the outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
describe the run: the environment, the min/median/max pass for every host
metric, the modeled metrics and, for a traced run, the layer-share table.
"""
import os

# one thread: numpy's BLAS must not fan out across the machine's cores
for _var in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS'):
    os.environ.setdefault(_var, '1')

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: set-ups per untraced run; set-up time is their median
SETUPS = 3
#: the timed phase runs at least this many passes, and more until it has
#: lasted --seconds
MIN_PASSES = 2
#: a fixed pure-Python loop (allocation and arithmetic).  It runs in a fresh
#: interpreter, so the benchmark's own heap and collector cannot slow it, and
#: its time tracks the machine's speed, which on shared hosts drifts by 30%
#: and more over minutes (METRICS.md, "Noise")
REFERENCE = '''
import time
def work():
    d = {}
    for i in range(200000):
        d[i] = [i, str(i)]
    x = 0
    for i in range(300000):
        x = (x * 31 + i) % 1000003
start = time.perf_counter()
for _ in range(3):
    work()
print(time.perf_counter() - start)
'''
#: reference-loop seconds of the calibrated machine: about this loop's time
#: on the 2-vCPU Xeon VM the bounds were set on
REFERENCE_S = 0.4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, default=0)
    parser.add_argument('--seconds', type=float, default=25.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def spread(values) -> str:
    return (f'min {min(values):.4f} median {statistics.median(values):.4f} '
            f'max {max(values):.4f} n={len(values)}')


def reference_seconds() -> float:
    """Seconds the reference loop takes now, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, '-c', REFERENCE],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout)


def untraced(workload, seconds: float):
    """``SETUPS`` set-ups, then passes until ``seconds`` of timed work,
    with the reference loop timed before the first pass and after each."""
    start = time.perf_counter()
    workload.prepare()
    print(f'prepare: {time.perf_counter() - start:.3f} s (untimed)')
    setups, state = [], None
    for _ in range(SETUPS):
        state = None
        gc.collect()
        start = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - start)
    passes, timed, references = [], 0.0, [reference_seconds()]
    while len(passes) < MIN_PASSES or timed < seconds:
        gc.collect()
        passes.append(workload.run_pass(state))
        timed += passes[-1].host_s
        references.append(reference_seconds())
    return setups, passes, references, workload.final_checks(state)


def traced(workload):
    """Two untraced passes, the second the baseline of the tracing
    overhead, then a traced set-up and pass."""
    import layers
    workload.prepare()
    state = workload.setup()
    untraced_passes = []
    for _ in range(2):
        gc.collect()
        untraced_passes.append(workload.run_pass(state))
    state = None
    recorder = layers.SpanRecorder()
    patches = layers.Patches(recorder)
    layers.install(patches)

    def phase():
        inputs = workload.setup()
        return inputs, workload.run_pass(inputs)
    try:
        gc.collect()
        state, traced_pass = recorder.wrap(phase, layers.ROOT)()
    finally:
        patches.restore()
    for name, value in traced_pass.counts.items():
        recorder.count(name, value)
    return (recorder, untraced_passes + [traced_pass],
            workload.final_checks(state))


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, 'src')
    if not os.path.isdir(os.path.join(src, 'repro')):
        print(f'perfbench: no repro package under {src}; run from the root '
              f'of a checkout', file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f'perfbench: unknown workload {args.workload!r}; have '
              f'{sorted(workloads.WORKLOADS)}', file=sys.stderr)
        return 2
    print(f'env: nproc {len(os.sched_getaffinity(0))} '
          f'python {platform.python_version()} numpy {numpy.__version__} '
          f'loadavg {" ".join(f"{x:.2f}" for x in os.getloadavg())}')

    scratch = os.path.join(ROOT, '.bench_build')
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix='perfbench-', dir=scratch) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
        if args.trace:
            recorder, passes, final = traced(workload)
        else:
            setups, passes, references, final = untraced(workload,
                                                         args.seconds)

    attempted = sum(p.attempted for p in passes) + final.attempted
    failed = sum(p.failed for p in passes) + final.failed
    failures = [f for p in passes + [final] for f in p.failures]
    modeled = passes[0].modeled
    for i, p in enumerate(passes[1:], 2):
        if p.modeled != modeled:
            failed += 1
            failures.append(f'pass {i} modeled {p.modeled} != pass 1 '
                            f'{modeled}')
    failed = min(failed, attempted)
    for line in failures[:10]:
        print(f'FAILED: {line}', file=sys.stderr)

    host = [p.host_s for p in passes]
    # a traced run's last pass is traced: keep it out of the steadiness lines
    untraced_passes = passes[:-1] if args.trace else passes
    print(f'untraced passes: {len(untraced_passes)}')
    for name in passes[0].phases:
        print(f'steady: {name} '
              f'{spread([p.phases[name] for p in untraced_passes])}')
    print(f'steady: pass_s {spread(host[:len(untraced_passes)])}')
    if not args.trace:
        # each pass at the machine speed measured just before and after it
        calibrated = [p.host_s * REFERENCE_S * 2 / (before + after)
                      for p, before, after in zip(passes, references,
                                                  references[1:])]
        print(f'steady: pass_cal_s {spread(calibrated)}')
        print(f'steady: reference_s {spread(references)}')
        print(f'steady: setup_s {spread(setups)}')
    print('modeled: ' + ' '.join(f'{k} {v!r}' for k, v in modeled.items()))
    print(f'error_rate: {failed / attempted:.6g} ({failed}/{attempted})')

    if args.trace:
        import layers
        overhead = host[-1] / host[-2]
        print(f'layer shares of the traced phase (set-up + one pass), '
              f'tracing overhead {overhead:.3f}x:')
        print(layers.layer_table(recorder))
        metrics = layers.per_layer_metrics(recorder, overhead)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            'setup_s': {'value': statistics.median(setups), 'unit': 's'},
            'pass_cal_s': {'value': statistics.median(calibrated),
                           'unit': 's'},
            'peak_rss_mb': {'value': rss, 'unit': 'MiB'},
        }
    detail = {'workload': args.workload, 'seed': args.seed,
              'modeled': modeled,
              'phases': {k: [p.phases[k] for p in passes]
                         for k in passes[0].phases}}
    if not args.trace:
        detail['references'] = references
    print('detail: ' + json.dumps(detail, sort_keys=True))
    bad = [name for name, m in metrics.items()
           if not math.isfinite(m['value'])]
    if bad:
        print(f'perfbench: non-finite metrics {bad}', file=sys.stderr)
        return 1
    print(json.dumps({'correct': failed == 0, 'attempted': attempted,
                      'failed': failed, 'metrics': metrics}))
    return 0


if __name__ == '__main__':
    sys.exit(main())
