"""Self-checks of the benchmark itself (not collected by pytest).

    python3 perfbench/selfcheck.py [workload ...]

Run from the root of a checkout.  For each workload (all by default):

1. determinism: two traced runs under different ``PYTHONHASHSEED`` values
   must report identical modeled metrics and identical per-layer counts;
2. an unseen seed: an untraced run on a seed used nowhere else must pass
   every correctness check and print every end-to-end metric of
   BENCHMARK.json, and the traced runs every per-layer metric;
3. each planted failure (a dropped request; a cache that forgets, a
   raising cost model) must make the workload's error count nonzero.

Exits 0 when every check passes; prints one line per failed check.
"""
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
UNSEEN_SEED = 90411


def run(workload: str, seed: int, trace: int, hash_seed: str,
        seconds: int = 1) -> tuple[dict, dict]:
    """(result JSON, detail JSON) of one benchmark run."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, 'run.py'), '--workload',
         workload, '--seed', str(seed), '--seconds', str(seconds),
         '--trace', str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
        check=True)
    lines = proc.stdout.strip().splitlines()
    detail = next(line for line in lines if line.startswith('detail: '))
    return json.loads(lines[-1]), json.loads(detail[len('detail: '):])


def exact_counts(metrics: dict) -> dict:
    """Per-layer metrics that must repeat exactly: everything but times."""
    return {name: m['value'] for name, m in metrics.items()
            if m['unit'] != 's' and name != 'trace.overhead_ratio'}


def check_workload(workload: str, spec: dict) -> list[str]:
    problems = []
    (a, detail_a), (b, detail_b) = (run(workload, SEED, 1, h)
                                    for h in ('1', '2'))
    if detail_a['modeled'] != detail_b['modeled']:
        problems.append(f'{workload}: modeled metrics differ across hash '
                        f'seeds: {detail_a["modeled"]} vs '
                        f'{detail_b["modeled"]}')
    counts_a, counts_b = exact_counts(a['metrics']), exact_counts(
        b['metrics'])
    for name in sorted(counts_a):
        if counts_a[name] != counts_b.get(name):
            problems.append(f'{workload}: {name} differs across hash seeds: '
                            f'{counts_a[name]} vs {counts_b.get(name)}')
    metrics = a['metrics']
    phase = metrics['trace.phase_s']['value']
    attributed = math.fsum(
        [m['value'] for name, m in metrics.items()
         if name.endswith('.self_s')]
        + [metrics['trace.unattributed_s']['value']])
    if abs(attributed - phase) > 1e-9 * phase:
        problems.append(f'{workload}: layer self times plus unattributed '
                        f'{attributed} != traced phase {phase}')
    per_layer = {m['name'] for m in spec['per_layer']}
    end_to_end = {m['name']: m['unit'] for m in spec['end_to_end']}
    unseen, _ = run(workload, UNSEEN_SEED, 0, '3')
    for label, result in (('traced', a), ('traced', b), ('unseen', unseen)):
        if not result['correct'] or result['failed']:
            problems.append(f'{workload}: {label} run failed '
                            f'{result["failed"]}/{result["attempted"]}')
    if set(a['metrics']) != per_layer:
        problems.append(f'{workload}: per-layer metrics differ from '
                        f'BENCHMARK.json: {sorted(set(a["metrics"]) ^ per_layer)}')
    got = {name: m['unit'] for name, m in unseen['metrics'].items()}
    if got != end_to_end:
        problems.append(f'{workload}: end-to-end metrics {got} != '
                        f'BENCHMARK.json {end_to_end}')
    return problems


def planted(workload: str) -> list[str]:
    """Run one pass per planted fault; each pass must count failures."""
    import workloads
    from repro.runtime import ScheduleCache
    from repro.serve.fleet import FleetSimulator
    from repro.tune import RidgeCostModel

    run_fleet = FleetSimulator.run

    def drop_one(self, *args, **kwargs):
        result = run_fleet(self, *args, **kwargs)
        result.completions.pop()
        return result

    def raising(self, *args, **kwargs):
        raise RuntimeError('planted cost-model failure')

    faults = {
        'serve-replay': [(FleetSimulator, 'run', drop_one)],
        'compile-zoo': [(ScheduleCache, 'load',
                         classmethod(lambda cls, path: ScheduleCache())),
                        (RidgeCostModel, 'rank', raising)],
    }[workload]
    problems = []
    scratch = os.path.join(ROOT, '.bench_build')
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix='perfbench-selfcheck-',
                                     dir=scratch) as tmp:
        w = workloads.WORKLOADS[workload](SEED, tmp)
        w.prepare()
        inputs = w.setup()
        for owner, name, fault in faults:
            original = vars(owner)[name]
            setattr(owner, name, fault)
            try:
                out = w.run_pass(inputs)
            finally:
                setattr(owner, name, original)
            if not out.failed:
                problems.append(f'{workload}: planted {owner.__name__}.'
                                f'{name} fault was not counted as a failure')
    return problems


def main(argv) -> int:
    sys.path[:0] = [os.path.join(ROOT, 'src'), HERE]
    with open(os.path.join(ROOT, 'BENCHMARK.json'), encoding='utf-8') as f:
        spec = json.load(f)
    names = argv or [w['name'] for w in spec['workloads']]
    problems = []
    for workload in names:
        found = check_workload(workload, spec) + planted(workload)
        print(f'{workload}: {"ok" if not found else "FAILED"}')
        problems += found
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
