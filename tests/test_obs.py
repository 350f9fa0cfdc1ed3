"""The observability spine (repro.obs): span lifecycle invariants, the
metrics registry, Chrome trace export, the BENCH_* trajectory format, and
the ``python -m repro.obs.compare`` regression gate — plus reconciliation
of the span ledger against the serving stats fold.
"""
import inspect
import json
import math

import numpy as np
import pytest

from repro.graph import ops, symbol, trace
from repro.gpusim.device import RTX3090
from repro.models.common import WeightFactory, conv_bn_relu, linear
from repro.obs import (LIFECYCLE_TRACK, TERMINAL_KINDS, BenchMetric,
                       BenchResult, Counter, Gauge, Histogram, Measurement,
                       MetricsRegistry, Telemetry, Tracer, percentile)
from repro.obs.compare import compare, main as compare_main
from repro.serve import (BatchingPolicy, FailureEvent, Fleet, FleetSimulator,
                         LeastLoadedPlacement, ModelRegistry, Request,
                         ServerSimulator, poisson_trace)


def tiny_cnn(batch: int):
    x = symbol([batch, 4, 12, 12], name='x')
    wf = WeightFactory(5)
    y = conv_bn_relu(wf, x, 8, kernel=3, padding=1, name='c1')
    return trace(ops.global_avg_pool(y), name=f'cnn_b{batch}')


def tiny_mlp(batch: int):
    x = symbol([batch, 32], name='x')
    wf = WeightFactory(9)
    y = ops.relu(linear(wf, x, 64, name='fc1'))
    return trace(linear(wf, y, 8, name='fc2'), name=f'mlp_b{batch}')


# ---------------------------------------------------------------------------
# percentiles: the one shared implementation


class TestPercentiles:
    def test_matches_numpy(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        for q in (0, 25, 50, 90, 99, 100):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q)))

    def test_empty_is_nan_not_crash(self):
        assert math.isnan(percentile([], 99))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


# ---------------------------------------------------------------------------
# metrics registry


class TestMetrics:
    def test_counter_rejects_negative(self):
        c = Counter('n')
        c.add(2)
        c.add()
        assert c.value == 3
        with pytest.raises(ValueError):
            c.add(-1)

    def test_gauge_series_over_sim_time(self):
        g = Gauge('depth')
        g.set(0.0, 1.0)
        g.set(0.5, 4.0)
        g.set(1.0, 2.0)
        assert g.last == 2.0 and g.max() == 4.0 and g.num_samples == 3

    def test_histogram_measurement_round_trip(self):
        h = Histogram('lat', unit='ms')
        h.observe_many([1.0, 2.0, 3.0, 4.0])
        m = h.measurement()
        assert isinstance(m, Measurement)
        assert m.mean_ms == pytest.approx(2.5)
        assert m.repeats == 4

    def test_registry_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter('x').add()
        with pytest.raises(TypeError, match='x'):
            reg.gauge('x')

    def test_merge_keeps_existing_names(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter('shared').add(1)
        b.counter('shared').add(10)
        b.counter('only_b').add(5)
        a.merge(b)
        assert a.counter('shared').value == 1      # existing name wins
        assert a.counter('only_b').value == 5

    def test_profiler_benchmark_flows_through_histogram(self):
        """Satellite: compile-time measurement and serve-time latency share
        one histogram type."""
        from repro.runtime import HidetExecutor
        from repro.runtime.profiler import benchmark
        compiled = HidetExecutor().compile(tiny_cnn(1))
        exact = benchmark(compiled)
        assert exact.std_ms == 0.0
        noisy = benchmark(compiled, repeats=20, noise=0.05, seed=1)
        assert noisy.repeats == 20
        assert noisy.std_ms > 0.0
        assert noisy.mean_ms == pytest.approx(exact.mean_ms, rel=0.2)


# ---------------------------------------------------------------------------
# span lifecycle invariants


class TestSpanLifecycle:
    def test_every_arrival_terminates_exactly_once(self):
        tracer = Tracer()
        req = Request(0, 'm', 1, 0.0)
        tracer.arrival(req, 0.0)
        assert tracer.terminal_counts()['open'] == 1
        tracer.reject(req, 0.1)
        counts = tracer.terminal_counts()
        assert counts == {'complete': 0, 'reject': 1, 'lost': 0, 'open': 0}
        tracer.assert_invariants()

    def test_double_termination_is_a_violation(self):
        tracer = Tracer()
        req = Request(0, 'm', 1, 0.0)
        tracer.arrival(req, 0.0)
        tracer.reject(req, 0.1)
        tracer.reject(req, 0.2)
        assert any('twice' in v for v in tracer.check_invariants())
        with pytest.raises(AssertionError):
            tracer.assert_invariants()

    def test_orphan_termination_is_a_violation(self):
        tracer = Tracer()
        tracer.lost(Request(7, 'm', 1, 0.0), 1.0)
        assert tracer.check_invariants()

    def test_duplicate_arrival_is_a_violation(self):
        tracer = Tracer()
        tracer.arrival(Request(0, 'm', 1, 0.0), 0.0)
        tracer.arrival(Request(0, 'm', 1, 0.5), 0.5)
        assert any('duplicate' in v for v in tracer.check_invariants())

    def test_terminal_kinds_cover_the_ledger(self):
        assert set(TERMINAL_KINDS) == {'complete', 'reject', 'lost'}


# ---------------------------------------------------------------------------
# telemetry ↔ stats reconciliation


@pytest.fixture(scope='module')
def sim_run():
    """One single-replica run with telemetry, shared across the tests."""
    registry = ModelRegistry()
    registry.register('tiny', tiny_cnn, max_batch=4)
    sim = ServerSimulator(registry, BatchingPolicy(max_batch=4, max_wait=1e-3))
    trace_ = poisson_trace(3000, 300, ['tiny'], seed=11)
    telemetry = Telemetry()
    result = sim.run(trace_, telemetry=telemetry)
    stats = result.stats(registry, telemetry=telemetry)
    return trace_, telemetry, stats


@pytest.fixture(scope='module')
def decode_run():
    """One continuous-batching decode run with telemetry."""
    from repro.gpusim import DecodeCostModel
    from repro.serve import DecodePolicy, DecodeSimulator, decode_trace
    cost = DecodeCostModel(device=RTX3090, seq_length=16,
                           bucket_latency={1: 1e-4, 4: 1.6e-4},
                           weights_bytes=1_000_000)
    trace_ = decode_trace(qps=3000, num_requests=150, seed=2,
                          prompt_tokens=(2, 8), mean_output_tokens=6.0,
                          max_output_tokens=24)
    telemetry = Telemetry()
    sim = DecodeSimulator(cost, DecodePolicy(max_width=4, max_tokens=24))
    result = sim.run(trace_, telemetry=telemetry)
    return telemetry, result.stats(telemetry=telemetry)


@pytest.fixture(scope='module')
def fleet_run():
    """A two-replica fleet run whose first replica is killed and revived."""
    fleet = Fleet([RTX3090, RTX3090], placement=LeastLoadedPlacement())
    fleet.register('cnn', tiny_cnn, max_batch=4)
    fleet.register('mlp', tiny_mlp, max_batch=4)
    trace_ = poisson_trace(6000, 400, ['cnn', 'mlp'], seed=3)
    kill_at = trace_[len(trace_) // 4].arrival
    sim = FleetSimulator(
        fleet, BatchingPolicy(max_batch=4, max_wait=1e-3),
        failures=[FailureEvent(time=kill_at, replica=0,
                               revive_at=kill_at + 0.05)])
    telemetry = Telemetry()
    result = sim.run(trace_, telemetry=telemetry)
    return trace_, telemetry, result.stats(telemetry=telemetry)


def test_telemetry_without_tracer_records_into_a_fresh_one():
    assert isinstance(Telemetry(tracer=None).tracer, Tracer)


def test_telemetry_samples_only_gauges(sim_run, decode_run, fleet_run):
    """Counts, latencies and batch sizes live in the trace and the fold;
    the live registry keeps only the series neither holds."""
    assert list(inspect.signature(Telemetry).parameters) == ['tracer']
    for telemetry in (sim_run[1], decode_run[0], fleet_run[1]):
        names = telemetry.metrics.names()
        assert names
        assert all(isinstance(telemetry.metrics[name], Gauge)
                   for name in names), names


class TestReconciliation:
    def test_span_totals_match_stats(self, sim_run):
        trace_, telemetry, stats = sim_run
        telemetry.tracer.assert_invariants()
        counts = telemetry.tracer.terminal_counts()
        assert counts['open'] == 0
        assert counts['complete'] == stats.num_requests
        assert counts['reject'] == stats.num_rejected
        assert counts['lost'] == stats.num_lost_to_failure
        assert sum(counts[k] for k in TERMINAL_KINDS) == len(trace_)

    def test_span_latencies_agree_with_fold(self, sim_run):
        _, telemetry, stats = sim_run
        latencies = [(span.terminal_time - span.arrival) * 1e3
                     for span in telemetry.tracer.request_spans
                     if span.terminal == 'complete']
        assert len(latencies) == stats.num_requests
        assert percentile(latencies, 50) == stats.latency_p50_ms
        assert percentile(latencies, 99) == stats.latency_p99_ms
        assert math.isclose(sum(latencies) / len(latencies),
                            stats.latency_mean_ms, rel_tol=1e-12)

    def test_stats_carry_the_merged_registry(self, sim_run):
        _, telemetry, stats = sim_run
        assert stats.metrics is not None
        assert (stats.metrics.counter('serve.requests.completed').value
                == stats.num_requests)
        # the sampled gauges join the fold's registry as the same objects
        assert (stats.metrics['sim.queue.depth.r0']
                is telemetry.metrics['sim.queue.depth.r0'])

    def test_sim_time_ordering_within_spans(self, sim_run):
        _, telemetry, _ = sim_run
        for span in telemetry.tracer.request_spans:
            if span.dispatch_time is not None:
                assert span.arrival <= span.dispatch_time
                assert span.dispatch_time <= span.terminal_time
            if span.terminal == 'complete':
                assert span.replica is not None and span.bucket is not None


# ---------------------------------------------------------------------------
# decode: the reconciliation extends to token granularity


class TestTokenReconciliation:
    def test_span_tokens_match_stats(self, decode_run):
        telemetry, stats = decode_run
        telemetry.tracer.assert_invariants()
        tokens = telemetry.tracer.token_counts()
        assert tokens['open'] == 0 and tokens['reject'] == 0
        # every generated token is attributed to exactly one terminal span
        assert tokens['complete'] + tokens['lost'] == stats.num_decode_tokens
        assert stats.tokens_per_second > 0

    def test_span_token_totals_agree_with_fold(self, decode_run):
        telemetry, stats = decode_run
        spans = telemetry.tracer.request_spans
        tokens = telemetry.tracer.token_counts()
        for kind in TERMINAL_KINDS:
            assert tokens[kind] == sum(span.tokens_emitted for span in spans
                                       if span.terminal == kind)
        assert tokens['complete'] + tokens['lost'] == stats.num_decode_tokens
        # each decode step samples its lane's width once
        widths = [name for name in telemetry.metrics.names()
                  if name.startswith('sim.decode.width.')]
        assert widths
        assert (sum(telemetry.metrics[name].num_samples for name in widths)
                == stats.num_decode_steps)

    def test_chrome_export_carries_token_args(self, decode_run):
        telemetry, stats = decode_run
        doc = telemetry.chrome_trace()
        ends = [e for e in doc['traceEvents'] if e['ph'] == 'e']
        assert (sum(e['args'].get('tokens_out', 0) for e in ends)
                == stats.num_decode_tokens)


# ---------------------------------------------------------------------------
# fleet: failures show up as spans, the ledger still balances


class TestFleetTelemetry:
    def test_kill_revive_run_reconciles_and_traces(self, fleet_run):
        trace_, telemetry, stats = fleet_run
        telemetry.tracer.assert_invariants()
        counts = telemetry.tracer.terminal_counts()
        assert counts['open'] == 0
        assert counts['complete'] == stats.num_requests
        assert counts['reject'] == stats.num_rejected
        assert counts['lost'] == stats.num_lost_to_failure
        assert sum(counts[k] for k in TERMINAL_KINDS) == len(trace_)

        # the lifecycle shows up on the instant track
        instants = {i.name for i in telemetry.tracer.instants}
        assert 'lifecycle:kill' in instants
        assert 'lifecycle:revive' in instants
        # failure-caused losses carry a failure reason, not a generic one
        lost = [s for s in telemetry.tracer.request_spans
                if s.terminal == 'lost']
        assert all(s.reason.startswith('failure') for s in lost)

    def test_gauges_track_fleet_shape(self):
        fleet = Fleet([RTX3090, RTX3090], placement=LeastLoadedPlacement())
        fleet.register('cnn', tiny_cnn, max_batch=4)
        trace_ = poisson_trace(3000, 200, ['cnn'], seed=5)
        kill_at = trace_[len(trace_) // 2].arrival
        sim = FleetSimulator(
            fleet, BatchingPolicy(max_batch=4, max_wait=1e-3),
            failures=[FailureEvent(time=kill_at, replica=1)])
        telemetry = Telemetry()
        sim.run(trace_, telemetry=telemetry)
        serving = telemetry.metrics.gauge('sim.replicas.serving')
        values = [v for _, v in serving.series()]
        assert 2.0 in values and 1.0 in values     # the kill is visible


# ---------------------------------------------------------------------------
# Chrome trace export


class TestChromeTrace:
    def test_export_is_valid_and_balanced(self, sim_run, tmp_path):
        _, telemetry, stats = sim_run
        path = tmp_path / 'trace.json'
        telemetry.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        events = doc['traceEvents']
        assert events, 'empty trace'
        for ev in events:
            assert ev['ph'] in ('b', 'e', 'X', 'i', 'C', 'M')
            if ev['ph'] != 'M':
                assert ev['ts'] >= 0

        begins = [e for e in events if e['ph'] == 'b']
        ends = [e for e in events if e['ph'] == 'e']
        # one terminal span per admitted request, b/e ids match 1:1
        assert len(begins) == len(ends)
        assert {e['id'] for e in begins} == {e['id'] for e in ends}
        terminals = [e['args']['terminal'] for e in ends]
        assert terminals.count('complete') == stats.num_requests

        # batch execution intervals are X events with positive duration
        batches = [e for e in events if e['ph'] == 'X']
        assert len(batches) == stats.num_batches
        assert all(e['dur'] > 0 for e in batches)

        # gauge series export as counter events for Perfetto step charts
        assert any(e['ph'] == 'C' for e in events)

    def test_sim_seconds_become_microseconds(self, sim_run):
        _, telemetry, _ = sim_run
        doc = telemetry.chrome_trace()
        by_id = {s.req_id: s for s in telemetry.tracer.request_spans}
        begin = next(e for e in doc['traceEvents'] if e['ph'] == 'b')
        assert begin['ts'] == pytest.approx(by_id[begin['id']].arrival * 1e6)


# ---------------------------------------------------------------------------
# bench format + the compare gate


def _result(area='serving', **values):
    res = BenchResult(area=area, mode='smoke')
    for name, value in values.items():
        res.add(name, value)
    return res


class TestBenchFormat:
    def test_write_is_byte_stable(self, tmp_path):
        res = _result(p99_ms=3.25, p50_ms=1.5)
        a, b = tmp_path / 'a.json', tmp_path / 'b.json'
        res.write(str(a))
        BenchResult.load(str(a)).write(str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / 'v.json'
        doc = _result(x=1.0).to_dict()
        doc['format_version'] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match='format_version'):
            BenchResult.load(str(path))

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            BenchMetric(value=1.0, direction='sideways')


class TestCompareGate:
    def test_identical_passes(self):
        base = _result(p99_ms=3.0)
        assert compare(base, base).ok

    def test_injected_latency_regression_fails_named(self, tmp_path, capsys):
        """The acceptance criterion: a >=10% latency bump must gate."""
        base = _result(latency_p99_ms=3.0)
        cand = _result(latency_p99_ms=3.0 * 1.12)       # +12% > 10% band
        cmp_ = compare(base, cand)
        assert not cmp_.ok
        assert [d.name for d in cmp_.regressions] == ['latency_p99_ms']

        # and through the CLI: exit code 1, metric named on stdout
        base_path, cand_path = tmp_path / 'b.json', tmp_path / 'c.json'
        base.write(str(base_path))
        cand.write(str(cand_path))
        assert compare_main([str(base_path), str(cand_path)]) == 1
        assert 'latency_p99_ms' in capsys.readouterr().out

    def test_within_noise_band_passes(self):
        base = _result(latency_p99_ms=3.0)
        cand = _result(latency_p99_ms=3.0 * 1.05)       # +5% < 10% band
        assert compare(base, cand).ok

    def test_higher_is_better_mirrors(self):
        base = BenchResult(area='a')
        base.add('throughput', 100.0, direction='higher')
        worse = BenchResult(area='a')
        worse.add('throughput', 80.0, direction='higher')
        assert not compare(base, worse).ok
        better = BenchResult(area='a')
        better.add('throughput', 130.0, direction='higher')
        cmp_ = compare(base, better)
        assert cmp_.ok
        assert cmp_.deltas[0].status == 'improved'

    def test_zero_baseline_is_strict(self):
        """warm_*_seconds baselines are 0: any adverse move gates."""
        base = _result(warm_seconds=0.0)
        cand = _result(warm_seconds=0.001)
        assert not compare(base, cand).ok

    def test_info_metrics_never_gate(self):
        base = BenchResult(area='a')
        base.add('wall_seconds', 5.0, direction='info')
        cand = BenchResult(area='a')
        cand.add('wall_seconds', 50.0, direction='info')
        assert compare(base, cand).ok

    def test_missing_gated_metric_is_a_regression(self):
        base = _result(p99_ms=3.0, p50_ms=1.0)
        cand = _result(p99_ms=3.0)
        cmp_ = compare(base, cand)
        assert not cmp_.ok
        assert cmp_.regressions[0].name == 'p50_ms'

    def test_nan_candidate_is_a_regression(self):
        base = _result(p99_ms=3.0)
        cand = _result(p99_ms=float('nan'))
        assert not compare(base, cand).ok

    def test_area_mismatch_is_exit_2(self, tmp_path):
        a, b = tmp_path / 'a.json', tmp_path / 'b.json'
        _result(area='serving', x=1.0).write(str(a))
        _result(area='tuning', x=1.0).write(str(b))
        assert compare_main([str(a), str(b)]) == 2

    def test_unreadable_file_is_exit_2(self, tmp_path):
        a = tmp_path / 'a.json'
        _result(x=1.0).write(str(a))
        assert compare_main([str(a), str(tmp_path / 'missing.json')]) == 2


# ---------------------------------------------------------------------------
# committed baselines: the gate must hold on an unchanged tree


class TestCommittedBaselines:
    @pytest.mark.parametrize('name', ['BENCH_serving.json', 'BENCH_tuning.json'])
    def test_baseline_loads(self, name):
        import pathlib
        path = pathlib.Path(__file__).resolve().parent.parent / name
        assert path.is_file(), f'{name} baseline missing from repo root'
        res = BenchResult.load(str(path))
        assert res.names()
        assert compare(res, res).ok

    def test_gate_runs_as_module_without_runtime_warning(self):
        """``python -m repro.obs.compare`` must not find its own module
        already imported by the package (runpy's RuntimeWarning)."""
        import os
        import pathlib
        import subprocess
        import sys
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env['PYTHONPATH'] = (str(root / 'src')
                             + os.pathsep + env.get('PYTHONPATH', ''))
        baseline = str(root / 'BENCH_serving.json')
        proc = subprocess.run(
            [sys.executable, '-W', 'error::RuntimeWarning', '-m',
             'repro.obs.compare', baseline, baseline],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
