"""The benchmark's three workloads.

Each workload is an offline job driven by one caller in one thread: a
seeded input set (model graphs, request traces) is built in ``setup`` and
handed to the library as fast as the caller can drive it.  ``run_pass``
does one pass of the timed work, timing each phase with the checks kept
outside the timed regions, and returns a :class:`PassResult`.

Why each workload exists is recorded in METRICS.md; in short:

* ``compile-zoo`` is the compile stack with no serving: graph passes,
  cache, exhaustive tuning, perf model, IR build, analysis gate, and the
  cost-model path (featurize, refit, rank over a growing measurement
  corpus) in a separate guided phase;
* ``serve-replay`` is the three event-loop simulators and telemetry; its
  compiles run in set-up, except the fleet replay's scale-up join (warm
  from the record log) and failure re-homing (a device-transfer compile),
  which run inside the replay as they would in a running fleet.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

#: the zoo at batch 1.  CNN inputs and transformer depth/vocabulary are
#: scaled down from the paper's shapes so that a run fits its time budget:
#: cold-compile work is set by the number of distinct GEMM problems, which
#: the scaling keeps, while graph construction (random weights) and the
#: numpy reference run shrink several-fold
ZOO = {
    'resnet50': {'image_size': 112},
    'inception_v3': {'image_size': 150},
    'mobilenet_v2': {'image_size': 112},
    'bert': {'layers': 2, 'vocab_size': 8000},
    'gpt2': {'layers': 2, 'vocab_size': 8000},
}
#: the guided phase compiles these zoo models in order through one cache,
#: clock and cost model; mobilenet_v2 and resnet50 would add ~40 s per pass
GUIDED = ('bert', 'gpt2')

#: serving models: tiny shapes, because replay cost does not depend on the
#: model's shape and set-up (graph builds per replica) does
TINY = {'layers': 1, 'seq_length': 16, 'vocab_size': 500}
SERVE_MODELS = {
    'mobilenet_v2': {'image_size': 32},
    'bert': {**TINY, 'hidden': 32, 'heads': 2},
    'gpt2': {**TINY, 'hidden': 48, 'heads': 4},
}
SERVER_REQUESTS = 100_000
FLEET_REQUESTS = 80_000
DECODE_REQUESTS = 20_000
BUCKETS = (1, 2, 4, 8)
PROMPT_TOKENS = (4, 16)
MEAN_OUTPUT_TOKENS = 12.0
MAX_OUTPUT_TOKENS = 48
#: offered loads, each relative to the capacity of what serves the trace:
#: the single-GPU and fleet traces at 1.5x their batch-1 capacity (the
#: regime dynamic batching exists for, as in experiments/serving.py), the
#: decode trace at 0.85x its lanes' full-width capacity (wide batches, and a
#: queue that drains between bursts)
SERVER_LOAD = 1.5
FLEET_LOAD = 1.5
DECODE_LOAD = 0.85
#: the decode lane's outage, as a share of the decode trace's span
DECODE_OUTAGE = 0.01


@dataclass
class PassResult:
    """One pass: host seconds per phase, checks, modeled numbers, counts."""

    phases: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    modeled: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        self.failures.append(what)

    @property
    def host_s(self) -> float:
        return math.fsum(self.phases.values())


class Timer:
    """Accumulates host seconds into ``out.phases[name]``."""

    def __init__(self, out: PassResult, name: str):
        self.out, self.name = out, name

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        phases = self.out.phases
        phases[self.name] = (phases.get(self.name, 0.0)
                             + time.perf_counter() - self.start)


def geomean(values) -> float:
    values = list(values)
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def build_zoo(names, configs: dict, seed: int) -> dict:
    """Graphs built through the zoo registry (so the traced run sees every
    build), each model's weights seeded from the workload seed."""
    import repro.models
    return {name: repro.models.MODEL_BUILDERS[name](seed=seed + i,
                                                    **configs[name])
            for i, name in enumerate(names)}


def fleet_batch1_capacity(fleet) -> float:
    """Requests/second a built fleet sustains at batch 1 over an even mix
    of its models: each model's share of the mix must fit on the replicas
    hosting it, a replica's time split evenly over the models it hosts."""
    from repro.experiments.serving import BATCH_OVERHEAD_SECONDS
    per_model: dict[str, float] = {}
    for replica in fleet.replicas:
        names = sorted(replica.registry.models)
        for name in names:
            service = (replica.registry[name].latency(1)
                       + BATCH_OVERHEAD_SECONDS)
            per_model[name] = (per_model.get(name, 0.0)
                               + 1.0 / (service * len(names)))
    return len(per_model) * min(per_model.values())


def decode_capacity(sim, mean_prompt_tokens: float,
                    mean_output_tokens: float) -> float:
    """Requests/second a decode simulator's lanes sustain at full width:
    per request one prefill of its prompt plus its share of full-width
    decode steps, as the simulator's cost model prices them."""
    width = sim.policy.max_width
    per_request = (sim.cost.prefill_seconds(mean_prompt_tokens, width)
                   + mean_output_tokens * sim.cost.decode_step_seconds(width)
                   / width)
    return sim.num_replicas / per_request


def seeded_inputs(graph, seed: int) -> list:
    rng = np.random.default_rng(seed)
    arrays = []
    for tensor in graph.inputs:
        dtype = tensor.dtype.np_dtype
        if np.issubdtype(dtype, np.integer):
            arrays.append(rng.integers(0, 500, size=tensor.shape).astype(dtype))
        else:
            arrays.append(rng.standard_normal(tensor.shape).astype(dtype))
    return arrays


class Workload:
    """``prepare`` once per run (untimed), ``setup`` the inputs (timed as
    set-up), ``run_pass`` over them (timed per phase), ``final_checks``
    once per run (untimed)."""

    name = ''

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        #: model -> modeled latency of its first compile in this run
        self.first: dict = {}

    def prepare(self) -> None:
        pass

    def final_checks(self, inputs) -> PassResult:
        return PassResult()


class CompileZoo(Workload):
    name = 'compile-zoo'

    def setup(self) -> dict:
        return build_zoo(ZOO, ZOO, self.seed)

    def _compile_all(self, executor, graphs, out: PassResult, phase: str):
        compiled = {}
        with Timer(out, phase):
            for name, graph in graphs.items():
                try:
                    compiled[name] = executor.compile(graph, name=name)
                except Exception as exc:   # noqa: BLE001 - counted, reported
                    compiled[name] = exc
        return compiled

    def run_pass(self, graphs: dict) -> PassResult:
        from repro.runtime import HidetExecutor, ScheduleCache
        out = PassResult()
        log = os.path.join(self.workdir, 'zoo-schedules.log')
        if os.path.exists(log):
            os.remove(log)
        cache = ScheduleCache()
        cold = self._compile_all(HidetExecutor(cache=cache), graphs, out,
                                 'cold_compile_s')
        with Timer(out, 'save_s'):
            cache.save(log)
        with Timer(out, 'warm_compile_s'):
            warm_cache = ScheduleCache.load(log)
        warm = self._compile_all(HidetExecutor(cache=warm_cache), graphs,
                                 out, 'warm_compile_s')
        checked = self._compile_all(
            HidetExecutor(cache=warm_cache, build_ir=True, check_ir=True),
            graphs, out, 'checked_compile_s')
        guided, clock = self._guided(graphs, out)

        for phase, results in (('cold', cold), ('warm', warm),
                               ('checked', checked)):
            for name, result in results.items():
                out.attempted += 1
                if isinstance(result, Exception):
                    out.fail(f'{phase} {name}: {result!r}')
                    continue
                report = result.compile_report
                if phase != 'cold' and (report.cache_misses
                                        or report.tuning_seconds):
                    out.fail(f'{phase} {name}: {report.cache_misses} misses, '
                             f'{report.tuning_seconds} tuning s')
                    continue
                reference = self.first.setdefault(name, result.latency_ms)
                if result.latency_ms != reference:
                    out.fail(f'{phase} {name}: latency {result.latency_ms} '
                             f'!= first pass {reference}')
        self._check_guided(guided, out)
        good = [c for c in cold.values() if not isinstance(c, Exception)]
        if len(good) == len(cold):
            out.modeled['model_latency_ms'] = geomean(c.latency_ms
                                                      for c in good)
            out.modeled['tuning_sim_s'] = math.fsum(c.tuning_seconds
                                                    for c in good)
        good = [c for c in guided.values() if not isinstance(c, Exception)]
        if len(good) == len(guided):
            out.modeled['guided_latency_ms'] = geomean(c.latency_ms
                                                       for c in good)
            out.modeled['guided_tuning_sim_s'] = clock.elapsed_seconds
        self.last_compiled = cold
        return out

    def _guided(self, graphs: dict, out: PassResult):
        """``seed_cost_model``, then cost-model-guided compiles of the
        ``GUIDED`` models through one fresh cache, clock and cost model."""
        import repro.tune
        from repro.gpusim.clock import SimulatedClock
        from repro.gpusim.device import RTX3090
        from repro.runtime import HidetExecutor, ScheduleCache
        cache, clock = ScheduleCache(), SimulatedClock()
        compiled = {}
        with Timer(out, 'guided_compile_s'):
            repro.tune.seed_cost_model(cache, RTX3090, clock=clock)
            cost_model = repro.tune.RidgeCostModel(RTX3090)
            for name in GUIDED:
                try:
                    compiled[name] = HidetExecutor(
                        RTX3090, clock=clock, cache=cache,
                        cost_model=cost_model).compile(graphs[name],
                                                       name=name)
                except Exception as exc:   # noqa: BLE001 - counted, reported
                    compiled[name] = exc
        return compiled, clock

    def _check_guided(self, compiled: dict, out: PassResult) -> None:
        """A guided compile fails if it raised, chose a schedule the
        device cannot run, or its modeled latency moved since pass 1."""
        from repro.gpusim.device import RTX3090
        for name, result in compiled.items():
            out.attempted += 1
            if isinstance(result, Exception):
                out.fail(f'guided {name}: {result!r}')
                continue
            invalid = [op.name for op in result.ops
                       if op.schedule is not None
                       and not op.schedule.is_valid(RTX3090)]
            if invalid:
                out.fail(f'guided {name}: invalid schedules {invalid}')
            reference = self.first.setdefault(('guided', name),
                                              result.latency_ms)
            if result.latency_ms != reference:
                out.fail(f'guided {name}: latency {result.latency_ms} '
                         f'!= first pass {reference}')

    def final_checks(self, graphs: dict) -> PassResult:
        """Once per run: each compiled model computes what its uncompiled
        graph computes on a seeded input."""
        out = PassResult()
        for i, (name, graph) in enumerate(graphs.items()):
            out.attempted += 1
            compiled = self.last_compiled.get(name)
            if compiled is None or isinstance(compiled, Exception):
                out.fail(f'run {name}: not compiled')
                continue
            inputs = seeded_inputs(graph, self.seed + 100 + i)
            want = graph.run(*inputs)
            got = compiled.run(*inputs)
            for w, g in zip(want, got):
                scale = float(np.max(np.abs(w))) or 1.0
                if w.shape != g.shape or not np.allclose(
                        g, w, rtol=1e-3, atol=1e-4 * scale):
                    out.fail(f'run {name}: compiled output differs')
                    break
        return out


@dataclass
class ServeInputs:
    """The serving workload's inputs, and the fleet the next pass uses."""

    registry: object
    trace: list
    spec: object
    fleet_trace: list
    decode_trace: list
    deployment: object = None
    decode_sim: object = None


class ServeReplay(Workload):
    name = 'serve-replay'

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.log = os.path.join(workdir, 'serve-schedules.log')
        self.fleet_capacity = None

    def prepare(self) -> None:
        """Compile every model once into the record log (untimed); each
        set-up then warms from it, as a restarted deployment would."""
        self.setup()

    def _spec(self, span: float):
        from repro.models import gpt2_kv_bytes_per_token
        from repro.serve import (AutoscaleSpec, BatchingSpec, CacheSpec,
                                 DecodeSpec, DeploymentSpec, FailureSpec,
                                 ModelSpec, PlacementSpec, ReplicaGroupSpec)
        # examples/deployment_spec.json over tiny models: two device kinds,
        # model-affine placement, queue-depth autoscaling, seeded failures
        return DeploymentSpec(
            models=(ModelSpec('mobilenet_v2', max_batch=8,
                              config=SERVE_MODELS['mobilenet_v2']),
                    ModelSpec('bert', max_batch=8,
                              config=SERVE_MODELS['bert']),
                    ModelSpec('gpt2', max_batch=8,
                              config=SERVE_MODELS['gpt2'],
                              decode=DecodeSpec(
                                  kv_bytes_per_token=gpt2_kv_bytes_per_token(),
                                  max_tokens=MAX_OUTPUT_TOKENS,
                                  seq_length=TINY['seq_length']))),
            replicas=(ReplicaGroupSpec('RTX3090', count=2),
                      ReplicaGroupSpec('LaptopGPU', count=1)),
            batching=BatchingSpec(max_batch=8, max_wait=0.002, max_queue=64),
            placement=PlacementSpec('model_affine'),
            # one scale-up join per replay at FLEET_LOAD: a threshold the
            # overloaded model's queue crosses, one extra replica at most
            # and a cooldown of half the trace
            autoscale=AutoscaleSpec(
                policy='queue_depth',
                options={'scale_up_depth': 4.0, 'scale_down_depth': 2.0},
                min_replicas=1, max_replicas=4, interval=0.05,
                cooldown=span / 2, device='RTX3090'),
            failures=FailureSpec(num_failures=2, num_replicas=3, span=span,
                                 seed=7, mttr=span / 4),
            cache=CacheSpec(warm_from=self.log, save_to=self.log))

    def _attach(self, inputs: ServeInputs, deployment) -> None:
        """Serve the next pass from ``deployment`` (a lifecycle replay
        mutates the fleet it runs on), with a decode simulator over its
        gpt2 replicas whose first lane fails halfway through the trace for
        ``DECODE_OUTAGE`` of its span."""
        from repro.serve import FailureEvent
        trace = inputs.decode_trace
        middle = trace[len(trace) // 2].arrival
        outage = DECODE_OUTAGE * trace[-1].arrival
        inputs.deployment = deployment
        inputs.decode_sim = self._decode_sim(
            deployment,
            [FailureEvent(time=middle, replica=0, revive_at=middle + outage)])

    @staticmethod
    def _decode_sim(deployment, failures=()):
        from repro.models import gpt2_kv_bytes_per_token
        from repro.serve import DecodePolicy
        return deployment.fleet.decode_simulator(
            'gpt2', DecodePolicy(max_width=8, admission='reserve',
                                 max_tokens=MAX_OUTPUT_TOKENS),
            kv_bytes_per_token=gpt2_kv_bytes_per_token(),
            seq_length=TINY['seq_length'], failures=failures)

    def setup(self) -> ServeInputs:
        from repro.experiments.serving import batch1_capacity, build_registry
        from repro.serve import Deployment, decode_trace, poisson_trace
        pair = {name: SERVE_MODELS[name] for name in ('mobilenet_v2', 'bert')}
        registry = build_registry(pair, BUCKETS, cache_path=self.log)
        trace = poisson_trace(qps=SERVER_LOAD * batch1_capacity(registry),
                              num_requests=SERVER_REQUESTS,
                              models=sorted(pair), seed=self.seed)
        if self.fleet_capacity is None:
            # the fleet's capacity does not depend on the trace, so a probe
            # deployment (failure and cooldown times unused) sizes the load,
            # once per run, in the untimed ``prepare``
            probe = Deployment(self._spec(1.0)).build()
            self.fleet_capacity = fleet_batch1_capacity(probe.fleet)
        fleet_trace = poisson_trace(
            qps=FLEET_LOAD * self.fleet_capacity,
            num_requests=FLEET_REQUESTS, models=sorted(SERVE_MODELS),
            seed=self.seed + 1)
        spec = self._spec(fleet_trace[-1].arrival)
        deployment = Deployment(spec).build()
        mean_prompt = sum(PROMPT_TOKENS) / 2
        dtrace = decode_trace(
            qps=DECODE_LOAD * decode_capacity(self._decode_sim(deployment),
                                              mean_prompt, MEAN_OUTPUT_TOKENS),
            num_requests=DECODE_REQUESTS, seed=self.seed + 2,
            prompt_tokens=PROMPT_TOKENS,
            mean_output_tokens=MEAN_OUTPUT_TOKENS,
            max_output_tokens=MAX_OUTPUT_TOKENS)
        inputs = ServeInputs(registry=registry, trace=trace, spec=spec,
                             fleet_trace=fleet_trace, decode_trace=dtrace)
        self._attach(inputs, deployment)
        return inputs

    def run_pass(self, inputs: ServeInputs) -> PassResult:
        from repro.obs import Telemetry
        from repro.serve import BatchingPolicy, Deployment, ServerSimulator
        if inputs.deployment is None:             # untimed rebuild
            self._attach(inputs, Deployment(inputs.spec).build())
        out = PassResult()
        sim = ServerSimulator(inputs.registry,
                              BatchingPolicy(max_batch=8, max_wait=2e-3))
        with Timer(out, 'replay_s'):
            plain = sim.run(inputs.trace)
            plain.stats(inputs.registry)
        telemetry = Telemetry()
        with Timer(out, 'traced_replay_s'):
            traced = sim.run(inputs.trace, telemetry=telemetry)
            traced.stats(inputs.registry, telemetry=telemetry)
        with Timer(out, 'fleet_replay_s'):
            fleet = inputs.deployment.run(inputs.fleet_trace)
            fleet.stats()
        with Timer(out, 'decode_replay_s'):
            decoded = inputs.decode_sim.run(inputs.decode_trace)
            decode_stats = decoded.stats()
        inputs.deployment = inputs.decode_sim = None

        self._account(out, 'replay', inputs.trace, plain.completions,
                      plain.rejected, [])
        self._account(out, 'traced replay', inputs.trace, traced.completions,
                      traced.rejected, [])
        problems = telemetry.tracer.check_invariants()
        if problems:
            out.fail(f'telemetry invariants: {problems[:3]}',
                     len(inputs.trace))
        self._account(out, 'fleet', inputs.fleet_trace, fleet.completions,
                      fleet.rejected, fleet.lost)
        self._account(out, 'decode', inputs.decode_trace, decoded.completions,
                      decoded.rejected, decoded.lost)
        short = [c.request.req_id for c in decoded.completions
                 if c.tokens_out != c.request.output_tokens]
        if short:
            out.fail(f'decode: {len(short)} completions with tokens_out != '
                     f'output_tokens', len(short))

        latencies = sorted([c.latency for c in fleet.completions]
                           + [math.inf] * (len(fleet.rejected)
                                           + len(fleet.lost)))
        p99 = latencies[max(0, math.ceil(0.99 * len(latencies)) - 1)]
        events = [e.kind for e in fleet.events]
        out.modeled.update({
            'serve_p99_ms': p99 * 1e3,
            'decode_tokens_per_s': decode_stats.tokens_per_second,
            # the regime the offered loads produce
            'fleet_joins': events.count('join'),
            'fleet_rehomes': events.count('rehome'),
            'fleet_dropped_ratio': ((len(fleet.rejected) + len(fleet.lost))
                                    / len(inputs.fleet_trace)),
            'scale_up_tuning_s': fleet.scale_up_tuning_seconds,
            'rehome_tuning_s': fleet.rehome_tuning_seconds,
            'decode_mean_width': decoded.mean_decode_width,
            'decode_dropped_ratio': ((len(decoded.rejected)
                                      + len(decoded.lost))
                                     / len(inputs.decode_trace)),
        })
        tracer = telemetry.tracer
        out.counts = {
            'serve.joins': events.count('join'),
            'serve.rehomes': events.count('rehome'),
            'serve.requests': 2 * len(inputs.trace) + len(inputs.fleet_trace)
            + len(inputs.decode_trace),
            'serve.batches': (len(plain.batches) + len(traced.batches)
                              + len(fleet.batches)),
            'serve.decode_steps': decoded.num_decode_steps,
            'serve.tokens': decoded.num_decode_tokens,
            'serve.requeued': fleet.num_requeued + decoded.num_requeued,
            'obs.spans': (len(tracer.request_spans) + len(tracer.batch_spans)
                          + len(tracer.instants)),
        }
        return out

    @staticmethod
    def _account(out: PassResult, what: str, trace, completions, rejected,
                 lost) -> None:
        """Every offered request ends exactly once: completed, rejected or
        lost.  A request that ends twice or never counts as failed."""
        ends: dict[int, int] = {}
        for c in completions:
            ends[c.request.req_id] = ends.get(c.request.req_id, 0) + 1
        for r in list(rejected) + list(lost):
            ends[r.req_id] = ends.get(r.req_id, 0) + 1
        out.attempted += len(trace)
        bad = sum(1 for r in trace if ends.get(r.req_id, 0) != 1)
        if bad:
            out.fail(f'{what}: {bad} requests not accounted for exactly once',
                     bad)


WORKLOADS = {w.name: w for w in (CompileZoo, ServeReplay)}
