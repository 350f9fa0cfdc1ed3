"""The telemetry facade the serving stack talks to.

A :class:`Telemetry` bundles one run's :class:`~repro.obs.tracing.Tracer`
and its sampled gauges behind the handful of verbs the simulators
actually speak — ``arrival``, ``reject``, ``lost``, ``requeue``,
``batch_formed``, ``batch_done``, ``lifecycle_event``,
``autoscale_decision``, ``queue_depth``, ``memory_committed``.  Each
serving fact is recorded once: totals, latencies and batch sizes are read
from the trace (spans, instants, :meth:`Tracer.terminal_counts`) or from
the fold in :func:`repro.serve.stats.compute_stats`.  The
:class:`~repro.obs.metrics.MetricsRegistry` holds only what neither keeps,
the ``sim.*`` gauges sampled over simulated time (queue depth, decode
width, committed KV and DRAM, serving and target replicas); the Chrome
trace exports them as counter tracks and the fold adopts them into
``stats.metrics``.

One ``Telemetry`` records one run: pass it to ``run(trace, telemetry=...)``
(request ids restart per trace, so sharing one across runs would collide
span ids).  A run without one records into :data:`NULL_TELEMETRY`, a
:class:`NullTelemetry` whose verbs do nothing, so the simulators call their
verbs unconditionally instead of branching on whether a run is observed.
"""
from __future__ import annotations

import json
from typing import Optional

from .metrics import MetricsRegistry
from .tracing import LIFECYCLE_TRACK, Tracer

__all__ = ['Telemetry', 'NullTelemetry', 'NULL_TELEMETRY']


class Telemetry:
    """One run's trace plus its sampled gauges, behind one facade.

    Without a ``tracer`` it records into a fresh :class:`Tracer`.
    """

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = MetricsRegistry()

    # -- request lifecycle ---------------------------------------------------

    def arrival(self, request, now: float) -> None:
        self.tracer.arrival(request, now)

    def reject(self, request, now: float, replica: Optional[int] = None,
               reason: str = 'admission') -> None:
        self.tracer.reject(request, now, replica=replica, reason=reason)

    def lost(self, request, now: float, replica: Optional[int] = None,
             reason: str = 'failure', tokens: int = 0) -> None:
        self.tracer.lost(request, now, replica=replica, reason=reason,
                         tokens=tokens)

    def requeue(self, request, now: float, replica: int) -> None:
        self.tracer.requeue(request, now, replica)

    # -- batching / execution ------------------------------------------------

    def batch_formed(self, batch, replica: int, now: float,
                     queued_after: Optional[int] = None) -> None:
        if queued_after is not None:
            self.queue_depth(now, queued_after, replica=replica)
        self.tracer.batch_formed(batch, replica, now,
                                 queued_after=queued_after)

    def batch_done(self, batch, now: float) -> None:
        self.tracer.batch_done(batch, now)

    # -- continuous (iteration-level) decoding -------------------------------

    def decode_join(self, request, now: float, replica: int,
                    width: Optional[int] = None) -> None:
        """A decode request joined a running batch (its prefill runs now)."""
        self.tracer.decode_join(request, now, replica, width=width)

    def decode_step(self, now: float, replica: int, width: int,
                    kv_committed_bytes: int = 0) -> None:
        """One decode iteration finished on ``replica`` at batch ``width``."""
        self.metrics.gauge(f'sim.decode.width.r{replica}',
                           unit='slots').set(now, width)
        self.metrics.gauge(f'sim.kv.committed.r{replica}',
                           unit='bytes').set(now, kv_committed_bytes)

    def decode_complete(self, request, now: float, replica: int,
                        tokens: int) -> None:
        """A decode request hit EOS after ``tokens`` output tokens."""
        self.tracer.decode_complete(request, now, replica, tokens)

    # -- control plane -------------------------------------------------------

    def lifecycle_event(self, kind: str, now: float, replica: int,
                        detail: str = '') -> None:
        args = {'replica': replica}
        if detail:
            args['detail'] = detail
        self.tracer.instant(f'lifecycle:{kind}', now,
                            track=LIFECYCLE_TRACK, **args)

    def autoscale_decision(self, now: float, active: int, target: int,
                           policy: str = '') -> None:
        self.metrics.gauge('sim.replicas.target',
                           unit='replicas').set(now, target)
        self.tracer.instant('autoscale', now, track=LIFECYCLE_TRACK,
                            active=active, target=target, policy=policy)

    # -- sampled series ------------------------------------------------------

    def queue_depth(self, now: float, depth: int, replica: int) -> None:
        self.metrics.gauge(f'sim.queue.depth.r{replica}',
                           unit='requests').set(now, depth)

    def replicas_serving(self, now: float, count: int) -> None:
        self.metrics.gauge('sim.replicas.serving',
                           unit='replicas').set(now, count)

    def memory_committed(self, now: float, replica: int,
                         committed_bytes: float) -> None:
        self.metrics.gauge(f'sim.memory.committed.r{replica}',
                           unit='bytes').set(now, committed_bytes)

    # -- export --------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The tracer's Chrome trace, plus every gauge as a counter track.

        Gauge series export as ``C`` (counter) events, which Perfetto
        renders as step charts — queue depth, target replicas, and
        committed memory become graphs under the same timeline as the
        request/batch spans.
        """
        doc = self.tracer.chrome_trace()
        for name in self.metrics.names():
            for t, value in self.metrics[name].series():
                doc['traceEvents'].append({
                    'name': name, 'cat': 'metric', 'ph': 'C',
                    'ts': t * 1e6, 'pid': 0,
                    'args': {'value': value},
                })
        return doc

    def write_chrome_trace(self, path: str) -> str:
        """Write :meth:`chrome_trace` to ``path``; returns ``path``."""
        with open(path, 'w') as f:
            json.dump(self.chrome_trace(), f, indent=1)
        return path


class NullTelemetry:
    """The telemetry of an unobserved run: every verb is a no-op.

    It has no metrics and no tracer (both ``None``) and is not a
    :class:`Telemetry` subclass, so an unobserved run never enters the
    recording code.
    """

    tracer = None
    metrics = None

    def _ignore(self, *args, **kwargs) -> None:
        pass

    arrival = reject = lost = requeue = _ignore
    batch_formed = batch_done = _ignore
    decode_join = decode_step = decode_complete = _ignore
    lifecycle_event = autoscale_decision = _ignore
    queue_depth = replicas_serving = memory_committed = _ignore


#: the shared no-op telemetry (stateless, so one instance serves every run)
NULL_TELEMETRY = NullTelemetry()
