"""The discrete-event loop every serving simulator runs on.

The loop serves a trace's arrivals and the events the run schedules, in
time order.  A scheduled event is a ``(time, seq, handler, replica,
payload)`` tuple on a heap (ties broken by push order) and runs as
``handler(now, replica, payload)``.  Arrivals are known up front, so they
stay in a sorted stream beside the heap: the heap holds only a few events
per replica, and an arrival goes first on a tie, as if every arrival had
been pushed before any other event.

Simulators differ only in what one step of a replica is: a dynamic-batch
dispatch (:class:`~repro.serve.simulator.DispatchEngine`) or a decode
iteration (:class:`~repro.serve.simulator.DecodeSimulator`).  The failure
lifecycle is written once, here: a kill loses the replica's in-flight work,
re-admits its queue onto survivors (or loses what they refuse) and
schedules the repair only when it took effect; a revive brings the replica
back.
"""
from __future__ import annotations

import heapq
import itertools
from operator import attrgetter
from typing import Optional, Sequence

from ..obs import NULL_TELEMETRY, Telemetry
from .trace import Request

__all__ = ['Lane', 'ReplicaEngine']

_arrival_time = attrgetter('arrival')


class Lane:
    """One replica's state as the loop and the lifecycle see it.

    ``batcher`` queues admitted requests (``offer``/``drain``); ``epoch``
    counts the lane's deaths, and the step-end event a lane schedules
    carries it, so a step cut short by a kill is recognised as stale.
    """

    __slots__ = ('index', 'batcher', 'alive', 'epoch', 'in_flight',
                 'busy_seconds')

    def __init__(self, index: int, batcher):
        self.index = index
        self.batcher = batcher
        self.alive = True
        self.epoch = 0
        self.in_flight = None
        self.busy_seconds = 0.0


class ReplicaEngine:
    """The event loop over ``self.lanes``, with the failure lifecycle.

    A subclass supplies the step through ``_arrival(now, request)``,
    ``_route(request, now)`` (a live lane's index, or ``None``),
    ``_kick(lane, now)`` (start a step on an idle lane) and
    ``_abort(lane, now)`` (drop a dying lane's in-flight work).
    """

    def __init__(self):
        self.lanes: list[Lane] = []
        self.telemetry = NULL_TELEMETRY

    def _start(self, telemetry: Optional[Telemetry]) -> None:
        """Reset the per-run state (one telemetry per run, or none)."""
        self._events: list = []
        self._seq = itertools.count()
        self.telemetry = telemetry or NULL_TELEMETRY
        self.lanes = []
        self.rejected: list[Request] = []
        self.lost: list[Request] = []
        self.num_requeued = 0

    def _push(self, when: float, handler, replica: int = -1,
              payload: object = None) -> None:
        heapq.heappush(self._events,
                       (when, next(self._seq), handler, replica, payload))

    def _loop(self, trace: Sequence[Request]) -> float:
        """Serve ``trace`` (any order) and every scheduled event in time
        order; returns the last event's time."""
        events, pop, arrive = self._events, heapq.heappop, self._arrival
        now = 0.0
        for request in sorted(trace, key=_arrival_time):
            while events and events[0][0] < request.arrival:
                now, _, handler, replica, payload = pop(events)
                handler(now, replica, payload)
            now = request.arrival
            arrive(now, request)
        while events:
            now, _, handler, replica, payload = pop(events)
            handler(now, replica, payload)
        return now

    # -- lifecycle ---------------------------------------------------------------

    def _event(self, now: float, kind: str, replica: int,
               detail: str = '') -> None:
        """Record one lifecycle transition."""
        self.telemetry.lifecycle_event(kind, now, replica, detail=detail)

    def _lose(self, request: Request, now: float, **why) -> None:
        """Count ``request`` lost to a failure (``why``: the replica, reason
        and partial token count the trace records)."""
        self.lost.append(request)
        self.telemetry.lost(request, now, **why)

    def _readmitted(self, request: Request, lane: Lane, now: float) -> None:
        """A dead replica's queued ``request`` joined ``lane``'s queue."""
        self._kick(lane, now)

    def _refused(self, request: Request, now: float, dead: int) -> None:
        """No survivor took a dead replica's queued ``request``."""
        self._lose(request, now, replica=dead)

    def _kill(self, now: float, replica: int, failure) -> None:
        """A failure takes ``replica`` down: its in-flight work is lost and
        its queue re-admitted onto survivors.  A kill on a dead or
        never-joined replica does nothing and schedules no repair, so it
        cannot end an earlier, longer outage early."""
        if replica >= len(self.lanes) or not self.lanes[replica].alive:
            return
        revive_at = getattr(failure, 'revive_at', None)
        if revive_at is not None:
            self._push(revive_at, self._revive, replica)
        lane = self.lanes[replica]
        lane.alive = False
        lane.epoch += 1
        self._abort(lane, now)
        self._event(now, 'kill', replica)
        for request in lane.batcher.drain():
            target = self._route(request, now)
            if target is None or not self.lanes[target].batcher.offer(request):
                self._refused(request, now, replica)
                continue
            self.num_requeued += 1
            self.telemetry.requeue(request, now, target)
            self._readmitted(request, self.lanes[target], now)

    def _revive(self, now: float, replica: int, *_) -> None:
        """The repair of an effective kill: the replica serves again."""
        self.lanes[replica].alive = True
        self._event(now, 'revive', replica)
