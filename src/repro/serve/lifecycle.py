"""Fleet lifecycle: autoscaling policies and failure injection.

PR 1–3 made compilation cheap enough to be an *operational* event: a
replica warms from a shared schedule-cache file at a fraction (often zero)
of a cold tune.  This module is the payoff — the fleet can change shape
mid-trace:

* an :class:`Autoscaler` watches a live :class:`~repro.serve.fleet.FleetSimulator`
  run through a narrow load view and decides, on a fixed evaluation tick,
  whether the fleet should grow or shrink.  The *policy* (queue depth, p99
  target, or a pre-declared diurnal schedule) is pluggable; the scaler
  itself owns the guard rails: min/max bounds, a per-action step, and a
  **cooldown** so measurement noise cannot flap the fleet;
* a :class:`FailureInjector` kills replicas at scheduled simulated times
  (optionally resurrecting them), forcing the placement layer to re-route —
  queued work is re-admitted onto survivors, in-flight work is counted as
  lost, and a model whose last host died is *re-homed* onto a surviving
  replica (see :meth:`~repro.serve.placement.PlacementPolicy.rehome`).

Everything here is deterministic: policies read only the simulator's load
view and the simulated clock, and :meth:`FailureInjector.seeded` derives
its schedule from a seed, so a lifecycle run replays identically.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..gpusim.device import DeviceSpec, RTX3090
from ._registry import FactoryRegistry

__all__ = ['LifecycleEvent', 'AutoscalePolicy', 'QueueDepthPolicy',
           'P99TargetPolicy', 'ScheduledDiurnalPolicy',
           'MemoryPressurePolicy', 'AutoscalerConfig',
           'Autoscaler', 'FailureEvent', 'FailureInjector',
           'register_autoscale_policy', 'make_autoscale_policy',
           'available_autoscale_policies']


@dataclass(frozen=True)
class LifecycleEvent:
    """One entry of a fleet run's lifecycle log.

    ``kind`` is one of ``'join'`` (a scale-up replica went live),
    ``'join_cancelled'`` (a scale-down shed a pending join before it
    landed — no replica index, so ``replica`` is -1), ``'kill'``
    (failure injection), ``'revive'`` (a killed replica came back),
    ``'retire_begin'`` (scale-down started draining the replica),
    ``'retire_done'`` (its queues emptied and it left the fleet), or
    ``'rehome'`` (a model was re-compiled onto ``replica`` after losing all
    hosts).  ``time`` is in simulated **seconds** since trace start.
    """

    time: float
    kind: str
    replica: int
    detail: str = ''


# ---------------------------------------------------------------------------
# autoscaling policies


class AutoscalePolicy:
    """Decide the replica count a fleet *should* have right now.

    Subclasses implement :meth:`desired_replicas` from the same narrow view
    placement policies get (``queued_samples``/``backlog_seconds`` per
    replica, ``serving_replicas()``, ``recent_p99_ms(now, window)``) plus
    the simulated clock — never from raw simulator internals.  The returned
    value is a *wish*: the :class:`Autoscaler` clamps it to its bounds,
    step size, and cooldown before anything changes.
    """

    name = 'base'
    #: set True in policies that read ``view.recent_p99_ms`` — the
    #: simulator only records completion latencies when the attached
    #: policy declares it needs them (plain runs skip the bookkeeping)
    needs_p99 = False

    def reset(self) -> None:
        """Clear per-run state; called at the start of every simulation."""

    def desired_replicas(self, view, now: float, active: int) -> int:
        """The replica count this policy wants at simulated time ``now``.

        ``view`` is the fleet load view, ``active`` the current number of
        serving (non-draining, live) replicas.  Return ``active`` for "no
        change"; the scaler treats any other value as a scale wish.
        """
        raise NotImplementedError


class QueueDepthPolicy(AutoscalePolicy):
    """Scale on mean queued samples per serving replica.

    Above ``scale_up_depth`` the fleet is falling behind (queues only grow
    past saturation) and one more replica is wished for; below
    ``scale_down_depth`` the fleet is coasting and one fewer suffices.
    Depths are in **samples** (the batcher's queue unit, not requests).
    The dead band between the two thresholds — and the scaler's cooldown —
    keep a noisy queue from flapping the fleet.
    """

    name = 'queue_depth'

    def __init__(self, scale_up_depth: float = 16.0,
                 scale_down_depth: float = 2.0):
        if scale_down_depth >= scale_up_depth:
            raise ValueError('scale_down_depth must sit below scale_up_depth '
                             '(the dead band prevents flapping)')
        self.scale_up_depth = scale_up_depth
        self.scale_down_depth = scale_down_depth

    def desired_replicas(self, view, now: float, active: int) -> int:
        serving = view.serving_replicas()
        if not serving:
            return active
        depth = sum(view.queued_samples(r) for r in serving) / len(serving)
        if depth > self.scale_up_depth:
            return active + 1
        if depth < self.scale_down_depth:
            return active - 1
        return active


class P99TargetPolicy(AutoscalePolicy):
    """Scale on the p99 latency of recently completed requests.

    Wishes for one more replica when the trailing-``window``-second p99
    exceeds ``target_p99_ms``, one fewer when it sits below ``headroom`` ×
    the target (latency well under budget means capacity to give back).
    With no completions in the window the policy holds steady — an idle
    fleet is shrunk by the headroom rule once traffic resumes, not by the
    absence of data.
    """

    name = 'p99_target'
    needs_p99 = True

    def __init__(self, target_p99_ms: float, window: float = 0.2,
                 headroom: float = 0.4):
        if target_p99_ms <= 0 or window <= 0:
            raise ValueError('target_p99_ms and window must be positive')
        if not 0 < headroom < 1:
            raise ValueError('headroom must be in (0, 1)')
        self.target_p99_ms = target_p99_ms
        self.window = window
        self.headroom = headroom

    def desired_replicas(self, view, now: float, active: int) -> int:
        p99 = view.recent_p99_ms(now, self.window)
        if p99 is None:
            return active
        if p99 > self.target_p99_ms:
            return active + 1
        if p99 < self.headroom * self.target_p99_ms:
            return active - 1
        return active


class ScheduledDiurnalPolicy(AutoscalePolicy):
    """Follow a pre-declared (time, target) step schedule.

    The predictable-traffic scaler: when the diurnal shape is known (it
    usually is), capacity is provisioned *ahead* of the ramp instead of
    reacting to it.  ``schedule`` is a sequence of ``(time, target)``
    pairs; the target in force at ``now`` is the last pair whose time is
    ``<= now`` (before the first pair, the first target).  Times are
    simulated seconds, targets replica counts.
    """

    name = 'scheduled_diurnal'

    def __init__(self, schedule: Sequence[tuple[float, int]]):
        if not schedule:
            raise ValueError('schedule needs at least one (time, target) pair')
        self.schedule = sorted((float(t), int(n)) for t, n in schedule)
        if any(n < 1 for _, n in self.schedule):
            raise ValueError('scheduled targets must be >= 1 replica')

    def desired_replicas(self, view, now: float, active: int) -> int:
        target = self.schedule[0][1]
        for time, n in self.schedule:
            if time <= now:
                target = n
            else:
                break
        return target


class MemoryPressurePolicy(AutoscalePolicy):
    """Scale on committed-DRAM pressure across the serving replicas.

    Latency scalers miss a failure mode the memory model introduces: a
    fleet can be *latency*-healthy while re-homing and ladder growth fill
    its devices, leaving no headroom for the next orphaned model.  This
    policy wishes for one more replica when the mean committed fraction
    (``view.memory_utilization``) exceeds ``scale_up_utilization``, and
    one fewer when it sits below ``scale_down_utilization`` — the dead
    band, like :class:`QueueDepthPolicy`'s, prevents flapping.  A joined
    replica relieves pressure because placement's
    :meth:`~repro.serve.placement.PlacementPolicy.models_for_join` moves
    models onto its empty DRAM.
    """

    name = 'memory_pressure'

    def __init__(self, scale_up_utilization: float = 0.85,
                 scale_down_utilization: float = 0.3):
        if not 0 < scale_down_utilization < scale_up_utilization <= 1:
            raise ValueError(
                'need 0 < scale_down_utilization < scale_up_utilization <= 1 '
                '(the dead band prevents flapping)')
        self.scale_up_utilization = scale_up_utilization
        self.scale_down_utilization = scale_down_utilization

    def desired_replicas(self, view, now: float, active: int) -> int:
        serving = view.serving_replicas()
        if not serving:
            return active
        pressure = (sum(view.memory_utilization(r) for r in serving)
                    / len(serving))
        if pressure > self.scale_up_utilization:
            return active + 1
        if pressure < self.scale_down_utilization:
            return active - 1
        return active


# ---------------------------------------------------------------------------
# the autoscale-policy registry: string keys -> policy factories
#
# Mirrors :func:`repro.serve.placement.register_placement`: the declarative
# deployment layer names autoscaling policies by string so a serialized
# spec survives a JSON round-trip, and third parties plug in without
# touching core.

_AUTOSCALE_POLICIES = FactoryRegistry('autoscale policy',
                                      'register_autoscale_policy()')


def register_autoscale_policy(name: str,
                              factory: Callable[..., AutoscalePolicy]) -> None:
    """Register an autoscale-policy factory under a spec-addressable name.

    ``factory(**options)`` must return a fresh :class:`AutoscalePolicy`;
    an :class:`~repro.serve.deployment.AutoscaleSpec` with that ``name``
    then builds through it.  Same-factory re-registration is a no-op; a
    conflicting one raises.
    """
    _AUTOSCALE_POLICIES.register(name, factory)


def available_autoscale_policies() -> list[str]:
    """Registered autoscale-policy names, sorted."""
    return _AUTOSCALE_POLICIES.available()


def make_autoscale_policy(name: str, **options) -> AutoscalePolicy:
    """Build a fresh policy by registered name (``options`` go to the
    factory); unknown names raise listing what *is* registered."""
    return _AUTOSCALE_POLICIES.make(name, **options)


register_autoscale_policy('queue_depth', QueueDepthPolicy)
register_autoscale_policy('p99_target', P99TargetPolicy)
register_autoscale_policy('scheduled_diurnal', ScheduledDiurnalPolicy)
register_autoscale_policy('memory_pressure', MemoryPressurePolicy)


# ---------------------------------------------------------------------------
# the autoscaler


@dataclass(frozen=True)
class AutoscalerConfig:
    """Guard rails around any :class:`AutoscalePolicy`.

    ``interval`` is the evaluation tick and ``cooldown`` the minimum
    simulated seconds between *actions* — a wish inside the cooldown is
    dropped, which is what keeps a noisy policy from flapping the fleet.
    ``scale_increment`` caps how many replicas one action may add or
    retire (a scheduled policy stepping 1 → 4 with increment 3 jumps in
    one action; with increment 1 it climbs one cooldown apart).
    """

    min_replicas: int = 1
    max_replicas: int = 8
    interval: float = 0.05           # evaluation tick, simulated seconds
    cooldown: float = 0.2            # min seconds between scaling actions
    scale_increment: int = 1         # replicas per action
    provision_delay: float = 0.0     # seconds between decision and join

    def __post_init__(self):
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError('need 1 <= min_replicas <= max_replicas')
        if self.interval <= 0:
            raise ValueError('interval must be positive')
        if self.cooldown < 0 or self.provision_delay < 0:
            raise ValueError('cooldown and provision_delay must be >= 0')
        if self.scale_increment < 1:
            raise ValueError('scale_increment must be >= 1')


class Autoscaler:
    """Drive a fleet's replica count from a policy, with guard rails.

    The :class:`~repro.serve.fleet.FleetSimulator` calls :meth:`decide` on
    every ``config.interval`` tick; the scaler consults its policy, clamps
    the wish to ``[min_replicas, max_replicas]`` and ``scale_increment``,
    and enforces the cooldown.  ``device`` is the :class:`DeviceSpec` new
    replicas join on (they warm from the fleet's shared cache file — exact
    hits for the fleet's own device, the device-transfer tier for a
    foreign one).

    The scaler is stateful only through ``_last_action`` (cooldown) — call
    :meth:`reset` (the simulator does) before reusing one across runs.
    """

    def __init__(self, policy: AutoscalePolicy,
                 config: AutoscalerConfig = AutoscalerConfig(),
                 device: DeviceSpec = RTX3090):
        self.policy = policy
        self.config = config
        self.device = device
        self._last_action: Optional[float] = None

    def reset(self) -> None:
        self._last_action = None
        self.policy.reset()

    def decide(self, view, now: float, active: int) -> int:
        """The replica count the fleet should move to at ``now``.

        Returns ``active`` (no action) or a new target at most
        ``scale_increment`` away, bounds- and cooldown-checked.  A
        non-``active`` return is a *wish*: the caller must call
        :meth:`record_action` once the fleet actually acts on it — a wish
        the fleet cannot satisfy (e.g. a scale-down fully blocked by the
        sole-host guard) must not burn the cooldown, or it would suppress
        the next genuine wish for no anti-flapping benefit.
        """
        cfg = self.config
        desired = self.policy.desired_replicas(view, now, active)
        desired = max(cfg.min_replicas, min(cfg.max_replicas, desired))
        if desired == active:
            return active
        if (self._last_action is not None
                and now - self._last_action < cfg.cooldown):
            return active                 # wish suppressed: inside cooldown
        step = max(-cfg.scale_increment,
                   min(cfg.scale_increment, desired - active))
        return active + step

    def record_action(self, now: float) -> None:
        """Restart the cooldown clock: the fleet acted on the last wish
        (scheduled a join, or began draining at least one replica)."""
        self._last_action = now


# ---------------------------------------------------------------------------
# failure injection


@dataclass(frozen=True)
class FailureEvent:
    """Kill ``replica`` at simulated ``time``; optionally revive it later.

    A revived replica keeps its registry and schedule cache (the process
    restarted; the disk did not) so it re-enters serving without paying any
    tuning — only the work it held when it died is gone.  Revival applies
    to *failure* deaths only: a replica the autoscaler retired before the
    failure time has left the fleet for good, and both the kill and the
    revive become no-ops.
    """

    time: float
    replica: int
    revive_at: Optional[float] = None

    def __post_init__(self):
        if self.time < 0:
            raise ValueError('failure time must be non-negative')
        if self.replica < 0:
            # negative indices would silently python-index the wrong replica
            raise ValueError('replica must be a non-negative index')
        if self.revive_at is not None and self.revive_at <= self.time:
            raise ValueError('revive_at must come after the failure time')


class FailureInjector:
    """A deterministic schedule of replica failures for one fleet run.

    Construct with explicit :class:`FailureEvent`\\ s, or derive a seeded
    pseudo-random schedule with :meth:`seeded` — either way the schedule is
    fixed before the run starts, so a failure scenario replays identically
    (the determinism tests rely on this).
    """

    def __init__(self, events: Sequence[FailureEvent]):
        self.events = tuple(sorted(events, key=lambda e: (e.time, e.replica)))

    @classmethod
    def seeded(cls, num_failures: int, num_replicas: int, span: float,
               seed: int = 0, mttr: Optional[float] = None) -> 'FailureInjector':
        """A reproducible random schedule: ``num_failures`` kills, uniform
        over ``(0, span)`` seconds and over replica indices ``0 ..
        num_replicas - 1``.  With ``mttr`` (mean time to repair, seconds)
        each kill revives after an exponential repair time; without it,
        failures are permanent.  Same arguments, same schedule — the
        generator is seeded and consumed in a fixed order.
        """
        import numpy as np

        if num_failures < 0 or num_replicas < 1 or span <= 0:
            raise ValueError('need num_failures >= 0, num_replicas >= 1, '
                             'span > 0')
        rng = np.random.default_rng(seed)
        events = []
        for _ in range(num_failures):
            time = float(rng.uniform(0.0, span))
            replica = int(rng.integers(0, num_replicas))
            revive = (time + float(rng.exponential(mttr))
                      if mttr is not None else None)
            events.append(FailureEvent(time=time, replica=replica,
                                       revive_at=revive))
        return cls(events)

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
