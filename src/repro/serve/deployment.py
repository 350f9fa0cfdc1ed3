"""Declarative deployments: one serializable spec that builds the stack.

PRs 2–4 grew the serve layer into registry → batcher → fleet → placement →
lifecycle, but standing a deployment up meant hand-wiring six constructors
in the right order with knobs scattered across ``ModelRegistry``,
``BatchingPolicy``, ``Fleet``, ``AutoscalerConfig``, and
``FailureInjector``.  This module replaces that wiring with **data**: a
frozen, JSON-round-trippable :class:`DeploymentSpec` tree —

* :class:`ModelSpec` — a model name, its batch-bucket ladder, and (for zoo
  models) builder kwargs;
* :class:`ReplicaGroupSpec` — ``count`` replicas on a *named*
  :class:`~repro.gpusim.device.DeviceSpec` (see :func:`register_device`);
* :class:`BatchingSpec` / :class:`PlacementSpec` /
  :class:`AutoscaleSpec` / :class:`FailureSpec` / :class:`CacheSpec` — the
  batcher knobs, string-keyed placement and autoscaling policies
  (:func:`~repro.serve.placement.register_placement` /
  :func:`~repro.serve.lifecycle.register_autoscale_policy` let third
  parties plug in without touching core), failure schedules, and the
  schedule-cache wiring (``warm_from`` / ``save_to`` / LRU bound)

— plus a :class:`Deployment` façade that validates the spec (unknown
policy or device names, ladders vs ``max_batch``, autoscaler bounds vs
replica groups — every rejection is a :class:`SpecValidationError` naming
the offending field), builds the registry/fleet/lifecycle stack, and
exposes ``run(trace) -> FleetResult`` and ``report()`` as the single entry
point.  ``spec.diff(other)`` and ``dataclasses.replace`` make sizing
sweeps and A/B runs declarative: mutate the spec, rerun.

For CI, ``python -m repro.serve.deployment --validate spec.json`` parses
and validates a spec file without compiling anything.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import typing
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

from ..gpusim.device import A100, LAPTOP_GPU, RTX3090, DeviceSpec
from ..models import MODEL_BUILDERS, for_batch
from ..obs import Telemetry
from ..tune import RidgeCostModel, run_tuning_service
from .batcher import ADMISSION_POLICIES, BatchingPolicy
from .fleet import Fleet, FleetResult, FleetSimulator, format_fleet_report
from .lifecycle import (Autoscaler, AutoscalerConfig, FailureEvent,
                        FailureInjector, available_autoscale_policies,
                        make_autoscale_policy)
from .placement import available_placements, make_placement
from .registry import model_ladder
from .trace import Request

__all__ = ['SpecValidationError', 'ModelSpec', 'ReplicaGroupSpec',
           'BatchingSpec', 'PlacementSpec', 'AutoscaleSpec', 'FailureSpec',
           'CacheSpec', 'DecodeSpec', 'DeploymentSpec', 'Deployment',
           'register_device', 'available_devices', 'resolve_device',
           'SPEC_FORMAT_VERSION']

#: bumped when the JSON layout changes shape; ``from_json`` rejects others
SPEC_FORMAT_VERSION = 1

GraphBuilder = Callable[[int], 'object']


class SpecValidationError(ValueError):
    """A deployment spec was rejected; ``field`` names the offending field.

    The message always leads with the dotted field path
    (``'autoscale.max_replicas: ...'``) so a failing CI validation reads
    as an actionable diff target, not a bare assert.
    """

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f'{field_path}: {message}')


# ---------------------------------------------------------------------------
# the device registry: spec-addressable names -> DeviceSpec


_DEVICES: dict[str, DeviceSpec] = {}


def register_device(spec: DeviceSpec, name: Optional[str] = None) -> DeviceSpec:
    """Make ``spec`` addressable by name from serialized deployment specs.

    Defaults to ``spec.name``; registering the identical spec again is a
    no-op, while re-binding a name to *different* hardware parameters
    raises — two equal specs must never build different fleets.  Returns
    ``spec`` so call sites can register-and-use in one expression.
    """
    key = name if name is not None else spec.name
    existing = _DEVICES.get(key)
    if existing is not None and existing != spec:
        raise ValueError(f'device name {key!r} is already registered with '
                         f'different hardware parameters')
    _DEVICES[key] = spec
    return spec


def available_devices() -> list[str]:
    """Registered device names, sorted."""
    return sorted(_DEVICES)


def resolve_device(name: str) -> DeviceSpec:
    """The :class:`DeviceSpec` registered under ``name`` (raises on unknown
    names, listing what is registered)."""
    if name not in _DEVICES:
        raise ValueError(f'unknown device {name!r} (registered: '
                         f'{available_devices()}; register_device() adds more)')
    return _DEVICES[name]


register_device(RTX3090)
register_device(A100)
register_device(LAPTOP_GPU)


def _require_device(name: str, field_path: str) -> None:
    """Shared unknown-device rejection for every spec field naming one."""
    if name not in _DEVICES:
        raise SpecValidationError(
            field_path,
            f'unknown device {name!r} (registered: '
            f'{available_devices()}; register_device() adds more)')


# ---------------------------------------------------------------------------
# canonical JSON-compatible values


def _canon(value):
    """Fold a config/options value into its canonical JSON shape.

    Mappings become plain dicts, sequences become lists (what JSON will
    hand back), scalars pass through — so a spec built with tuples
    compares equal to its JSON round-trip.
    """
    if isinstance(value, Mapping):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def _set(obj, **values) -> None:
    """Assign onto a frozen dataclass from its own ``__post_init__``."""
    for key, val in values.items():
        object.__setattr__(obj, key, val)


def _node(cls, data, field_path: str):
    """Build spec node ``cls`` from a JSON mapping, naming bad fields.

    ``None`` passes through — the *optional* top-level nodes
    (``autoscale``/``failures``) are legitimately null; array elements must
    instead go through :func:`_element`, where null is an error.
    """
    if data is None:
        return None
    if not isinstance(data, Mapping):
        raise SpecValidationError(field_path, 'must be a JSON object')
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise SpecValidationError(
            f'{field_path}.{unknown[0]}',
            f'unknown field (known fields: {sorted(known)})')
    try:
        return cls(**data)
    except SpecValidationError:
        raise               # a nested node already named the precise field
    except (TypeError, ValueError) as exc:
        raise SpecValidationError(field_path, str(exc)) from exc


def _element(cls, item, field_path: str):
    """Like :func:`_node` for array elements, where null is malformed."""
    if item is None:
        raise SpecValidationError(field_path, 'must be a JSON object, '
                                              'got null')
    return _node(cls, item, field_path)


def _accepted(hint) -> tuple:
    """The runtime types a field annotated ``hint`` accepts: ``float``
    also admits ``int`` and ``Optional[...]`` also admits ``None``."""
    if typing.get_origin(hint) is Union:
        return tuple(t for arg in typing.get_args(hint)
                     for t in _accepted(arg))
    if hint is float:
        return (int, float)
    return (typing.get_origin(hint) or hint,)


@functools.cache
def _field_rules(cls) -> tuple:
    """Per dataclass field of ``cls``: ``(name, accepted types, element
    types or None, lower bound or None)``, derived once from the field's
    annotation (``tuple[X, ...]`` elements must be ``X``) and its
    ``metadata['min']``."""
    hints = typing.get_type_hints(cls)
    rules = []
    for fld in dataclasses.fields(cls):
        hint = hints[fld.name]
        tuples = [h for h in (hint, *typing.get_args(hint))
                  if typing.get_origin(h) is tuple]
        element = _accepted(typing.get_args(tuples[0])[0]) if tuples else None
        rules.append((fld.name, _accepted(hint), element,
                      fld.metadata.get('min')))
    return tuple(rules)


def _check_type(value, accepted: tuple, path: str) -> None:
    # bool subclasses int, so "count": true would silently become one
    # replica: a bool only passes where bool itself is accepted
    if isinstance(value, accepted) and not (isinstance(value, bool)
                                            and bool not in accepted):
        return
    nodes = [t for t in accepted if dataclasses.is_dataclass(t)]
    if nodes:
        name = nodes[0].__name__
        article = 'an' if name[0] in 'AEIOU' else 'a'
        raise SpecValidationError(path, f'must be {article} {name}, got '
                                        f'{value!r}')
    wanted = '/'.join(t.__name__ for t in accepted)
    raise SpecValidationError(path, f'must be of type {wanted}, got {value!r}')


def _walk(node, path: str = '') -> None:
    """Check every field of the dataclass ``node`` against its annotation
    and lower bound, then descend into the dataclasses it holds.

    JSON carries no schema, so a string where a number belongs must become
    a field-named :class:`SpecValidationError` here, not a ``TypeError``
    from some later comparison.
    """
    for name, accepted, element, lower in _field_rules(type(node)):
        value = getattr(node, name)
        fpath = f'{path}.{name}' if path else name
        _check_type(value, accepted, fpath)
        if lower is not None and value is not None and value < lower:
            when = ' when given' if type(None) in accepted else ''
            raise SpecValidationError(
                fpath, f'must be >= {lower}{when}, got {value}')
        items = ([(fpath, value)] if element is None else
                 [(f'{fpath}[{i}]', v) for i, v in enumerate(value or ())])
        for ipath, item in items:
            if element is not None:
                _check_type(item, element, ipath)
            if dataclasses.is_dataclass(item):
                _walk(item, ipath)


# ---------------------------------------------------------------------------
# the spec tree


@dataclass(frozen=True)
class DecodeSpec:
    """Autoregressive-decode serving of one model (continuous batching).

    A :class:`ModelSpec` carrying a ``decode`` node serves token-level
    traffic through :class:`~repro.serve.simulator.DecodeSimulator`:
    ``kv_bytes_per_token`` prices the per-replica KV-cache ledger (e.g.
    :func:`repro.models.gpt2_kv_bytes_per_token`), ``max_tokens`` bounds
    any one request's generation, ``max_width`` caps the decode-batch
    width, and ``admission`` picks the ledger policy — ``'reserve'``
    (admit only when the worst-case prompt+output reservation fits; KV can
    never overflow) or ``'unbounded'`` (admit freely; overflow pays a
    host-swap penalty per decode step).  ``kv_capacity_bytes`` overrides
    the derived per-replica KV budget (device DRAM minus weights);
    ``seq_length`` is the compiled sequence length decode-step latencies
    amortize over.
    """

    kv_bytes_per_token: int = field(metadata={'min': 1})
    max_tokens: int = field(default=256, metadata={'min': 1})
    max_width: int = field(default=8, metadata={'min': 1})
    admission: str = 'reserve'
    kv_capacity_bytes: Optional[int] = field(default=None,
                                             metadata={'min': 1})
    seq_length: int = field(default=128, metadata={'min': 1})


@dataclass(frozen=True)
class ModelSpec:
    """One model of the deployment: name, bucket ladder, builder kwargs.

    ``config`` holds keyword arguments for the model zoo's batch-parametric
    builder (:func:`repro.models.for_batch` — e.g. ``{'layers': 2}`` for a
    slimmed Bert); non-zoo models pass a callable per name through
    :class:`Deployment`'s ``builders`` argument instead (callables cannot
    ride a JSON file).  ``buckets`` overrides the default power-of-two
    ladder up to ``max_batch``.

    ``memory_bytes`` declares the model's DRAM reservation up front:
    placement packs and validation budgets against this figure instead of
    measuring the graphs (capacity planning before anything compiles).
    ``None`` (the default) means "measure at build time".
    """

    name: str
    max_batch: int = field(default=8, metadata={'min': 1})
    buckets: Optional[tuple[int, ...]] = None
    config: dict = field(default_factory=dict)
    memory_bytes: Optional[int] = field(default=None, metadata={'min': 1})
    decode: Optional[DecodeSpec] = None

    def __post_init__(self):
        if self.decode is not None and not isinstance(self.decode, DecodeSpec):
            _set(self, decode=_node(DecodeSpec, self.decode, 'decode'))
        if self.buckets is not None:
            # strict: int() coercion would silently parse a JSON string
            # ("12" -> buckets 1 and 2) or truncate floats
            if (isinstance(self.buckets, (str, bytes))
                    or not isinstance(self.buckets, Sequence)):
                raise ValueError(f'buckets must be a sequence of ints, '
                                 f'got {self.buckets!r}')
            bad = [b for b in self.buckets
                   if not isinstance(b, int) or isinstance(b, bool)]
            if bad:
                raise ValueError(f'buckets must be ints, got {bad!r}')
            _set(self, buckets=tuple(self.buckets))
        _set(self, config=_canon(self.config))

    def ladder(self) -> tuple[int, ...]:
        """The compiled bucket ladder this spec asks for."""
        return model_ladder(self.max_batch, self.buckets)


@dataclass(frozen=True)
class ReplicaGroupSpec:
    """``count`` replicas on one named device (see :func:`register_device`).

    ``memory_bytes`` overrides the named device's DRAM capacity for this
    group only (e.g. modelling a 24 GiB part with 4 GiB fenced off for
    the runtime) — the registered :class:`DeviceSpec` itself is untouched.
    """

    device: str = 'RTX3090'
    count: int = field(default=1, metadata={'min': 1})
    memory_bytes: Optional[int] = field(default=None, metadata={'min': 1})


@dataclass(frozen=True)
class BatchingSpec:
    """The dynamic batcher's knobs; builds a
    :class:`~repro.serve.batcher.BatchingPolicy` (same field meanings:
    ``max_batch`` samples per dispatch, ``max_wait`` seconds of head-of-line
    patience, optional ``max_queue`` admission bound)."""

    max_batch: int = 8
    max_wait: float = 2e-3
    max_queue: Optional[int] = None

    def build(self) -> BatchingPolicy:
        return BatchingPolicy(max_batch=self.max_batch, max_wait=self.max_wait,
                              max_queue=self.max_queue)


@dataclass(frozen=True)
class PlacementSpec:
    """A placement policy by registered name plus its factory options
    (e.g. ``PlacementSpec('model_affine', {'assignment': {...}})``)."""

    policy: str = 'round_robin'
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        _set(self, options=_canon(self.options))

    def build(self):
        return make_placement(self.policy, **self.options)


@dataclass(frozen=True)
class AutoscaleSpec:
    """An autoscaling policy by registered name plus the scaler guard rails.

    ``options`` are the policy factory's kwargs (e.g. ``{'schedule':
    [[0.0, 1], [0.1, 3]]}`` for ``scheduled_diurnal``); the remaining
    fields mirror :class:`~repro.serve.lifecycle.AutoscalerConfig`, and
    ``device`` names the part scale-up replicas join on.
    """

    policy: str = 'queue_depth'
    options: dict = field(default_factory=dict)
    min_replicas: int = 1
    max_replicas: int = 8
    interval: float = 0.05
    cooldown: float = 0.2
    scale_increment: int = 1
    provision_delay: float = 0.0
    device: str = 'RTX3090'

    def __post_init__(self):
        _set(self, options=_canon(self.options))

    def config(self) -> AutoscalerConfig:
        return AutoscalerConfig(
            min_replicas=self.min_replicas, max_replicas=self.max_replicas,
            interval=self.interval, cooldown=self.cooldown,
            scale_increment=self.scale_increment,
            provision_delay=self.provision_delay)

    def build(self) -> Autoscaler:
        return Autoscaler(make_autoscale_policy(self.policy, **self.options),
                          self.config(), device=resolve_device(self.device))


@dataclass(frozen=True)
class FailureSpec:
    """A failure schedule: explicit events, or a seeded random draw.

    Exactly one mode: ``events`` (a tuple of
    :class:`~repro.serve.lifecycle.FailureEvent`; mappings with
    ``time``/``replica``/``revive_at`` are coerced) *or* the seeded fields
    (``num_failures`` kills uniform over ``(0, span)`` seconds and
    ``num_replicas`` indices, exponential ``mttr`` revives when given —
    :meth:`FailureInjector.seeded` semantics).
    """

    events: Optional[tuple[FailureEvent, ...]] = None
    num_failures: int = 0
    num_replicas: Optional[int] = None
    span: Optional[float] = None
    seed: int = 0
    mttr: Optional[float] = None

    def __post_init__(self):
        if self.events is not None:
            coerced = []
            for i, event in enumerate(self.events):
                if not isinstance(event, FailureEvent):
                    event = _element(FailureEvent, event,
                                     f'failures.events[{i}]')
                coerced.append(event)
            _set(self, events=tuple(coerced))

    def build(self) -> FailureInjector:
        if self.events is not None:
            return FailureInjector(self.events)
        return FailureInjector.seeded(
            num_failures=self.num_failures, num_replicas=self.num_replicas,
            span=self.span, seed=self.seed, mttr=self.mttr)


@dataclass(frozen=True)
class CacheSpec:
    """Schedule-cache wiring of every replica in the deployment.

    ``warm_from`` is the persisted cache file replicas (including mid-run
    joins) warm from; ``save_to`` persists every built replica's cache
    after the pre-trace compile (append-only record log), turning a
    deployment into a donor for the next one; ``max_entries`` LRU-bounds
    each replica's cache.  The transfer flags mirror
    :class:`~repro.serve.fleet.Fleet`: ``enable_device_transfer=None``
    means "on exactly when ``warm_from`` is given".

    ``cost_model`` gives every replica registry a learned
    :class:`~repro.tune.RidgeCostModel` over its cache's measurement
    records (predicted top-k measurement with calibrated fallback).
    ``tuning_workers > 1`` pre-tunes the deployment's models through the
    parallel tuning service (:func:`repro.tune.run_tuning_service`) before
    the fleet boots: the workers share ``warm_from`` as their record log —
    which is therefore required — and every replica then warms from it,
    compiling all-hits.
    """

    warm_from: Optional[str] = None
    save_to: Optional[str] = None
    max_entries: Optional[int] = field(default=None, metadata={'min': 1})
    enable_transfer: bool = True
    enable_device_transfer: Optional[bool] = None
    cost_model: bool = False
    tuning_workers: int = field(default=1, metadata={'min': 1})


@dataclass(frozen=True)
class DeploymentSpec:
    """The whole serving stack as one frozen, JSON-round-trippable value.

    ``Deployment(spec)`` builds and runs it; ``dataclasses.replace`` plus
    :meth:`diff` make sweeps declarative (mutate the spec, rerun, diff the
    two specs to label the run).  Construct with node objects or let
    :meth:`from_dict` / :meth:`from_json` parse the serialized form;
    :meth:`validate` (also run by :class:`Deployment`) rejects
    inconsistent specs with errors naming the offending field.
    """

    models: tuple[ModelSpec, ...] = ()
    replicas: tuple[ReplicaGroupSpec, ...] = (ReplicaGroupSpec(),)
    batching: BatchingSpec = field(default_factory=BatchingSpec)
    placement: PlacementSpec = field(default_factory=PlacementSpec)
    autoscale: Optional[AutoscaleSpec] = None
    failures: Optional[FailureSpec] = None
    cache: CacheSpec = field(default_factory=CacheSpec)

    def __post_init__(self):
        _set(self, models=tuple(self.models),
             replicas=tuple(self.replicas))

    # -- derived views -------------------------------------------------------

    @property
    def initial_replicas(self) -> int:
        """Replica count at trace start (sum over replica groups)."""
        return sum(group.count for group in self.replicas)

    # -- validation ----------------------------------------------------------

    def validate(self) -> 'DeploymentSpec':
        """Reject inconsistent specs; every error names the offending field.

        First every field of the tree is checked against its annotation and
        its ``metadata['min']`` bound.  Then come the rules that span fields
        or look up a registry, which the constructors down the stack would
        only hit mid-build (or never): unknown policy/device names, the
        batching ``max_batch`` vs every model's bucket ladder, the memory
        budget, autoscaler bounds vs the replica groups, and one-mode
        failure schedules.  Returns ``self`` so call sites can chain.
        """
        _walk(self)
        if not self.models:
            raise SpecValidationError('models', 'at least one ModelSpec is '
                                                'required')
        try:
            self.batching.build()
        except ValueError as exc:
            raise SpecValidationError('batching', str(exc)) from exc

        seen: set[str] = set()
        for i, model in enumerate(self.models):
            path = f'models[{i}]'
            if not model.name:
                raise SpecValidationError(f'{path}.name',
                                          'must be a non-empty string')
            if model.name in seen:
                raise SpecValidationError(f'{path}.name',
                                          f'duplicate model {model.name!r}')
            seen.add(model.name)
            if model.buckets is not None:
                if not model.buckets:
                    raise SpecValidationError(f'{path}.buckets',
                                              'must be non-empty when given')
                bad = [b for b in model.buckets if b < 1]
                if bad:
                    raise SpecValidationError(f'{path}.buckets',
                                              f'buckets must be >= 1, got {bad}')
            if model.decode is not None:
                self._validate_decode(model.decode, f'{path}.decode')
            if self.batching.max_batch > max(model.ladder()):
                raise SpecValidationError(
                    'batching.max_batch',
                    f'{self.batching.max_batch} exceeds the largest compiled '
                    f'bucket ({max(model.ladder())}) of model '
                    f'{model.name!r} — grow {path}.buckets or lower '
                    f'batching.max_batch')

        if not self.replicas:
            raise SpecValidationError('replicas', 'at least one '
                                                  'ReplicaGroupSpec is required')
        for i, group in enumerate(self.replicas):
            _require_device(group.device, f'replicas[{i}].device')
        self._validate_memory_budget()

        if self.placement.policy not in available_placements():
            raise SpecValidationError(
                'placement.policy',
                f'unknown placement policy {self.placement.policy!r} '
                f'(registered: {available_placements()}; '
                f'register_placement() adds more)')
        try:
            self.placement.build()
        except (TypeError, ValueError) as exc:
            raise SpecValidationError('placement.options', str(exc)) from exc

        if self.autoscale is not None:
            self._validate_autoscale()
        if self.failures is not None:
            self._validate_failures()

        if self.cache.tuning_workers > 1 and self.cache.warm_from is None:
            raise SpecValidationError(
                'cache.tuning_workers',
                'parallel pre-tuning needs cache.warm_from: the workers '
                'share it as their record log and replicas warm from it')
        return self

    def _validate_decode(self, decode: DecodeSpec, path: str) -> None:
        """The decode rules that look up a registry or span fields."""
        if decode.admission not in ADMISSION_POLICIES:
            raise SpecValidationError(
                f'{path}.admission',
                f'unknown admission policy {decode.admission!r} '
                f'(one of {list(ADMISSION_POLICIES)})')
        needed = decode.kv_bytes_per_token * decode.max_tokens
        if (decode.kv_capacity_bytes is not None
                and decode.kv_capacity_bytes < needed):
            raise SpecValidationError(
                f'{path}.kv_capacity_bytes',
                f'{decode.kv_capacity_bytes} bytes cannot hold even one '
                f'max-length generation ({decode.max_tokens} tokens x '
                f'{decode.kv_bytes_per_token} bytes/token = {needed} '
                f'bytes) — every decode request would be rejected')

    def _validate_memory_budget(self) -> None:
        """Reject declared model budgets no replica group can serve.

        Only models with a declared ``memory_bytes`` participate —
        validation must never compile, so measured footprints are unknown
        here.  Two checks: every declared model must fit the *largest*
        group capacity (a model bigger than any device can host nowhere),
        and the declared total must fit the fleet's combined DRAM (with
        less, some model is guaranteed to have no home even before
        redundancy).
        """
        group_caps = [group.memory_bytes if group.memory_bytes is not None
                      else _DEVICES[group.device].memory_bytes
                      for group in self.replicas]
        largest = max(group_caps)
        declared_total = 0
        for i, model in enumerate(self.models):
            if model.memory_bytes is None:
                continue
            declared_total += model.memory_bytes
            if model.memory_bytes > largest:
                raise SpecValidationError(
                    f'models[{i}].memory_bytes',
                    f'{model.memory_bytes} bytes exceeds the largest replica '
                    f'capacity ({largest} bytes) — model {model.name!r} '
                    f'fits no replica group')
        fleet_total = sum(cap * group.count for cap, group
                          in zip(group_caps, self.replicas))
        if declared_total > fleet_total:
            raise SpecValidationError(
                'replicas',
                f'declared model reservations total {declared_total} bytes '
                f'but the replica groups provide {fleet_total} bytes of '
                f'DRAM — the assigned models cannot fit')

    def _validate_autoscale(self) -> None:
        scale = self.autoscale
        if scale.policy not in available_autoscale_policies():
            raise SpecValidationError(
                'autoscale.policy',
                f'unknown autoscale policy {scale.policy!r} (registered: '
                f'{available_autoscale_policies()}; '
                f'register_autoscale_policy() adds more)')
        try:
            make_autoscale_policy(scale.policy, **scale.options)
        except (TypeError, ValueError) as exc:
            raise SpecValidationError('autoscale.options', str(exc)) from exc
        try:
            scale.config()
        except ValueError as exc:
            raise SpecValidationError('autoscale', str(exc)) from exc
        _require_device(scale.device, 'autoscale.device')
        initial = self.initial_replicas
        if scale.min_replicas > initial:
            raise SpecValidationError(
                'autoscale.min_replicas',
                f'{scale.min_replicas} exceeds the {initial} replica(s) the '
                f'replica groups provide — the fleet would start below its '
                f'own floor')
        if scale.max_replicas < initial:
            raise SpecValidationError(
                'autoscale.max_replicas',
                f'{scale.max_replicas} is below the {initial} replica(s) the '
                f'replica groups provide — the fleet would start above its '
                f'own ceiling')

    def _validate_failures(self) -> None:
        """One mode only; the seeded-mode bounds hold only in that mode."""
        failures = self.failures
        seeded_used = (failures.num_failures != 0
                       or failures.num_replicas is not None
                       or failures.span is not None
                       or failures.seed != 0
                       or failures.mttr is not None)
        if failures.events is not None:
            if seeded_used:
                raise SpecValidationError(
                    'failures',
                    'give either explicit events or a seeded schedule '
                    '(num_failures/num_replicas/span/seed/mttr), not both — '
                    'the seeded fields are ignored when events are explicit')
            return
        if failures.num_failures < 0:
            raise SpecValidationError(
                'failures.num_failures',
                f'must be >= 0, got {failures.num_failures}')
        if failures.num_replicas is None or failures.num_replicas < 1:
            raise SpecValidationError(
                'failures.num_replicas',
                f'a seeded schedule needs num_replicas >= 1, got '
                f'{failures.num_replicas}')
        if failures.span is None or failures.span <= 0:
            raise SpecValidationError(
                'failures.span',
                f'a seeded schedule needs span > 0, got {failures.span}')
        if failures.mttr is not None and failures.mttr <= 0:
            raise SpecValidationError(
                'failures.mttr',
                f'must be > 0 when given, got {failures.mttr}')

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON form (nested dicts/lists, ``version`` stamped)."""
        data = dataclasses.asdict(self)
        return {'version': SPEC_FORMAT_VERSION, **_canon(data)}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping) -> 'DeploymentSpec':
        """Parse the :meth:`to_dict` form; bad input raises
        :class:`SpecValidationError` naming the offending field."""
        if not isinstance(data, Mapping):
            raise SpecValidationError('spec', 'must be a JSON object')
        data = dict(data)
        version = data.pop('version', SPEC_FORMAT_VERSION)
        if (not isinstance(version, int) or isinstance(version, bool)
                or version != SPEC_FORMAT_VERSION):
            raise SpecValidationError(
                'version', f'unsupported spec format version {version!r} '
                           f'(this build reads version {SPEC_FORMAT_VERSION})')
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecValidationError(
                unknown[0], f'unknown field (known fields: {sorted(known)})')
        # only autoscale/failures are optional; an explicit null elsewhere
        # is a malformed spec (a templating bug), not a request for defaults
        for key in ('models', 'replicas', 'batching', 'placement', 'cache'):
            if key in data and data[key] is None:
                shape = ('JSON array' if key in ('models', 'replicas')
                         else 'JSON object')
                raise SpecValidationError(
                    key, f'must be a {shape}, got null (omit the key to '
                         f'use defaults)')
        models = data.get('models', ())
        if not isinstance(models, Sequence) or isinstance(models, str):
            raise SpecValidationError('models', 'must be a JSON array')
        replicas = data.get('replicas', None)
        if replicas is not None and (not isinstance(replicas, Sequence)
                                     or isinstance(replicas, str)):
            raise SpecValidationError('replicas', 'must be a JSON array')
        kwargs = {
            'models': tuple(_element(ModelSpec, m, f'models[{i}]')
                            for i, m in enumerate(models)),
            'batching': _node(BatchingSpec, data.get('batching'), 'batching'),
            'placement': _node(PlacementSpec, data.get('placement'),
                               'placement'),
            'autoscale': _node(AutoscaleSpec, data.get('autoscale'),
                               'autoscale'),
            'failures': _node(FailureSpec, data.get('failures'), 'failures'),
            'cache': _node(CacheSpec, data.get('cache'), 'cache'),
        }
        if replicas is not None:
            kwargs['replicas'] = tuple(
                _element(ReplicaGroupSpec, g, f'replicas[{i}]')
                for i, g in enumerate(replicas))
        # absent optional nodes fall back to the dataclass defaults
        return cls(**{k: v for k, v in kwargs.items()
                      if v is not None or k in ('autoscale', 'failures')})

    @classmethod
    def from_json(cls, text: str) -> 'DeploymentSpec':
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecValidationError('spec', f'not valid JSON: {exc}') from exc
        return cls.from_dict(data)

    # -- comparison ----------------------------------------------------------

    def diff(self, other: 'DeploymentSpec') -> dict[str, tuple]:
        """Field-by-field differences: dotted path -> ``(self, other)``.

        The A/B label of a sweep: ``base.diff(candidate)`` of two specs
        that differ in one knob returns exactly that knob, e.g.
        ``{'batching.max_wait': (0.002, 0.0005)}``.  Equal specs diff to
        ``{}``.
        """
        out: dict[str, tuple] = {}
        _diff_into('', self, other, out)
        return out


def _diff_into(path: str, a, b, out: dict) -> None:
    if type(a) is not type(b):
        out[path or 'spec'] = (a, b)
        return
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        for fld in dataclasses.fields(a):
            sub = f'{path}.{fld.name}' if path else fld.name
            _diff_into(sub, getattr(a, fld.name), getattr(b, fld.name), out)
        return
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            out[path] = (a, b)
            return
        for i, (va, vb) in enumerate(zip(a, b)):
            _diff_into(f'{path}[{i}]', va, vb, out)
        return
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b), key=str):
            sub = f'{path}.{key}' if path else str(key)
            if key not in a or key not in b:
                out[sub] = (a.get(key), b.get(key))
            else:
                _diff_into(sub, a[key], b[key], out)
        return
    if a != b:
        out[path] = (a, b)


# ---------------------------------------------------------------------------
# the façade


class Deployment:
    """Build and run the serving stack one :class:`DeploymentSpec` describes.

    The spec is validated at construction (fail fast, before any compile);
    :meth:`build` stands up the fleet — devices resolved by name, models
    registered (zoo builders from each :class:`ModelSpec`'s ``config``, or
    a callable from ``builders`` for non-zoo models), placement partitioned,
    caches warmed/persisted per the :class:`CacheSpec` — and wires the
    autoscaler and failure injector into one
    :class:`~repro.serve.fleet.FleetSimulator`.  :meth:`run` replays a
    trace and keeps the :class:`~repro.serve.fleet.FleetResult` for
    :meth:`report`.

    A lifecycle run (autoscaling or failures) *mutates* the fleet, so for
    such specs every :meth:`run` rebuilds the stack first — cheap when
    ``cache.warm_from`` is set, and what keeps a replayed scenario
    deterministic.

    Args:
        spec: the deployment description; validated immediately.
        builders: optional ``{model name: builder}`` overrides for models
            that are not in the zoo (a builder is ``callable(batch) ->
            FlowGraph``).  Builders are the one part of a deployment that
            cannot ride the JSON spec.
    """

    def __init__(self, spec: DeploymentSpec,
                 builders: Optional[Mapping[str, GraphBuilder]] = None):
        spec.validate()
        self.spec = spec
        self.builders = dict(builders) if builders else {}
        unknown = sorted(set(self.builders) - {m.name for m in spec.models})
        if unknown:
            raise SpecValidationError(
                'builders', f'builders for unknown models {unknown} '
                            f'(spec has {sorted(m.name for m in spec.models)})')
        # fail fast on unbuildable models too: a misspelled zoo name must
        # surface here, not as a KeyError mid-compile
        for i, model in enumerate(spec.models):
            if (model.name not in self.builders
                    and model.name not in MODEL_BUILDERS):
                raise SpecValidationError(
                    f'models[{i}].name',
                    f'{model.name!r} is not a zoo model (have '
                    f'{sorted(MODEL_BUILDERS)}) and no builder was passed '
                    f'for it — non-zoo models need '
                    f'Deployment(spec, builders={{{model.name!r}: ...}})')
        self.fleet: Optional[Fleet] = None
        self.simulator: Optional[FleetSimulator] = None
        self.last_result: Optional[FleetResult] = None
        self._stale = False

    # -- construction --------------------------------------------------------

    def _builder_for(self, model: ModelSpec) -> Optional[GraphBuilder]:
        if model.name in self.builders:
            return self.builders[model.name]
        if model.config:
            name, config = model.name, dict(model.config)
            return lambda b: for_batch(name, b, **config)
        return None                      # registry default: plain zoo model

    def _pretune(self, devices: Sequence[DeviceSpec]) -> None:
        """Pre-warm ``cache.warm_from`` with the parallel tuning service.

        Runs once per distinct device kind before the fleet stands up, so
        every replica's warm-up becomes a pure cache replay — the tuning
        bill is paid by ``cache.tuning_workers`` simulated workers sharing
        the record log instead of serially by the first replica to compile.
        """
        cache = self.spec.cache
        for device in dict.fromkeys(devices):
            named_graphs = []
            for model in self.spec.models:
                builder = self._builder_for(model)
                if builder is None:
                    builder = (lambda b, _n=model.name: for_batch(_n, b))
                for bucket in model.ladder():
                    named_graphs.append((model.name, builder(bucket)))
            factory = ((lambda _d=device: RidgeCostModel(_d))
                       if cache.cost_model else None)
            run_tuning_service(named_graphs, device=device,
                               num_workers=cache.tuning_workers,
                               log_path=cache.warm_from,
                               cost_model_factory=factory,
                               record_measurements=cache.cost_model)

    def build(self) -> 'Deployment':
        """Stand the stack up (idempotent until the next lifecycle run)."""
        if self.simulator is not None:
            return self
        spec, cache = self.spec, self.spec.cache
        devices = []
        for group in spec.replicas:
            device = resolve_device(group.device)
            if group.memory_bytes is not None:
                # a per-group DRAM override shapes this fleet only; the
                # registered DeviceSpec stays as registered
                device = dataclasses.replace(device,
                                             memory_bytes=group.memory_bytes)
            devices.extend([device] * group.count)
        if cache.tuning_workers > 1:
            self._pretune(devices)
        fleet = Fleet(devices, placement=spec.placement.build(),
                      warm_from=cache.warm_from,
                      cost_model=cache.cost_model,
                      enable_transfer=cache.enable_transfer,
                      enable_device_transfer=cache.enable_device_transfer,
                      max_cache_entries=cache.max_entries)
        for model in spec.models:
            fleet.register(model.name, builder=self._builder_for(model),
                           max_batch=model.max_batch, buckets=model.buckets,
                           memory_bytes=model.memory_bytes)
        fleet.build()
        if cache.save_to is not None:
            for replica in fleet.replicas:
                replica.registry.cache.save(cache.save_to)   # appends records
        autoscaler = (spec.autoscale.build()
                      if spec.autoscale is not None else None)
        failures = spec.failures.build() if spec.failures is not None else None
        self.fleet = fleet
        self.simulator = FleetSimulator(fleet, policy=spec.batching.build(),
                                        autoscaler=autoscaler,
                                        failures=failures)
        return self

    # -- running -------------------------------------------------------------

    def run(self, trace: Sequence[Request],
            telemetry: Optional['Telemetry'] = None) -> FleetResult:
        """Replay ``trace`` against the deployment; returns the
        :class:`FleetResult` (also kept on ``last_result`` for
        :meth:`report`).  Lifecycle specs rebuild a fresh fleet per run.
        ``telemetry`` (a :class:`repro.obs.Telemetry`, one per run) records
        the run's spans and metrics for Chrome-trace export."""
        if self._stale:
            self.fleet = None
            self.simulator = None
            self._stale = False
        self.build()
        result = self.simulator.run(trace, telemetry=telemetry)
        self.last_result = result
        self._stale = (self.spec.autoscale is not None
                       or self.spec.failures is not None)
        return result

    def report(self, title: Optional[str] = None) -> str:
        """The last run's :func:`format_fleet_report` block."""
        if self.last_result is None:
            raise RuntimeError('run() a trace before asking for a report')
        if title is None:
            title = (f'{len(self.spec.models)} models over '
                     f'{self.spec.initial_replicas} replicas '
                     f'({self.spec.placement.policy})')
        return format_fleet_report(self.last_result, title)

    # -- (de)serialization ---------------------------------------------------

    def to_json(self, indent: int = 2) -> str:
        """The deployment's spec as JSON (a deployment *is* its spec)."""
        return self.spec.to_json(indent=indent)

    @classmethod
    def from_json(cls, text: str,
                  builders: Optional[Mapping[str, GraphBuilder]] = None
                  ) -> 'Deployment':
        return cls(DeploymentSpec.from_json(text), builders=builders)


# ---------------------------------------------------------------------------
# CLI: validate a spec file without compiling anything


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.serve.deployment --validate spec.json`` for CI.

    Exit 0 with a one-line summary when the spec parses and validates;
    exit 1 printing the field-level error otherwise (exit 2 for an
    unreadable file).
    """
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog='python -m repro.serve.deployment',
        description='Validate a DeploymentSpec JSON file without building '
                    'or compiling anything.')
    parser.add_argument('--validate', metavar='SPEC_JSON', required=True,
                        help='path to a deployment spec JSON file')
    args = parser.parse_args(argv)
    try:
        with open(args.validate, 'r', encoding='utf-8') as handle:
            text = handle.read()
    except OSError as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 2
    try:
        spec = DeploymentSpec.from_json(text).validate()
    except SpecValidationError as exc:
        print(f'invalid: {args.validate}: {exc}', file=sys.stderr)
        return 1
    non_zoo = sorted(m.name for m in spec.models
                     if m.name not in MODEL_BUILDERS)
    print(f'OK: {args.validate}: {len(spec.models)} model(s) over '
          f'{spec.initial_replicas} replica(s), placement '
          f'{spec.placement.policy!r}'
          + (f', autoscale {spec.autoscale.policy!r}' if spec.autoscale else '')
          + (', failure injection on' if spec.failures else '')
          + (f'; non-zoo models needing builders at Deployment time: '
             f'{non_zoo}' if non_zoo else ''))
    return 0


if __name__ == '__main__':
    raise SystemExit(main())
