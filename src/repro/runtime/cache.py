"""Persistent compilation cache: task signatures and schedule reuse (§4.3).

Hidet's hardware-centric schedule space is small and *input-size
independent*, so the schedule found for one task transfers verbatim to
every other occurrence of the same task — across operators in a graph,
across graphs, and across processes.  This module turns that property into
a subsystem:

* :func:`task_signature` — a content-addressed key for a scheduling problem:
  a stable SHA-256 over the task's canonical description
  (:meth:`repro.ir.task.Task.signature_key`), the device spec, the fused
  prologue/epilogue shape, and any extra dispatch dimensions (schedule-space
  fingerprint, split-k policy).  No ``id()``s, no interned-object hashes —
  the same model built in a different process produces the same signatures.
* :class:`ScheduleCache` — an in-memory signature → schedule store with
  hit/miss accounting, shared by default across every
  :class:`~repro.runtime.executor.HidetExecutor` in the process.
* a versioned JSON on-disk format (:meth:`ScheduleCache.save` /
  :meth:`ScheduleCache.load`) so a warmed cache survives process restarts:
  ``optimize()`` of the same model in a new process pays zero simulated
  tuning time.

This is the same lever AutoTVM/Ansor pull with their tuning-log files,
except Hidet's records are tiny (one schedule per task class, not thousands
of measurement trials).

Serving-fleet extensions (PR 2):

* **LRU eviction** — ``ScheduleCache(max_entries=...)`` caps the store with
  least-recently-hit eviction (a hit refreshes recency); evictions are
  surfaced in :attr:`ScheduleCache.stats`.
* **Per-model namespaces** — entries remember which model owns them, so a
  registry can report and export per-model slices of a shared cache without
  giving up cross-model schedule sharing (the signature stays global).
* **Append-only record log** — :meth:`ScheduleCache.save` appends records
  to a line-oriented log (PR 8; it previously rewrote a merged JSON file,
  which let two concurrent savers drop each other's entries).  Replay is
  last-record-wins, so in-memory records still win conflicts, and
  concurrent savers *append* instead of racing a read-modify-write.
  :func:`compact_log` rewrites a log into its canonical minimal form;
  legacy monolithic-JSON caches are detected and migrated on the next
  save or warm (``CACHE_FORMAT_VERSION`` is unchanged — the signatures
  are the same, only the container changed).
* **Size-family transfer tier** — the hardware-centric space is input-size
  independent (§4.3), so alongside the exact signature every matmul record
  is indexed by a *family* key that drops the batch-scaled sizes.  An exact
  miss whose family is already cached re-measures the space's candidate
  kernels instead of recompiling them (compilation dominates the tuning
  bill) — this is what makes growing a serving registry's batch-bucket
  ladder cheap after the first bucket.

Fleet extensions (PR 3):

* **Device-family transfer tier** — schedules are hardware-centric, so a
  record tuned on one device is a strong candidate on a launch-compatible
  one (same warp size and per-block/per-thread limits,
  :func:`repro.gpusim.device.device_family_key`).  Every matmul record is
  additionally indexed by a *device-family* key
  (:func:`task_device_family_signature`) that drops the device spec
  entirely; a replica warming from a foreign device's cache validates the
  foreign schedule against its local :class:`DeviceSpec` and re-measures
  just that candidate (one compile + one measurement) instead of tuning the
  whole space — see :meth:`ScheduleCache.get_device_transfer` and the
  ``enable_device_transfer`` knob of
  :class:`~repro.runtime.executor.HidetExecutor`.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from ..core.schedule import MatmulSchedule, ReduceSchedule, schedule_fields
from ..gpusim.device import DeviceSpec, device_family_key
from ..ir.compute import GridCompute, ReduceCompute, TensorInput
from ..ir.expr import (BinaryExpr, BlockIndex, Call, Cast, Constant, Expr,
                       IfThenElse, TensorElement, ThreadIndex, Var)
from ..ir.task import Task
from ..sched.fusion import FusedTaskSpec

__all__ = ['CACHE_FORMAT_VERSION', 'LOG_FORMAT_VERSION', 'ScheduleCache',
           'CacheEntry', 'MeasurementRecord', 'compact_log',
           'task_signature', 'task_family_signature',
           'task_device_family_signature', 'fusion_fingerprint',
           'space_fingerprint', 'default_schedule_cache']

#: bump when the signature recipe or record *content* changes.  Baked into
#: every signature payload, so bumping it orphans all existing records —
#: container-level changes bump LOG_FORMAT_VERSION instead.
CACHE_FORMAT_VERSION = 3

#: version of the append-only record-log container (the JSONL file layout);
#: independent of CACHE_FORMAT_VERSION, which identifies record content
LOG_FORMAT_VERSION = 1

Schedule = Union[MatmulSchedule, ReduceSchedule]


# ---------------------------------------------------------------------------
# signatures


def _expr_fingerprint(e) -> tuple:
    """Structural, process-stable fingerprint of a compute expression.

    Prologue definitions inline the producing operator's computation, so two
    groups can differ *only* in expression constants (e.g. ``clip(x, 0, 6)``
    vs ``clip(x, -1, 1)``) while every name, shape, and attribute matches —
    the fingerprint must see through to the expression structure or the IR
    cache would serve the wrong fused module.
    """
    if isinstance(e, Var):
        return ('var', e.name)
    if isinstance(e, Constant):
        return ('const', e.dtype.name, e.value)
    if isinstance(e, BinaryExpr):
        return ('bin', e.op, _expr_fingerprint(e.a), _expr_fingerprint(e.b))
    if isinstance(e, Cast):
        return ('cast', e.dtype.name, _expr_fingerprint(e.expr))
    if isinstance(e, TensorElement):
        return ('elem', _expr_fingerprint(e.base),
                tuple(_expr_fingerprint(i) for i in e.indices))
    if isinstance(e, IfThenElse):
        return ('ite', _expr_fingerprint(e.cond),
                _expr_fingerprint(e.then_expr), _expr_fingerprint(e.else_expr))
    if isinstance(e, Call):
        return ('call', e.func_name, tuple(_expr_fingerprint(a) for a in e.args))
    if isinstance(e, ThreadIndex):
        return ('tid', e.dim)
    if isinstance(e, BlockIndex):
        return ('bid', e.dim)
    if isinstance(e, TensorInput):
        return ('in', e.name, e.dtype.name, e.shape)
    if isinstance(e, GridCompute):
        return ('grid', e.name, e.dtype.name, e.shape,
                tuple(a.name for a in e.axes), _expr_fingerprint(e.value))
    if isinstance(e, ReduceCompute):
        return ('reduce', e.op, e.extents, tuple(a.name for a in e.axes),
                _expr_fingerprint(e.value))
    if isinstance(e, Expr) and hasattr(e, 'a'):        # UnaryExpr and kin
        return ('un', getattr(e, 'op', type(e).__name__), _expr_fingerprint(e.a))
    return ('opaque', type(e).__name__, repr(e))


def fusion_fingerprint(spec: FusedTaskSpec) -> tuple:
    """Canonical description of a group's fused prologue/epilogue shape.

    Two groups with the same anchor task but different fusion surroundings
    must not share a schedule record: the epilogue side inputs change the
    memory traffic the tuner optimized for, and the fused IR module differs.
    Prologue entries fingerprint the inlined computation itself, not just its
    name and shape (constants baked into the expression matter).
    """
    prologues = tuple(sorted(
        ((anchor_input.name, _expr_fingerprint(gc))
         for anchor_input, gc in spec.prologue_defs.items()),
        key=lambda pair: pair[0]))
    epilogues = tuple(
        (step.task.signature_key(), step.task.inputs.index(step.chain_input))
        for step in spec.epilogue_steps)
    return (prologues, epilogues)


def space_fingerprint(space: Sequence[MatmulSchedule]) -> str:
    """Stable digest of a schedule space (order-sensitive).

    Executors restricted to a sub-space (e.g. ``double_buffer=False``
    ablations) must not consume schedules tuned over the full space.
    """
    payload = tuple(schedule_fields(s) for s in space)
    return hashlib.sha256(repr(payload).encode('utf-8')).hexdigest()[:16]


def task_signature(task: Task, device: DeviceSpec,
                   fusion: Optional[tuple] = None,
                   extras: Iterable = ()) -> str:
    """Content-addressed signature of one scheduling problem.

    Stable across processes: built only from names, shapes, dtypes, scalar
    attributes, and the device spec — never from runtime object identity.
    """
    payload = (CACHE_FORMAT_VERSION, task.signature_key(), device.key,
               fusion, tuple(extras))
    return hashlib.sha256(repr(payload).encode('utf-8')).hexdigest()


#: attributes that scale with the serving batch rather than describing the
#: problem's structure; the family signature drops ONLY these.  For a GEMM,
#: ``n``/``k`` come from the weights and identify the layer, while ``m`` and
#: ``batch`` grow with the bucket — two tasks differing only there are the
#: same GEMM at different batch sizes (§4.3: hardware-centric schedules are
#: input-size independent), not two different layers.
_BATCH_SCALED_ATTRS = frozenset({'m', 'batch', 'reduce_size'})


def _task_class_payload(task: Task) -> tuple:
    """Batch-size-independent description of a scheduling problem class.

    The shared core of both family tiers: task kind, the non-batch-scaled
    scalar attributes, and the input/output dtypes.  Keeping it in one place
    guarantees the size-family and device-family tiers always key on the
    same notion of "problem class".
    """
    kind = task.attrs.get('kind', task.name)
    attrs = tuple(sorted((a, v) for a, v in task.attrs.items()
                         if a not in _BATCH_SCALED_ATTRS
                         and isinstance(v, (bool, int, float, str, type(None)))))
    dtypes = (tuple(i.dtype.name for i in task.inputs), task.output.dtype.name)
    return (kind, attrs, dtypes)


def task_family_signature(task: Task, device: DeviceSpec,
                          extras: Iterable = ()) -> str:
    """Batch-size-independent signature of a scheduling problem class.

    Two tasks share a family when they differ only in the batch-scaled
    sizes (``m``/``batch``) — e.g. one layer's GEMM at bucket 1 and bucket
    8.  Structural sizes (``n``/``k``) stay in the key, so unrelated layers
    do not collapse into one family — though layers that genuinely share
    ``n``/``k``, dtypes, and fusion structure (only ``m`` differs) do, and
    legitimately so.  Family members enumerate
    the identical candidate set, so once one member is tuned (candidates
    compiled), tuning another member is a *transfer hit*: re-measurement
    only, no compile batch — and the chosen schedule is still the true
    optimum for the new sizes.  Fusion shape and input shapes are
    deliberately excluded: both scale with the batch.
    """
    payload = ('family', CACHE_FORMAT_VERSION, *_task_class_payload(task),
               device.key, tuple(extras))
    return hashlib.sha256(repr(payload).encode('utf-8')).hexdigest()


def task_device_family_signature(task: Task, device: DeviceSpec,
                                 extras: Iterable = ()) -> str:
    """Device- and batch-size-independent signature of a problem class.

    The third and loosest signature tier (exact > size-family >
    device-family): the full device spec is replaced by its
    launch-compatibility class (:func:`repro.gpusim.device.device_family_key`
    — warp size and per-block/per-thread limits), and the batch-scaled sizes
    are dropped exactly as in :func:`task_family_signature`.  Two tasks
    sharing a device family describe the same GEMM layer targeted at devices
    that can launch each other's candidate kernels — so a schedule tuned on
    one device is a *validated starting point* on the other, not a blind
    guess.  Unlike a size-family hit (whose adopted schedule is provably
    still optimal, §4.3), a device-family hit trades a possibly sub-optimal
    schedule for skipping the whole enumerate-compile-measure bill; the
    caller must re-validate the record against the local
    :class:`~repro.gpusim.device.DeviceSpec` and re-measure it there.
    """
    payload = ('device-family', CACHE_FORMAT_VERSION,
               *_task_class_payload(task), device_family_key(device),
               tuple(extras))
    return hashlib.sha256(repr(payload).encode('utf-8')).hexdigest()


# ---------------------------------------------------------------------------
# schedule (de)serialization


def _schedule_to_dict(schedule: Schedule) -> dict:
    return {f.name: getattr(schedule, f.name) for f in fields(schedule)}


def _schedule_from_dict(kind: str, data: dict) -> Schedule:
    if kind == 'matmul':
        return MatmulSchedule(
            block_warps=tuple(data['block_warps']),
            warp_outer=tuple(data['warp_outer']),
            thread_layout=tuple(data['thread_layout']),
            thread_tile=tuple(data['thread_tile']),
            block_k=int(data['block_k']),
            double_buffer=bool(data['double_buffer']),
            split_k=int(data['split_k']),
        )
    if kind == 'reduce':
        return ReduceSchedule(block_size=int(data['block_size']),
                              items_per_thread=int(data['items_per_thread']))
    raise ValueError(f'unknown schedule kind {kind!r}')


@dataclass(frozen=True)
class CacheEntry:
    """One cached scheduling decision."""

    kind: str                    # 'matmul' | 'reduce'
    schedule: Schedule
    #: owning model (registry bookkeeping); empty for anonymous compiles
    namespace: str = ''
    #: size-independent family key, when the record is transferable
    family: Optional[str] = None
    #: device- and size-independent family key (cross-device transfer tier)
    device_family: Optional[str] = None

    def to_json(self) -> dict:
        data = {'kind': self.kind, 'schedule': _schedule_to_dict(self.schedule)}
        if self.namespace:
            data['namespace'] = self.namespace
        if self.family:
            data['family'] = self.family
        if self.device_family:
            data['device_family'] = self.device_family
        return data

    @staticmethod
    def from_json(data: dict) -> 'CacheEntry':
        kind = data['kind']
        return CacheEntry(kind=kind,
                          schedule=_schedule_from_dict(kind, data['schedule']),
                          namespace=data.get('namespace', ''),
                          family=data.get('family'),
                          device_family=data.get('device_family'))


@dataclass(frozen=True)
class MeasurementRecord:
    """One (problem, schedule) → modeled-latency observation.

    The raw material learned cost models (:mod:`repro.tune`) train on.
    Tuners record every candidate they actually measure; the cache persists
    the records alongside the schedule entries, so a warmed cache carries
    its training set with it.
    """

    kind: str                    # 'matmul' (reduce mini-tunes are free)
    m: int
    n: int
    k: int
    batch: int
    schedule: Schedule
    latency: float               # modeled seconds
    extra_read_bytes: float = 0.0
    extra_write_bytes: float = 0.0

    @cached_property
    def problem_key(self) -> tuple:
        """Identity of the scheduling problem (distinct-problem counting)."""
        return (self.kind, self.m, self.n, self.k, self.batch,
                round(self.extra_read_bytes), round(self.extra_write_bytes))

    @cached_property
    def key(self) -> tuple:
        """Dedup identity: one record per (problem, schedule)."""
        return (*self.problem_key, schedule_fields(self.schedule))

    def to_json(self) -> dict:
        return {'kind': self.kind,
                'problem': [self.m, self.n, self.k, self.batch],
                'schedule': _schedule_to_dict(self.schedule),
                'extra': [self.extra_read_bytes, self.extra_write_bytes],
                'latency': self.latency}

    @staticmethod
    def from_json(data: dict) -> 'MeasurementRecord':
        m, n, k, batch = data['problem']
        extra = data.get('extra', [0.0, 0.0])
        return MeasurementRecord(
            kind=data['kind'], m=int(m), n=int(n), k=int(k), batch=int(batch),
            schedule=_schedule_from_dict(data['kind'], data['schedule']),
            latency=float(data['latency']),
            extra_read_bytes=float(extra[0]), extra_write_bytes=float(extra[1]))


# ---------------------------------------------------------------------------
# the cache


class ScheduleCache:
    """Signature → schedule store with hit/miss accounting.

    In-memory by default; :meth:`save`/:meth:`load` round-trip the records
    through a versioned JSON file so tuning cost is paid once per task class
    per device, ever.  ``max_entries`` bounds the store with
    least-recently-hit eviction (insertion counts as a use, every hit
    refreshes recency); the family index enables cross-size transfer hits
    (see :func:`task_family_signature`).
    """

    def __init__(self, max_entries: Optional[int] = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError('max_entries must be a positive integer or None')
        #: signature → entry, ordered oldest-use first (python dicts preserve
        #: insertion order; a hit re-inserts at the end)
        self._entries: dict[str, CacheEntry] = {}
        #: family signature → exact signature of the newest family member
        self._families: dict[str, str] = {}
        #: device-family signature → exact signature of the newest member
        self._device_families: dict[str, str] = {}
        #: (problem, schedule) key → measurement record; training data for
        #: learned cost models.  Exempt from max_entries (records are tiny
        #: and eviction would silently shrink the training set)
        self._measurements: dict[tuple, MeasurementRecord] = {}
        #: bumped whenever a measurement is added or changed — cost models
        #: key their lazy refits on this
        self.measurement_version = 0
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.transfer_hits = 0
        self.device_transfer_hits = 0
        self.evictions = 0

    # -- core protocol -----------------------------------------------------

    def get(self, signature: str, kind: str) -> Optional[Schedule]:
        """Look up a schedule; counts a hit or a miss."""
        entry = self._entries.get(signature)
        if entry is not None and entry.kind == kind:
            self.hits += 1
            self._touch(signature)
            return entry.schedule
        self.misses += 1
        return None

    def _get_indexed(self, index: dict[str, str], key: str, kind: str,
                     validate=None) -> Optional[Schedule]:
        """Shared lookup of both transfer tiers: follow ``index`` to the
        newest member, check kind and ``validate``, refresh recency.  The
        caller counts the appropriate hit kind on a non-``None`` return."""
        signature = index.get(key)
        if signature is None:
            return None
        entry = self._entries.get(signature)
        if entry is None or entry.kind != kind:
            return None
        if validate is not None and not validate(entry.schedule):
            return None
        self._touch(signature)
        return entry.schedule

    def get_transfer(self, family: str, kind: str) -> Optional[Schedule]:
        """Check an exact miss against the family tier (other sizes).

        A non-``None`` return means a same-family record exists, i.e. the
        family's candidate kernels are already compiled and the caller may
        re-tune this size charging measurements only.  Counts a *transfer*
        hit, not a regular hit.  Returns ``None`` when no member is cached.
        """
        schedule = self._get_indexed(self._families, family, kind)
        if schedule is not None:
            self.transfer_hits += 1
        return schedule

    def get_device_transfer(self, device_family: str, kind: str,
                            validate=None) -> Optional[Schedule]:
        """Check a miss against the device-family tier (other devices).

        A non-``None`` return is a schedule tuned for a launch-compatible
        device on the same problem class: the caller may adopt it by
        compiling and measuring *that one candidate* locally instead of
        tuning the whole space.  ``validate`` (e.g.
        ``lambda s: s.is_valid(local_device)``) is applied before anything is
        counted — a record that fails local validation is not a transfer
        hit, and ``None`` is returned so the caller falls back to a full
        tune.  Counts a *device transfer* hit, separate from regular and
        size-family hits.
        """
        schedule = self._get_indexed(self._device_families, device_family,
                                     kind, validate)
        if schedule is not None:
            self.device_transfer_hits += 1
        return schedule

    def put(self, signature: str, kind: str, schedule: Schedule,
            namespace: str = '', family: Optional[str] = None,
            device_family: Optional[str] = None) -> None:
        self._entries.pop(signature, None)
        self._entries[signature] = CacheEntry(
            kind=kind, schedule=schedule, namespace=namespace,
            family=family, device_family=device_family)
        if family is not None:
            self._families[family] = signature
        if device_family is not None:
            self._device_families[device_family] = signature
        self._evict_over_cap()

    def _touch(self, signature: str) -> None:
        """Refresh LRU recency: move the entry to the young end."""
        self._entries[signature] = self._entries.pop(signature)

    def _evict_over_cap(self) -> None:
        while self.max_entries is not None and len(self._entries) > self.max_entries:
            victim, entry = next(iter(self._entries.items()))
            del self._entries[victim]
            self.evictions += 1
            self._relink_index(self._families, victim, entry.family, 'family')
            self._relink_index(self._device_families, victim,
                               entry.device_family, 'device_family')

    def _relink_index(self, index: dict[str, str], victim: str,
                      key: Optional[str], attr: str) -> None:
        """Keep a transfer tier alive across eviction: re-link ``key`` to its
        youngest surviving member instead of dropping the index."""
        if key is None or index.get(key) != victim:
            return
        for sig in reversed(self._entries):
            if getattr(self._entries[sig], attr) == key:
                index[key] = sig
                break
        else:
            del index[key]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, signature: str) -> bool:
        return signature in self._entries

    def clear(self) -> None:
        self._entries.clear()
        self._families.clear()
        self._device_families.clear()
        self._measurements.clear()
        self.measurement_version = 0
        self.hits = 0
        self.misses = 0
        self.transfer_hits = 0
        self.device_transfer_hits = 0
        self.evictions = 0

    @property
    def stats(self) -> dict[str, int]:
        return {'entries': len(self._entries),
                'hits': self.hits, 'misses': self.misses,
                'transfer_hits': self.transfer_hits,
                'device_transfer_hits': self.device_transfer_hits,
                'evictions': self.evictions}

    def namespace_stats(self) -> dict[str, int]:
        """Entry count per owning namespace ('' = anonymous compiles)."""
        counts: dict[str, int] = {}
        for entry in self._entries.values():
            counts[entry.namespace] = counts.get(entry.namespace, 0) + 1
        return counts

    # -- measurements (cost-model training data) ---------------------------

    def record_measurement(self, record: MeasurementRecord) -> bool:
        """Store one measured (problem, schedule) → latency observation.

        Keyed on (problem, schedule): re-measuring the same candidate
        replaces the record.  Returns ``True`` when the store actually
        changed (and :attr:`measurement_version` was bumped).
        """
        key = record.key
        if self._measurements.get(key) == record:
            return False
        self._measurements[key] = record
        self.measurement_version += 1
        return True

    def measurements(self) -> tuple[MeasurementRecord, ...]:
        """All stored measurement records, in insertion order."""
        return tuple(self._measurements.values())

    @property
    def measurement_count(self) -> int:
        return len(self._measurements)

    # -- persistence -------------------------------------------------------

    def to_json(self, namespace: Optional[str] = None) -> dict:
        """Serializable form; ``namespace`` restricts to one model's slice.

        Measurement records ride along un-sliced: they are global training
        data for cost models, not per-model state.
        """
        entries = {sig: entry for sig, entry in self._entries.items()
                   if namespace is None or entry.namespace == namespace}
        data = {
            'version': CACHE_FORMAT_VERSION,
            'entries': {sig: entry.to_json()
                        for sig, entry in sorted(entries.items())},
        }
        if self._measurements:
            data['measurements'] = [
                rec.to_json() for rec in sorted(
                    self._measurements.values(),
                    key=lambda r: _canonical_line(r.to_json()))]
        return data

    def save(self, path: str, namespace: Optional[str] = None) -> None:
        """Persist this cache into the append-only record log at ``path``.

        Only records whose *effective* on-disk value differs are appended
        (replay is last-record-wins, so an appended record overrides older
        ones and in-memory state wins conflicts).  Because savers append
        instead of rewriting the file, concurrent savers union their work —
        the read-modify-write race of the old merge-on-save JSON format
        (open since PR 1) cannot drop entries here: appends with ``O_APPEND``
        semantics land whole lines even when interleaved.

        A legacy monolithic-JSON cache file at ``path`` is migrated into log
        form first (its records replay before this cache's, preserving the
        memory-wins merge order).  An unreadable or version-mismatched file
        is overwritten.  Logs grow until :func:`compact_log` rewrites them
        canonically.
        """
        entries = {sig: entry for sig, entry in self._entries.items()
                   if namespace is None or entry.namespace == namespace}
        state = None
        if os.path.exists(path):
            try:
                state = _read_state(path)
            except (OSError, ValueError):
                state = None             # unreadable or not ours: overwrite
        if state is None:
            _write_log(path, entries, self._measurements)
            return
        disk_entries, disk_measurements, is_log = state
        if not is_log:
            # legacy JSON → log migration: disk records first, ours after,
            # so last-record-wins replay preserves "memory wins conflicts"
            merged_entries = dict(disk_entries)
            merged_entries.update(entries)
            merged_measurements = dict(disk_measurements)
            merged_measurements.update(self._measurements)
            _write_log(path, merged_entries, merged_measurements)
            return
        lines = []
        for sig, entry in entries.items():
            if disk_entries.get(sig) != entry:
                lines.append(_canonical_line(
                    {'op': 'put', 'sig': sig, 'entry': entry.to_json()}))
        for key, rec in self._measurements.items():
            if disk_measurements.get(key) != rec:
                lines.append(_canonical_line(
                    {'op': 'measure', 'record': rec.to_json()}))
        if lines:
            with open(path, 'a', encoding='utf-8') as f:
                f.write(''.join(line + '\n' for line in lines))

    def merge_json(self, data: dict) -> int:
        """Merge records from a parsed (legacy-shaped) cache dict.

        Returns the number of new entries actually *retained* — with a
        ``max_entries`` cap, merged records can immediately evict each
        other, so the count is taken after the merge, not per record.
        Measurement records under ``'measurements'`` merge too (newer wins)
        but do not count toward the return value.
        """
        version = data.get('version')
        if version != CACHE_FORMAT_VERSION:
            raise ValueError(
                f'schedule cache version mismatch: file has {version!r}, '
                f'this build reads {CACHE_FORMAT_VERSION}')
        file_entries = data.get('entries', {})
        pre_existing = {sig for sig in file_entries if sig in self._entries}
        for sig, raw in file_entries.items():
            entry = CacheEntry.from_json(raw)
            self.put(sig, entry.kind, entry.schedule,
                     namespace=entry.namespace, family=entry.family,
                     device_family=entry.device_family)
        for raw in data.get('measurements', ()):
            self.record_measurement(MeasurementRecord.from_json(raw))
        return sum(1 for sig in file_entries
                   if sig in self._entries and sig not in pre_existing)

    def warm(self, path: str, missing_ok: bool = False) -> int:
        """Merge a saved cache file into this cache; returns entries added.

        The warming API of the serving registry: point it at a persisted
        cache and every previously tuned bucket compiles with zero simulated
        tuning seconds.  Reads both the record-log format and legacy
        monolithic-JSON caches.

        Safe against concurrent savers: savers append whole lines, and a
        torn *trailing* line (a reader racing an in-flight append) is
        ignored — the reader sees every record completed before its read.
        With ``missing_ok`` the not-yet-created file (a fleet scaling up
        before its first save) reads as an empty cache instead of raising
        ``FileNotFoundError``.
        """
        if missing_ok and not os.path.exists(path):
            return 0
        entries, measurements, _ = _read_state(path)
        data: dict = {'version': CACHE_FORMAT_VERSION,
                      'entries': {sig: e.to_json()
                                  for sig, e in entries.items()},
                      'measurements': [r.to_json()
                                       for r in measurements.values()]}
        return self.merge_json(data)

    @classmethod
    def load(cls, path: str) -> 'ScheduleCache':
        """Read a cache written by :meth:`save` into a fresh instance."""
        cache = cls()
        cache.warm(path)
        return cache


# ---------------------------------------------------------------------------
# the append-only record log
#
# One JSON object per line.  The first line is a header naming the container
# and record versions; every other line is a record: ``{"op": "put", "sig":
# ..., "entry": {...}}`` or ``{"op": "measure", "record": {...}}``.  Replay
# is last-record-wins, so appending a record overrides earlier ones and the
# file never needs a read-modify-write cycle to update — which is exactly
# what removes the concurrent-saver race of the old monolithic-JSON format.


def _canonical_line(obj: dict) -> str:
    """One record as its canonical byte form (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(',', ':'))


def _log_lines(entries: dict[str, CacheEntry],
               measurements: dict[tuple, MeasurementRecord]) -> list[str]:
    """The canonical (compacted) log for a cache state: header, then puts
    sorted by signature, then measurements in canonical record order.  Two
    caches holding the same records produce byte-identical logs."""
    lines = [_canonical_line({'log': LOG_FORMAT_VERSION,
                              'version': CACHE_FORMAT_VERSION})]
    for sig in sorted(entries):
        lines.append(_canonical_line(
            {'op': 'put', 'sig': sig, 'entry': entries[sig].to_json()}))
    for rec in sorted(measurements.values(),
                      key=lambda r: _canonical_line(r.to_json())):
        lines.append(_canonical_line({'op': 'measure', 'record': rec.to_json()}))
    return lines


def _write_log(path: str, entries: dict[str, CacheEntry],
               measurements: dict[tuple, MeasurementRecord]) -> None:
    """Write a canonical log (atomic rename: readers never see a torn file)."""
    tmp = f'{path}.tmp'
    with open(tmp, 'w', encoding='utf-8') as f:
        f.write(''.join(line + '\n'
                        for line in _log_lines(entries, measurements)))
    os.replace(tmp, path)


def _replay_log(text: str) -> tuple[dict[str, CacheEntry],
                                    dict[tuple, MeasurementRecord]]:
    """Replay a log's records, last-record-wins.

    A torn *trailing* line (a reader racing an in-flight append) is ignored;
    a torn line in the middle means real corruption and raises ValueError.
    """
    entries: dict[str, CacheEntry] = {}
    measurements: dict[tuple, MeasurementRecord] = {}
    lines = text.split('\n')
    for i, raw in enumerate(lines):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            if all(not later.strip() for later in lines[i + 1:]):
                break                    # torn trailing append
            raise ValueError(
                f'corrupt schedule-cache log: unparseable line {i + 1}')
        if not isinstance(obj, dict):
            raise ValueError(
                f'corrupt schedule-cache log: line {i + 1} is not a record')
        if 'log' in obj:                 # header (duplicates tolerated)
            if (obj.get('log') != LOG_FORMAT_VERSION
                    or obj.get('version') != CACHE_FORMAT_VERSION):
                raise ValueError(
                    f'schedule cache log version mismatch: file has '
                    f'log={obj.get("log")!r} version={obj.get("version")!r}, '
                    f'this build reads log={LOG_FORMAT_VERSION} '
                    f'version={CACHE_FORMAT_VERSION}')
            continue
        try:
            op = obj.get('op')
            if op == 'put':
                entries[obj['sig']] = CacheEntry.from_json(obj['entry'])
            elif op == 'measure':
                rec = MeasurementRecord.from_json(obj['record'])
                measurements[rec.key] = rec
            else:
                raise KeyError(f'unknown op {op!r}')
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f'corrupt schedule-cache log record at line {i + 1}: {exc}')
    return entries, measurements


def _read_state(path: str) -> tuple[dict[str, CacheEntry],
                                    dict[tuple, MeasurementRecord], bool]:
    """Parse either on-disk format into (entries, measurements, is_log).

    Sniffs the first line: a one-line JSON dict with a ``'log'`` key is a
    record log; anything else is treated as a legacy monolithic-JSON cache.
    Raises ``ValueError`` for corrupt content or a version mismatch in
    either format.
    """
    with open(path, 'r', encoding='utf-8') as f:
        text = f.read()
    first = text.lstrip().split('\n', 1)[0].strip()
    header = None
    if first:
        try:
            header = json.loads(first)
        except ValueError:
            header = None
    if isinstance(header, dict) and 'log' in header:
        entries, measurements = _replay_log(text)
        return entries, measurements, True
    data = json.loads(text)              # ValueError on corruption
    version = data.get('version') if isinstance(data, dict) else None
    if version != CACHE_FORMAT_VERSION:
        raise ValueError(
            f'schedule cache version mismatch: file has {version!r}, '
            f'this build reads {CACHE_FORMAT_VERSION}')
    entries = {sig: CacheEntry.from_json(raw)
               for sig, raw in data.get('entries', {}).items()}
    measurements = {}
    for raw in data.get('measurements', ()):
        rec = MeasurementRecord.from_json(raw)
        measurements[rec.key] = rec
    return entries, measurements, False


def compact_log(path: str) -> int:
    """Rewrite the record log at ``path`` into its canonical minimal form.

    Replays the log (last-record-wins), drops superseded records, and
    rewrites header + sorted records through an atomic rename.  Two logs
    reaching the same effective state compact to byte-identical files — the
    property the parallel tuning service's cache-equivalence check rests
    on.  Also migrates a legacy monolithic-JSON cache into log form.
    Returns the number of live records kept.
    """
    entries, measurements, _ = _read_state(path)
    _write_log(path, entries, measurements)
    return len(entries) + len(measurements)


#: process-wide cache shared by every executor that does not bring its own
_DEFAULT_CACHE = ScheduleCache()


def default_schedule_cache() -> ScheduleCache:
    """The process-wide :class:`ScheduleCache` (see ``HidetExecutor(cache=...)``)."""
    return _DEFAULT_CACHE
