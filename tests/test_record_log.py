"""Property-based tests for the schedule cache's append-only record log.

The log replaces the PR-1-era merge-on-save JSON format, whose
read-modify-write cycle let concurrent savers drop each other's entries.
The properties below are what the parallel tuning service leans on:

- *any* interleaving of N writers' ``save`` / ``compact_log`` / ``load``
  operations round-trips to the same final entry set (the union of what
  the writers held);
- ``ScheduleCache.merge`` is commutative and idempotent over
  value-consistent caches (in this system, two tuners that tune the same
  problem compute the same optimum — determinism is what makes the merge a
  semilattice);
- compaction is canonical: logs reaching the same effective state compact
  to byte-identical files, and compacting twice is a no-op;
- the log is the only on-disk format: a monolithic-JSON cache file (the
  format before the log) fails to load with an error naming the problem.
"""
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim.device import RTX3090
from repro.runtime.cache import (CACHE_FORMAT_VERSION, MeasurementRecord,
                                 ScheduleCache, _log_lines, compact_log)
from repro.sched.space import matmul_schedule_space

#: small deterministic pool of real schedules to draw entry values from
SCHEDULES = list(matmul_schedule_space(RTX3090))[:8]

#: global signature -> value assignment: every writer that holds signature
#: ``sig_i`` holds the *same* entry for it (value-consistent writers), which
#: is the regime the tuning service runs in — a deterministic tuner cannot
#: produce two different optima for one problem
SIGNATURES = [f'sig_{i:02d}' for i in range(12)]


def _put(cache: ScheduleCache, index: int) -> None:
    cache.put(SIGNATURES[index], 'matmul', SCHEDULES[index % len(SCHEDULES)],
              namespace=f'ns{index % 3}')


def _measure(cache: ScheduleCache, index: int) -> None:
    cache.record_measurement(MeasurementRecord(
        kind='matmul', m=64 * (index + 1), n=128, k=256, batch=1,
        schedule=SCHEDULES[index % len(SCHEDULES)],
        latency=1e-5 * (index + 1)))


def _writer(indices) -> ScheduleCache:
    cache = ScheduleCache()
    for index in indices:
        _put(cache, index)
        _measure(cache, index)
    return cache


# one writer's holdings: which of the global signatures it tuned
writer_strategy = st.lists(st.integers(min_value=0,
                                       max_value=len(SIGNATURES) - 1),
                           min_size=0, max_size=6)


@settings(max_examples=30, deadline=None)
@given(writers=st.lists(writer_strategy, min_size=1, max_size=4),
       order=st.permutations(range(4)),
       compact_after=st.sets(st.integers(min_value=0, max_value=3)))
def test_interleaved_writers_round_trip_to_the_union(tmp_path_factory,
                                                     writers, order,
                                                     compact_after):
    """Any save order, with compactions and loads interleaved anywhere,
    yields the union of every writer's records."""
    path = str(tmp_path_factory.mktemp('log') / 'schedules.jsonl')
    caches = [_writer(indices) for indices in writers]
    expected_sigs = {SIGNATURES[i] for indices in writers for i in indices}
    expected_measurements = len({64 * (i + 1) for indices in writers
                                 for i in indices})
    for step, writer_index in enumerate(i for i in order
                                        if i < len(caches)):
        caches[writer_index].save(path)
        if step in compact_after:
            compact_log(path)
        # a reader racing the writers sees a consistent prefix: every
        # record saved so far replays cleanly
        ScheduleCache().warm(path)
    final = ScheduleCache.load(path)
    assert {sig for sig in SIGNATURES if sig in final} == expected_sigs
    assert len(final) == len(expected_sigs)
    assert final.measurement_count == expected_measurements
    for indices in writers:
        for i in indices:
            assert final.get(SIGNATURES[i], 'matmul') == \
                SCHEDULES[i % len(SCHEDULES)]


@settings(max_examples=30, deadline=None)
@given(a=writer_strategy, b=writer_strategy)
def test_merge_is_commutative_and_idempotent(a, b):
    def canonical(cache):
        return _log_lines(cache._entries, cache._measurements)

    ab = _writer(a)
    ab.merge(_writer(b))
    ba = _writer(b)
    ba.merge(_writer(a))
    assert canonical(ab) == canonical(ba)                 # commutative
    twice = _writer(a)
    twice.merge(_writer(a))
    assert canonical(twice) == canonical(_writer(a))      # idempotent
    again = ScheduleCache()
    again.merge(ab)
    again.merge(ab)
    assert canonical(again) == canonical(ab)


@settings(max_examples=20, deadline=None)
@given(indices=writer_strategy.filter(lambda xs: len(xs) > 0),
       split=st.integers(min_value=0, max_value=6),
       order=st.booleans())
def test_compaction_is_canonical_and_idempotent(tmp_path_factory, indices,
                                                split, order):
    """Two logs reaching the same state — in different record orders, with
    different append histories — compact to byte-identical files."""
    tmp = tmp_path_factory.mktemp('log')
    split = min(split, len(indices))
    first, second = indices[:split], indices[split:]
    path_a, path_b = str(tmp / 'a.jsonl'), str(tmp / 'b.jsonl')
    _writer(first).save(path_a)
    _writer(second).save(path_a)
    if order:
        _writer(second).save(path_b)
        _writer(first).save(path_b)
    else:
        _writer(indices).save(path_b)
    compact_log(path_a)
    compact_log(path_b)
    with open(path_a, 'rb') as fa, open(path_b, 'rb') as fb:
        bytes_a, bytes_b = fa.read(), fb.read()
    assert bytes_a == bytes_b
    compact_log(path_a)                 # compaction is idempotent
    with open(path_a, 'rb') as fa:
        assert fa.read() == bytes_a


def test_torn_trailing_line_is_ignored(tmp_path):
    """A reader racing an in-flight append sees every *completed* record."""
    path = str(tmp_path / 'schedules.jsonl')
    _writer([0, 1, 2]).save(path)
    with open(path, 'a', encoding='utf-8') as f:
        f.write('{"op": "put", "sig": "sig_99", "entry": {"kin')  # torn
    warmed = ScheduleCache.load(path)
    assert len(warmed) == 3
    assert 'sig_99' not in warmed


@pytest.mark.parametrize('indent', [None, 2])
def test_monolithic_json_cache_is_not_a_record_log(tmp_path, indent):
    """A monolithic-JSON cache file (the format before the record log), on
    one line or indented, fails to load with a named error; a save over it
    starts a fresh log, so a registry or fleet booting on it starts cold."""
    path = str(tmp_path / 'schedules.json')
    held = _writer([0, 1])
    legacy = {'version': CACHE_FORMAT_VERSION,
              'entries': {sig: entry.to_json()
                          for sig, entry in held._entries.items()},
              'measurements': [rec.to_json() for rec in held.measurements()]}
    with open(path, 'w', encoding='utf-8') as f:
        json.dump(legacy, f, indent=indent)
    with pytest.raises(ValueError, match='not a schedule-cache record log'):
        ScheduleCache.load(path)
    with pytest.raises(ValueError, match='not a schedule-cache record log'):
        compact_log(path)

    _writer([2]).save(path)
    with open(path, 'r', encoding='utf-8') as f:
        header = json.loads(f.readline())
    assert header == {'log': 1, 'version': CACHE_FORMAT_VERSION}
    reloaded = ScheduleCache.load(path)
    assert {sig for sig in SIGNATURES if sig in reloaded} == {'sig_02'}


def test_concurrent_savers_cannot_drop_entries(tmp_path):
    """The PR-1 regression, pinned: two caches that both loaded the same
    starting state and then tuned disjoint work save concurrently; with
    merge-on-save JSON the second writer's read-modify-write clobbered the
    first, with the append-only log both survive."""
    path = str(tmp_path / 'schedules.jsonl')
    _writer([0]).save(path)
    worker_a = ScheduleCache.load(path)
    worker_b = ScheduleCache.load(path)   # both start from the same state
    _put(worker_a, 1)
    _put(worker_b, 2)
    worker_a.save(path)
    worker_b.save(path)                   # old format: would drop sig_01
    final = ScheduleCache.load(path)
    assert {s for s in SIGNATURES if s in final} == {'sig_00', 'sig_01',
                                                     'sig_02'}
    assert os.path.getsize(path) > 0
