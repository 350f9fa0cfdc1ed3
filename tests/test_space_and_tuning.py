"""Hardware-centric schedule space and the exhaustive tuner (§4.3)."""
import pytest

from repro.core.tuning import MatmulTuner
from repro.gpusim import RTX3090, SimulatedClock
from repro.sched.schedule import MatmulSchedule
from repro.sched.space import (matmul_schedule_space, reduce_schedule_space,
                               split_k_candidates)


class TestSpace:
    def test_size_matches_paper_ballpark(self):
        """Paper: 'less than 200 schedules' / '~180 schedules'."""
        space = matmul_schedule_space()
        assert 120 <= len(space) <= 200

    def test_all_schedules_valid_and_unique(self):
        space = matmul_schedule_space()
        assert all(s.is_valid() for s in space)
        assert len(set(space)) == len(space)

    def test_space_independent_of_input_size(self):
        """The same space serves every problem — no divisor dependence."""
        space = matmul_schedule_space()
        for sched in space[:10]:
            for size in (1024, 2039, 7):
                gx, gy, gz = sched.grid(size, size)
                assert gx * sched.block_n >= size and gy * sched.block_m >= size

    def test_split_k_candidates_only_for_small_outputs(self):
        assert split_k_candidates(4096, 4096, 4096) == [1]
        cands = split_k_candidates(196, 512, 4608)
        assert cands[0] == 1 and len(cands) > 1

    def test_reduce_space(self):
        space = reduce_schedule_space()
        assert len(space) >= 8
        assert all(s.is_valid() for s in space)


class TestTuner:
    def test_deterministic_and_cached(self):
        tuner = MatmulTuner(RTX3090)
        r1 = tuner.tune(512, 512, 512)
        charged = tuner.clock.elapsed_seconds
        r2 = tuner.tune(512, 512, 512)
        # cache hit: same answer, no new clock charges, ~0 reported seconds
        assert r2.best_schedule == r1.best_schedule
        assert r2.best_latency == r1.best_latency
        assert tuner.clock.elapsed_seconds == charged
        assert r1.tuning_seconds > 0
        assert r2.tuning_seconds == 0.0
        fresh = MatmulTuner(RTX3090).tune(512, 512, 512)
        assert fresh.best_schedule == r1.best_schedule
        assert fresh.best_latency == r1.best_latency

    def test_cache_distinguishes_spaces(self):
        tuner = MatmulTuner(RTX3090)
        db = tuner.tune(1024, 1024, 1024,
                        space=matmul_schedule_space(double_buffer=True),
                        try_split_k=False)
        sb = tuner.tune(1024, 1024, 1024,
                        space=matmul_schedule_space(double_buffer=False),
                        try_split_k=False)
        assert db.best_latency < sb.best_latency

    def test_split_k_helps_small_output_grids(self):
        tuner = MatmulTuner(RTX3090)
        base = tuner.tune(196, 512, 4608, try_split_k=False)
        with_k = tuner.tune(196, 512, 4608, try_split_k=True)
        assert with_k.best_latency < base.best_latency
        assert with_k.best_schedule.split_k > 1

    def test_large_matmul_prefers_big_tiles(self):
        tuner = MatmulTuner(RTX3090)
        best = tuner.tune(2048, 2048, 2048).best_schedule
        assert best.block_m * best.block_n >= 64 * 64
        assert best.double_buffer

    def test_tuning_charges_clock(self):
        """Exhaustive enumeration finishes in minutes (paper: 'within one
        minute of time' per matmul on a 24-thread CPU)."""
        clock = SimulatedClock()
        tuner = MatmulTuner(RTX3090, clock=clock)
        result = tuner.tune(1024, 1024, 1024)
        assert result.num_candidates >= 160
        assert 0 < result.tuning_seconds < 300
        assert clock.elapsed_seconds == result.tuning_seconds

    def test_prime_sizes_fully_supported(self):
        """Every schedule in the space handles 2039 (Figure 19)."""
        tuner = MatmulTuner(RTX3090)
        r = tuner.tune(2039, 2039, 2039)
        smooth = tuner.tune(2048, 2048, 2048)
        assert r.best_latency <= smooth.best_latency * 1.05

    def test_batch_changes_choice_economics(self):
        tuner = MatmulTuner(RTX3090)
        single = tuner.tune(128, 768, 768, batch=1)
        batched = tuner.tune(128, 768, 768, batch=12)
        assert batched.best_latency > single.best_latency
        assert batched.best_latency < 12 * single.best_latency
