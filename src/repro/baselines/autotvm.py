"""AutoTVM-like baseline (paper §6.2 baseline C).

Template-based tuning in the input-centric space with a cost-model-guided
random search (we simulate the XGBoost+SA pipeline with seeded sampling over
the same candidate set — what matters for reproduction is the *space*, the
trial budget, and the missing optimizations, not the regressor).

Two template quirks from the paper:

* the conv2d template space is huge (Figure 7: up to 10⁸ candidates), so
  1000 trials explore a thin slice — the found schedule is good but not
  optimal, and never double-buffered;
* the dense / batch-matmul templates "lack optimizations" (§6.2): no
  register tiling worth the name.  Their space has fewer than 20 schedules,
  tuning takes 2 minutes (Figure 17), and Bert/GPT-2 end up at 27/41 ms
  (Figure 16).
"""
from __future__ import annotations

from typing import Sequence

from .loop_tuner import LoopOrientedTuner
from .tiling import TileConfig, divisors, iter_tile_configs
from ..gpusim.clock import TuningCosts

__all__ = ['AutoTVM']


class AutoTVM(LoopOrientedTuner):
    name = 'autotvm'
    trials_per_task = 1000
    costs = TuningCosts(compile_seconds=1.0, measure_seconds=0.37)
    # AutoTVM's depthwise template is serviceable but unremarkable
    depthwise_coalesce = 0.75
    depthwise_read_factor = 3.0

    def candidate_space(self, m: int, n: int, k: int, kind: str) -> list[TileConfig]:
        if kind in ('dense', 'batch_matmul'):
            # the weak transformer templates: a handful of knob values and no
            # per-thread register tiling ("less than 20 schedules", §6.2)
            def best_divisor(value: int, cap: int) -> int:
                return max(d for d in divisors(value) if d <= cap)

            bm_options = {best_divisor(m, 8), best_divisor(m, 32)}
            bn_options = sorted((d for d in divisors(n) if d <= 128), reverse=True)[:3]
            bk_options = {best_divisor(k, 4), best_divisor(k, 8)}
            space = []
            for bm in sorted(bm_options):
                for bn in bn_options:
                    for bk in sorted(bk_options):
                        config = TileConfig(bm, bn, bk, 1, 1)
                        if config.is_launchable(self.device):
                            space.append(config)
            return space
        return list(iter_tile_configs(m, n, k, self.device))

    def search(self, candidates: Sequence[TileConfig], measure, rng) -> tuple[float, list[float]]:
        """Cost-model-guided random exploration: measure ``trials`` samples."""
        trials = min(self.trials_per_task, len(candidates))
        indices = rng.choice(len(candidates), size=trials, replace=False)
        sampled = [measure(candidates[i]) for i in indices]
        return min(sampled), sampled
