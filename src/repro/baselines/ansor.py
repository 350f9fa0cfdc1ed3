"""Ansor-like baseline (paper §6.2 baseline D).

Sketch-generation + evolutionary search over the same input-centric space.
Relative to AutoTVM:

* sketches cover *all* matmul-like workloads well (no weak transformer
  templates), so Bert/GPT-2 are competitive;
* the evolutionary search converges closer to the space's optimum within 800
  trials;
* a dedicated depthwise-convolution sketch — the reason Ansor beats Hidet on
  MobileNet-V2 (paper Figure 16: 0.88×);
* still no double buffering — the expressiveness ceiling of loop-oriented
  scheduling (§3.1) — so Hidet wins everywhere compute-bound.
"""
from __future__ import annotations

from typing import Sequence

from .loop_tuner import LoopOrientedTuner
from .tiling import TileConfig
from ..gpusim.clock import TuningCosts

__all__ = ['Ansor']


class Ansor(LoopOrientedTuner):
    name = 'ansor'
    trials_per_task = 800
    costs = TuningCosts(compile_seconds=0.55, measure_seconds=0.15)
    # the dedicated depthwise sketch: near-coalesced, cached window reads
    depthwise_coalesce = 0.95
    depthwise_read_factor = 1.5

    def search(self, candidates: Sequence[TileConfig], measure, rng) -> tuple[float, list[float]]:
        """Evolutionary search: random init, then mutate the elite."""
        trials = min(self.trials_per_task, len(candidates))
        population = min(64, trials)
        indices = list(rng.choice(len(candidates), size=population, replace=False))
        sampled: list[float] = []
        scored: list[tuple[float, TileConfig]] = []
        for i in indices:
            latency = measure(candidates[i])
            sampled.append(latency)
            scored.append((latency, candidates[i]))

        candidate_set = set(candidates)
        measured_set = {candidates[i] for i in indices}
        while len(sampled) < trials:
            scored.sort(key=lambda lc: lc[0])
            elites = [c for _, c in scored[:8]]
            child = self._mutate(elites[rng.integers(len(elites))], rng)
            if child is not None and child not in candidate_set:
                child = None   # mutation left the valid (perfect-factor) space
            if child is None or child in measured_set:
                # fall back to a fresh random candidate to keep exploring
                child = candidates[int(rng.integers(len(candidates)))]
                if child in measured_set:
                    continue
            measured_set.add(child)
            latency = measure(child)
            sampled.append(latency)
            scored.append((latency, child))
        return min(sampled), sampled

    def _mutate(self, config: TileConfig, rng) -> TileConfig | None:
        """Perturb one tile dimension to a neighbouring divisor."""
        from dataclasses import replace as dc_replace
        # which knob to mutate and the extent it must divide
        fields = ['bm', 'bn', 'bk', 'tm', 'tn']
        field = fields[int(rng.integers(len(fields)))]
        value = getattr(config, field)
        options = [v for v in (value // 2, value * 2) if v >= 1]
        if not options:
            return None
        new_value = options[int(rng.integers(len(options)))]
        child = dc_replace(config, **{field: new_value})
        # keep it structurally sane
        if child.bm % child.tm != 0 or child.bn % child.tn != 0:
            return None
        if not child.is_launchable(self.device):
            return None
        return child
