"""Request traces for the serving simulator.

A trace is a time-ordered list of :class:`Request`\\ s.  Generators are
seeded and fully deterministic: Poisson arrivals model steady load from many
independent users; the bursty generator modulates a Poisson process with an
on/off duty cycle (square-wave bursts); the diurnal generator modulates it
with a smooth sinusoid (the daily traffic swell that autoscalers are built
for).  Sizes are samples per request — a request carrying ``size`` samples
occupies ``size`` slots of whatever batch bucket serves it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

__all__ = ['Request', 'poisson_trace', 'bursty_trace', 'diurnal_trace',
           'decode_trace', 'merge_traces']


@dataclass(frozen=True)
class Request:
    """One inference request: ``size`` samples for ``model`` at ``arrival``.

    Decoder requests additionally carry token counts: ``prompt_tokens`` is
    the prompt the prefill pass consumes, ``output_tokens`` the sampled
    number of tokens the request will decode before emitting EOS (the
    simulator treats it as ground truth, the way a replayed production
    trace would).  Both stay 0 for whole-request (non-decode) traffic.
    """

    req_id: int
    model: str
    size: int                    # samples in this request (>= 1)
    arrival: float               # seconds since trace start
    prompt_tokens: int = 0       # decode traffic: prompt length (tokens)
    output_tokens: int = 0       # decode traffic: sampled generation length

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f'request size must be >= 1, got {self.size}')
        if self.arrival < 0:
            raise ValueError('request arrival must be non-negative')
        if self.prompt_tokens < 0 or self.output_tokens < 0:
            raise ValueError('token counts must be non-negative')
        if self.output_tokens > 0 and self.prompt_tokens < 1:
            raise ValueError('a decode request needs at least one prompt '
                             'token to prefill from')


ModelWeights = Union[Sequence[str], Mapping[str, float]]


def _model_sampler(models: ModelWeights):
    if isinstance(models, Mapping):
        names = list(models)
        weights = np.asarray([models[n] for n in names], dtype=float)
        probs = weights / weights.sum()
    else:
        names = list(models)
        probs = None
    if not names:
        raise ValueError('need at least one model name')
    return names, probs


def poisson_trace(qps: float, num_requests: int, models: ModelWeights,
                  seed: int = 0, sizes: Sequence[int] = (1,),
                  start: float = 0.0) -> list[Request]:
    """Poisson arrivals at ``qps`` requests/second across ``models``.

    ``models`` is a sequence (uniform mix) or a ``{name: weight}`` mapping;
    ``sizes`` are the per-request sample counts to draw from uniformly.
    """
    if qps <= 0:
        raise ValueError('qps must be positive')
    rng = np.random.default_rng(seed)
    names, probs = _model_sampler(models)
    inter = rng.exponential(1.0 / qps, size=num_requests)
    arrivals = start + np.cumsum(inter)
    chosen = rng.choice(len(names), size=num_requests, p=probs)
    chosen_sizes = rng.choice(list(sizes), size=num_requests)
    return [Request(req_id=i, model=names[chosen[i]],
                    size=int(chosen_sizes[i]), arrival=float(arrivals[i]))
            for i in range(num_requests)]


def bursty_trace(burst_qps: float, idle_qps: float, num_requests: int,
                 models: ModelWeights, burst_seconds: float = 0.05,
                 idle_seconds: float = 0.05, seed: int = 0,
                 sizes: Sequence[int] = (1,)) -> list[Request]:
    """On/off modulated Poisson arrivals: bursts at ``burst_qps``, troughs at
    ``idle_qps`` (may be 0), alternating with the given phase lengths."""
    if burst_qps <= 0:
        raise ValueError('burst_qps must be positive')
    if idle_qps < 0:
        raise ValueError('idle_qps must be non-negative')
    if burst_seconds <= 0:
        # zero-length bursts with a silent trough would generate nothing
        raise ValueError('burst_seconds must be positive')
    if idle_seconds < 0:
        raise ValueError('idle_seconds must be non-negative')
    rng = np.random.default_rng(seed)
    names, probs = _model_sampler(models)
    requests: list[Request] = []
    t, phase_end, in_burst = 0.0, burst_seconds, True
    while len(requests) < num_requests:
        rate = burst_qps if in_burst else idle_qps
        if rate == 0.0:
            t = phase_end
            in_burst = not in_burst
            phase_end = t + (burst_seconds if in_burst else idle_seconds)
            continue
        t += float(rng.exponential(1.0 / rate))
        if t >= phase_end:
            t = phase_end
            in_burst = not in_burst
            phase_end = t + (burst_seconds if in_burst else idle_seconds)
            continue
        requests.append(Request(
            req_id=len(requests),
            model=names[int(rng.choice(len(names), p=probs))],
            size=int(rng.choice(list(sizes))),
            arrival=t))
    return requests


def diurnal_trace(base_qps: float, peak_qps: float, period: float,
                  duration: float, models: ModelWeights, seed: int = 0,
                  sizes: Sequence[int] = (1,)) -> list[Request]:
    """Sinusoidally modulated Poisson arrivals over ``duration`` seconds.

    The instantaneous rate swells from ``base_qps`` (the trough, at multiples
    of ``period``) to ``peak_qps`` (the crest, at odd half-periods)::

        rate(t) = base_qps + (peak_qps - base_qps) * (1 - cos(2*pi*t/period)) / 2

    — a compressed day of traffic, the shape the fleet autoscaler is sized
    against.  Arrivals are drawn by thinning a ``peak_qps`` Poisson process
    (Lewis–Shedler), so the trace is exact for the time-varying rate and
    fully determined by ``seed``.  ``models`` and ``sizes`` behave as in
    :func:`poisson_trace`.
    """
    if not 0 < base_qps <= peak_qps:
        raise ValueError('need 0 < base_qps <= peak_qps')
    if period <= 0 or duration <= 0:
        raise ValueError('period and duration must be positive')
    rng = np.random.default_rng(seed)
    names, probs = _model_sampler(models)
    requests: list[Request] = []
    swing = peak_qps - base_qps
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak_qps))
        if t >= duration:
            break
        rate = base_qps + swing * (1.0 - math.cos(2.0 * math.pi * t / period)) / 2.0
        if float(rng.random()) * peak_qps > rate:
            continue                     # thinned: crest keeps ~all, trough few
        requests.append(Request(
            req_id=len(requests),
            model=names[int(rng.choice(len(names), p=probs))],
            size=int(rng.choice(list(sizes))),
            arrival=t))
    return requests


def decode_trace(qps: float, num_requests: int, model: str = 'gpt2',
                 seed: int = 0, prompt_tokens: tuple[int, int] = (8, 64),
                 mean_output_tokens: float = 32.0,
                 max_output_tokens: int = 128,
                 start: float = 0.0) -> list[Request]:
    """Poisson arrivals of autoregressive decode requests for ``model``.

    Prompt lengths are uniform over the inclusive ``prompt_tokens`` range.
    Output lengths are sampled from a geometric distribution with the given
    mean, clipped to ``[1, max_output_tokens]`` — the memoryless "will the
    next token be EOS?" model, which yields exactly the mixed-length traffic
    (many short answers, a heavy tail of long generations) that
    request-level batching handles worst: short requests pinned in a batch
    until its longest member finishes.  Fully determined by ``seed``.
    """
    if qps <= 0:
        raise ValueError('qps must be positive')
    lo, hi = int(prompt_tokens[0]), int(prompt_tokens[1])
    if not 1 <= lo <= hi:
        raise ValueError(f'need 1 <= prompt lo <= hi, got {prompt_tokens}')
    if mean_output_tokens < 1:
        raise ValueError('mean_output_tokens must be >= 1')
    if max_output_tokens < 1:
        raise ValueError('max_output_tokens must be >= 1')
    rng = np.random.default_rng(seed)
    inter = rng.exponential(1.0 / qps, size=num_requests)
    arrivals = start + np.cumsum(inter)
    prompts = rng.integers(lo, hi + 1, size=num_requests)
    outputs = np.clip(rng.geometric(1.0 / mean_output_tokens,
                                    size=num_requests),
                      1, max_output_tokens)
    return [Request(req_id=i, model=model, size=1,
                    arrival=float(arrivals[i]),
                    prompt_tokens=int(prompts[i]),
                    output_tokens=int(outputs[i]))
            for i in range(num_requests)]


def merge_traces(*traces: Sequence[Request]) -> list[Request]:
    """Interleave traces by arrival time, renumbering request ids."""
    merged = sorted((r for t in traces for r in t), key=lambda r: r.arrival)
    return [Request(req_id=i, model=r.model, size=r.size, arrival=r.arrival,
                    prompt_tokens=r.prompt_tokens,
                    output_tokens=r.output_tokens)
            for i, r in enumerate(merged)]
