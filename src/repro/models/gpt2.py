"""GPT-2 124M (Radford et al., 2019): 12-layer pre-norm causal transformer.

Sequence length 128 (the paper's setting).  Causal masking is a constant
additive mask folded into the attention scores; the language-model head
(tied-embedding projection to the vocabulary) is included, as the paper
benchmarks GPT-2 as a sequence-to-sequence generator.
"""
from __future__ import annotations

import numpy as np

from ..graph import FlowGraph, from_numpy, ops, symbol, trace
from .bert import transformer_encoder_layer
from .common import WeightFactory

__all__ = ['gpt2', 'gpt2_kv_bytes_per_token']


def gpt2_kv_bytes_per_token(hidden: int = 768, layers: int = 12,
                            dtype_bytes: int = 4) -> int:
    """KV-cache bytes one decoded token pins across all layers.

    Every transformer layer caches one key and one value vector of width
    ``hidden`` per token, so the bill is ``2 * layers * hidden *
    dtype_bytes`` — the per-token rate the serving KV ledger charges.
    Defaults match :func:`gpt2`'s 124M configuration at fp32.
    """
    if hidden < 1 or layers < 1 or dtype_bytes < 1:
        raise ValueError('hidden, layers and dtype_bytes must all be >= 1')
    return 2 * layers * hidden * dtype_bytes


def gpt2(seq_length: int = 128, hidden: int = 768, layers: int = 12,
         heads: int = 12, vocab_size: int = 50257, lm_head: bool = True,
         seed: int = 124, batch_size: int = 1) -> FlowGraph:
    """Build the GPT-2 (124M) graph: token ids -> logits (or hidden states).

    ``batch_size > 1`` stacks independent sequences (ids ``[batch*seq]``,
    activations ``[batch*seq, hidden]``); the ``[seq, seq]`` causal mask
    broadcasts across the batched attention heads.
    """
    wf = WeightFactory(seed)
    ids = symbol([batch_size * seq_length], dtype='int32', name='input_ids')
    token_table = wf.matrix(vocab_size, hidden, name='wte')
    pos_table = wf.matrix(seq_length, hidden, name='wpe')
    pos_ids = from_numpy(np.tile(np.arange(seq_length, dtype=np.int32), batch_size),
                         name='positions')
    x = ops.add(ops.embedding(token_table, ids), ops.embedding(pos_table, pos_ids))

    causal = np.triu(np.full((seq_length, seq_length), -1e9, dtype=np.float32), k=1)
    mask = from_numpy(causal, name='causal_mask')

    for layer in range(layers):
        x = transformer_encoder_layer(wf, x, hidden, heads, 4 * hidden,
                                      name=f'h{layer}', causal_mask=mask,
                                      pre_norm=True, batch=batch_size)
    gamma = wf.vector(hidden, name='ln_f_g', scale=0.02)
    beta = wf.vector(hidden, name='ln_f_b', scale=0.02)
    one = from_numpy(np.ones((hidden,), dtype=np.float32), name='ln_f_one')
    x = ops.layer_norm(x, ops.add(one, gamma), beta)
    if lm_head:
        x = ops.matmul(x, ops.transpose(token_table, [1, 0]))
    suffix = '' if batch_size == 1 else f'_b{batch_size}'
    return trace(x, name=f'gpt2_s{seq_length}{suffix}')
