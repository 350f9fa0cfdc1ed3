"""ONNX-like model serialization (paper Figure 10 step 1: "Import models").

Hidet imports models from PyTorch or ONNX files; we reproduce the exchange
step with a JSON-based format: operators are recorded by name + attributes +
input references, constants carry base64-encoded raw data.  ``save`` /
``load`` round-trip any :class:`FlowGraph` built from the operator zoo.
"""
from __future__ import annotations

import base64
import json
from typing import Callable

import numpy as np

from .flow_graph import FlowGraph
from .tensor import Tensor
from . import ops as _ops
from .ops.conv import Im2colOp
from .ops.pool import Pool2dOp
from .ops.reduce import ReduceLastAxisOp

__all__ = ['save_graph', 'load_graph', 'graph_to_dict', 'graph_from_dict']

FORMAT_VERSION = 1

#: op-kind name -> builder(inputs, attrs) -> output Tensor
_BUILDERS: dict[str, Callable] = {
    'add': lambda ins, a: _ops.add(*ins),
    'sub': lambda ins, a: _ops.sub(*ins),
    'mul': lambda ins, a: _ops.mul(*ins),
    'div': lambda ins, a: _ops.div(*ins),
    'relu': lambda ins, a: _ops.relu(ins[0]),
    'clip': lambda ins, a: _ops.clip(ins[0], a['low'], a['high']),
    'exp': lambda ins, a: _ops.exp(ins[0]),
    'sqrt': lambda ins, a: _ops.sqrt(ins[0]),
    'rsqrt': lambda ins, a: _ops.rsqrt(ins[0]),
    'erf': lambda ins, a: _ops.erf(ins[0]),
    'tanh': lambda ins, a: _ops.tanh(ins[0]),
    'sigmoid': lambda ins, a: _ops.sigmoid(ins[0]),
    'gelu': lambda ins, a: _ops.gelu(ins[0]),
    'neg': lambda ins, a: _ops.negate(ins[0]),
    'matmul': lambda ins, a: _ops.matmul(*ins),
    'batch_matmul': lambda ins, a: _ops.batch_matmul(*ins),
    'conv2d': lambda ins, a: _ops.conv2d(ins[0], ins[1], a['stride'],
                                         tuple(a['padding']), a['groups']),
    'img2col': lambda ins, a: Im2colOp(ins[0], tuple(a['kernel']), a['stride'],
                                       tuple(a['padding']), tuple(a['out_hw'])).output,
    'reshape': lambda ins, a: _ops.reshape(ins[0], a['shape']),
    'transpose': lambda ins, a: _ops.transpose(ins[0], a['perm']),
    'concat': lambda ins, a: _ops.concat(ins, a['axis']),
    'pad': lambda ins, a: _ops.pad(ins[0], tuple(a['padding']), a['value']),
    'max_pool2d': lambda ins, a: _ops.max_pool2d(ins[0], a['kernel'], a['stride'], a['padding']),
    'avg_pool2d': lambda ins, a: _ops.avg_pool2d(ins[0], a['kernel'], a['stride'], a['padding']),
    'global_avg_pool': lambda ins, a: _ops.global_avg_pool(ins[0]),
    'reduce_sum': lambda ins, a: _ops.reduce_sum(ins[0], a['keepdims']),
    'reduce_avg': lambda ins, a: _ops.reduce_mean(ins[0], a['keepdims']),
    'reduce_max': lambda ins, a: _ops.reduce_max(ins[0], a['keepdims']),
    'embedding': lambda ins, a: _ops.embedding(*ins),
}


def _op_kind(op) -> str:
    if isinstance(op, Pool2dOp):
        return f"{op.attrs['kind']}_pool2d"
    if isinstance(op, ReduceLastAxisOp):
        return f"reduce_{op.attrs['kind']}"
    return op.name.split('_out')[0] if op.name not in _BUILDERS else op.name


def _encode_attrs(op) -> dict:
    attrs = {}
    for key, value in op.attrs.items():
        if isinstance(value, tuple):
            value = list(value)
        attrs[key] = value
    return attrs


def graph_to_dict(graph: FlowGraph) -> dict:
    tensors: dict[int, dict] = {}
    tensor_order: list[int] = []

    def register(t: Tensor) -> int:
        if t._id not in tensors:
            entry = {'name': t.name, 'shape': list(t.shape), 'dtype': t.dtype.name}
            if t.is_constant:
                entry['data'] = base64.b64encode(
                    np.ascontiguousarray(t.numpy()).tobytes()).decode('ascii')
            tensors[t._id] = entry
            tensor_order.append(t._id)
        return tensor_order.index(t._id)

    for t in graph.inputs:
        register(t)

    nodes = []
    for op in graph.nodes:
        kind = op.name
        if kind not in _BUILDERS:
            raise ValueError(f'operator kind {kind!r} is not serializable')
        node = {
            'kind': kind,
            'inputs': [register(t) for t in op.inputs],
            'output': register(op.output),
            'attrs': _encode_attrs(op),
        }
        nodes.append(node)

    return {
        'format_version': FORMAT_VERSION,
        'name': graph.name,
        'tensors': [tensors[tid] for tid in tensor_order],
        'inputs': [tensor_order.index(t._id) for t in graph.inputs],
        'outputs': [tensor_order.index(t._id) for t in graph.outputs],
        'nodes': nodes,
    }


def graph_from_dict(data: dict) -> FlowGraph:
    if data.get('format_version') != FORMAT_VERSION:
        raise ValueError(f'unsupported format version {data.get("format_version")}')
    values: list[Tensor | None] = []
    for entry in data['tensors']:
        if 'data' in entry:
            dtype = np.dtype(entry['dtype'])
            raw = base64.b64decode(entry['data'])
            array = np.frombuffer(raw, dtype=dtype).reshape(entry['shape']).copy()
            values.append(Tensor(entry['shape'], entry['dtype'], data=array,
                                 name=entry['name']))
        else:
            values.append(None)   # filled by inputs or node outputs

    from .tensor import symbol
    for idx in data['inputs']:
        entry = data['tensors'][idx]
        values[idx] = symbol(entry['shape'], entry['dtype'], name=entry['name'])

    for node in data['nodes']:
        builder = _BUILDERS[node['kind']]
        ins = [values[i] for i in node['inputs']]
        if any(t is None for t in ins):
            raise ValueError(f'node {node["kind"]!r} consumes an undefined tensor')
        values[node['output']] = builder(ins, node['attrs'])

    outputs = [values[i] for i in data['outputs']]
    inputs = [values[i] for i in data['inputs']]
    return FlowGraph(outputs, inputs=inputs, name=data.get('name', 'graph'))


def save_graph(graph: FlowGraph, path: str) -> None:
    """Serialize a flow graph to a JSON file (ONNX-like exchange)."""
    with open(path, 'w') as f:
        json.dump(graph_to_dict(graph), f)


def load_graph(path: str) -> FlowGraph:
    """Load a flow graph from :func:`save_graph` output."""
    with open(path) as f:
        return graph_from_dict(json.load(f))
