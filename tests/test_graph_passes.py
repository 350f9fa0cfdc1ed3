"""Graph passes: constant folding, conv lowering, fusion partition."""
import copy
import dataclasses
import hashlib

import numpy as np
import pytest

import repro.graph.passes.rewrite as rewrite
import repro.runtime.executor as executor_module
from repro.backend.codegen import generate_cuda_module
from repro.gpusim.device import RTX3090
from repro.graph import from_numpy, ops, symbol, trace
from repro.graph.flow_graph import FlowGraph
from repro.graph.operator import Operator
from repro.graph.ops.conv import Conv2dOp, Im2colOp
from repro.graph.ops.matmul import MatmulOp, matmul
from repro.graph.ops.transforms import reshape, transpose
from repro.graph.passes import (build_group_spec, fold_constants,
                                lower_conv_to_gemm, partition_graph)
from repro.graph.passes.fuse_partition import FusedGroup, _topological_groups
from repro.graph.tensor import Tensor
from repro.ir.compute import (GridCompute, ReduceCompute, TensorNode, compute,
                              reduce, tensor_input)
from repro.ir.expr import Constant, convert, var
from repro.ir.functor import collect
from repro.ir.types import data_type
from repro.models import MODEL_BUILDERS
from repro.runtime import HidetExecutor, ScheduleCache
from repro.runtime.cache import (CACHE_FORMAT_VERSION, _expr_fingerprint,
                                 task_signature)

RNG = np.random.default_rng(0)


def _conv_bn_relu_graph():
    x = symbol([1, 8, 10, 10], name='x')
    w = from_numpy(RNG.standard_normal((16, 8, 3, 3)).astype(np.float32) * 0.1)
    scale = from_numpy(RNG.standard_normal((16, 1, 1)).astype(np.float32))
    shift = from_numpy(RNG.standard_normal((16, 1, 1)).astype(np.float32))
    y = ops.relu(ops.batch_norm(ops.conv2d(x, w, padding=1), scale, shift))
    return trace(y, name='cbr'), x


class TestFoldConstants:
    def test_constant_subtree_evaluated(self):
        a = from_numpy(np.ones((4,), dtype=np.float32))
        b = from_numpy(np.full((4,), 2.0, dtype=np.float32))
        x = symbol([4])
        y = ops.add(x, ops.mul(a, b))
        folded = fold_constants(trace(y))
        assert folded.num_operators == 1          # only the add survives
        got = folded.run(np.zeros(4, dtype=np.float32))[0]
        np.testing.assert_allclose(got, 2.0)

    def test_noop_when_nothing_constant(self):
        x = symbol([4])
        g = trace(ops.relu(x))
        assert fold_constants(g).num_operators == g.num_operators


class TestLowerConv:
    def test_decomposition_structure(self):
        g, _ = _conv_bn_relu_graph()
        lowered = lower_conv_to_gemm(g)
        kinds = [type(op).__name__ for op in lowered.nodes]
        assert 'Conv2dOp' not in kinds
        assert 'Im2colOp' in kinds and 'MatmulOp' in kinds

    def test_functional_equivalence(self):
        g, _ = _conv_bn_relu_graph()
        lowered = fold_constants(lower_conv_to_gemm(g))
        x = RNG.standard_normal((1, 8, 10, 10)).astype(np.float32)
        np.testing.assert_allclose(lowered.run(x)[0], g.run(x)[0],
                                   rtol=1e-4, atol=1e-4)

    def test_depthwise_not_lowered(self):
        x = symbol([1, 8, 10, 10])
        w = from_numpy(np.zeros((8, 1, 3, 3), dtype=np.float32))
        g = trace(ops.conv2d(x, w, padding=1, groups=8))
        lowered = lower_conv_to_gemm(g)
        assert any(isinstance(op, Conv2dOp) for op in lowered.nodes)


class TestPartition:
    def test_conv_bn_relu_collapses_to_one_group(self):
        g, _ = _conv_bn_relu_graph()
        lowered = fold_constants(lower_conv_to_gemm(g))
        groups = partition_graph(lowered)
        assert len(groups) == 1
        (group,) = groups
        assert isinstance(group.anchor, MatmulOp)
        assert any(isinstance(p, Im2colOp) for p in group.prologue_ops)
        # epilogues: reshape, transpose, bn mul, bn add, relu
        assert len(group.epilogue_ops) == 5
        assert group.output.shape == (1, 16, 10, 10)

    def test_every_op_placed_or_duplicated_prologue(self):
        g, _ = _conv_bn_relu_graph()
        lowered = fold_constants(lower_conv_to_gemm(g))
        groups = partition_graph(lowered)
        placed = set()
        for grp in groups:
            placed.update(id(op) for op in grp.members)
        assert all(id(op) in placed for op in lowered.nodes)

    def test_duplication_of_multi_consumer_injective(self):
        """softmax: exp feeds both sum and div; it fuses into both (§4.2)."""
        x = symbol([4, 64])
        g = trace(ops.softmax(x))
        groups = partition_graph(g)
        exp_hosts = [grp for grp in groups
                     if any(op.name == 'exp' for op in grp.prologue_ops)]
        assert len(exp_hosts) == 2
        # exp produces no kernel of its own
        assert not any(grp.anchor.name == 'exp' for grp in groups)

    def test_group_output_respects_graph_outputs(self):
        x = symbol([8])
        mid = ops.relu(x)
        out = ops.exp(mid)
        g = trace([mid, out])            # mid is itself a graph output
        groups = partition_graph(g)
        outputs = {grp.output._id for grp in groups}
        assert mid._id in outputs and out._id in outputs

    def test_reduce_takes_injective_prologue(self):
        x = symbol([4, 128])
        g = trace(ops.reduce_sum(ops.exp(x)))
        groups = partition_graph(g)
        assert len(groups) == 1
        assert groups[0].prologue_ops[0].name == 'exp'

    def test_topological_group_order(self):
        g, _ = _conv_bn_relu_graph()
        y = g.outputs[0]
        lowered = fold_constants(lower_conv_to_gemm(g))
        groups = partition_graph(lowered)
        produced = set()
        for grp in groups:
            for t in grp.input_tensors():
                if t.producer is not None:
                    assert t._id in produced or not any(
                        grp2.contains(t.producer) for grp2 in groups)
            produced.add(grp.output._id)


class TestGroupSpec:
    def test_spec_binding_covers_all_outer_inputs(self):
        g, _ = _conv_bn_relu_graph()
        lowered = fold_constants(lower_conv_to_gemm(g))
        (group,) = partition_graph(lowered)
        spec = build_group_spec(group)
        for ti in spec.spec.outer_inputs():
            assert ti in spec.tensor_of
            assert spec.tensor_of[ti].shape == ti.shape

    def test_spec_names_unique(self):
        g, _ = _conv_bn_relu_graph()
        lowered = fold_constants(lower_conv_to_gemm(g))
        (group,) = partition_graph(lowered)
        spec = build_group_spec(group)
        names = [ti.name for ti in spec.spec.outer_inputs()]
        assert len(names) == len(set(names))


# -- the partition before its reader index, kept as an oracle --------------


def _reference_consumers(graph, tensor):
    """The O(N) ``FlowGraph.consumers`` scan the reader index replaced."""
    return [op for op in graph.nodes if any(t is tensor for t in op.inputs)]


def _reference_input_tensors(group):
    """``FusedGroup.input_tensors`` before its id-set dedup, verbatim."""
    internal = {op.output._id for op in group.members}
    seen = []
    for op in group.members:
        for t in op.inputs:
            if t._id not in internal and all(t is not s for s in seen):
                seen.append(t)
    return seen


def _reference_partition_graph(graph):
    """``partition_graph`` as it was before the reader index and the
    incremental materialized set, verbatim except that it calls the two
    reference helpers above."""
    placed = {}   # anchor/epilogue ownership (exclusive)
    output_ids = {t._id for t in graph.outputs}
    topo_index = {id(op): i for i, op in enumerate(graph.nodes)}
    groups = []

    def absorb_epilogues(group):
        current = group.anchor.output
        while current._id not in output_ids:
            consumers = _reference_consumers(graph, current)
            if len(consumers) != 1:
                break
            consumer = consumers[0]
            if id(consumer) in placed or not consumer.is_injective:
                break
            positions = [i for i, t in enumerate(consumer.inputs) if t is current]
            if len(positions) != 1:
                break
            chain_input = consumer.task.inputs[positions[0]]
            if chain_input not in consumer.task.inverse_maps:
                break
            if any(t is not current and t.producer is not None
                   and group.contains(t.producer)
                   for t in consumer.inputs):
                break
            group.epilogue_ops.append(consumer)
            placed[id(consumer)] = group
            current = consumer.output
        group.output = current

    def absorb_prologues(group):
        frontier = list(group.anchor.inputs)
        while frontier:
            tensor = frontier.pop()
            producer = tensor.producer
            if producer is None or id(producer) in placed:
                continue
            if group.contains(producer) or not producer.is_injective:
                continue
            group.prologue_ops.append(producer)     # duplication allowed
            frontier.extend(producer.inputs)

    # -- phase 1: non-injective anchors (+ epilogue chains) -----------------
    candidates = [op for op in graph.nodes if not op.is_injective]
    candidates.sort(key=lambda op: (-op.anchor_priority, topo_index[id(op)]))
    for op in candidates:
        if id(op) in placed:
            continue
        group = FusedGroup(anchor=op)
        placed[id(op)] = group
        absorb_epilogues(group)
        groups.append(group)

    # -- phase 2: prologue absorption with duplication ----------------------
    for group in groups:
        absorb_prologues(group)

    # -- phase 3: materialize injective ops someone still reads -------------
    def materialized_ids():
        needed = set(output_ids)
        for g in groups:
            needed.update(t._id for t in _reference_input_tensors(g))
        return needed

    unplaced = [op for op in graph.nodes if id(op) not in placed]
    for op in sorted(unplaced, key=lambda o: -topo_index[id(o)]):   # reverse topo
        if id(op) in placed:
            continue
        if op.output._id not in materialized_ids():
            continue
        group = FusedGroup(anchor=op)
        placed[id(op)] = group
        absorb_prologues(group)
        groups.append(group)

    return _topological_groups(groups, placed)


def _same_objects(a, b) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def _assert_partition_matches_reference(graph) -> None:
    got = partition_graph(graph)
    want = _reference_partition_graph(graph)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.anchor is w.anchor
        assert _same_objects(g.prologue_ops, w.prologue_ops)
        assert _same_objects(g.epilogue_ops, w.epilogue_ops)
        assert g.output is w.output
        assert _same_objects(g.input_tensors(), _reference_input_tensors(w))


def _softmax_graph():
    return trace(ops.softmax(symbol([4, 64])))


def _output_mid_graph():
    x = symbol([8])
    mid = ops.relu(x)
    return trace([mid, ops.exp(mid)])


def _reduce_prologue_graph():
    return trace(ops.reduce_sum(ops.exp(symbol([4, 128]))))


def _lowered(graph):
    """The graph the executor partitions."""
    return fold_constants(lower_conv_to_gemm(fold_constants(graph)))


class TestPartitionMatchesReference:
    """The linear-time partition returns the groups the quadratic one did:
    same anchors, prologues, epilogues and outputs, by identity and in
    order."""

    @pytest.mark.parametrize('build', [
        lambda: _conv_bn_relu_graph()[0],
        lambda: _lowered(_conv_bn_relu_graph()[0]),
        _softmax_graph, _output_mid_graph, _reduce_prologue_graph,
    ], ids=['conv_bn_relu', 'conv_bn_relu_lowered', 'softmax',
            'output_mid', 'reduce_prologue'])
    def test_pass_test_graphs(self, build):
        _assert_partition_matches_reference(build())

    @pytest.mark.parametrize('name, kwargs', [
        ('resnet50', {'image_size': 32}),
        ('inception_v3', {'image_size': 75}),
        ('mobilenet_v2', {'image_size': 32}),
        ('bert', {'layers': 2, 'seq_length': 16, 'hidden': 32, 'heads': 2,
                  'vocab_size': 500}),
        ('gpt2', {'layers': 2, 'seq_length': 16, 'hidden': 48, 'heads': 4,
                  'vocab_size': 500}),
    ])
    def test_zoo_models(self, name, kwargs):
        graph = MODEL_BUILDERS[name](**kwargs)
        _assert_partition_matches_reference(graph)
        _assert_partition_matches_reference(_lowered(graph))


# -- the three-walk pass pipeline before the single rewrite walk, kept as an
# -- oracle: fold_constants(lower_conv_to_gemm(fold_constants(g))) ----------

def _reference_clone_operator(op, new_inputs):
    """Clone an operator onto new input tensors (fresh output, fresh task)."""
    clone = copy.copy(op)
    clone.inputs = list(new_inputs)
    clone.__dict__.pop('task', None)       # invalidate the cached task
    shape, dtype = clone.infer_output()
    clone.output = Tensor(shape, dtype, producer=clone, name=op.output.name)
    return clone


def _reference_rewrite_graph(graph, rule, name=None):
    mapping = {}

    def mapped(t):
        return mapping.get(t._id, t)

    for op in graph.nodes:
        new_inputs = [mapped(t) for t in op.inputs]
        replacement = rule(op, new_inputs)
        if replacement is None:
            if all(a is b for a, b in zip(new_inputs, op.inputs)):
                mapping[op.output._id] = op.output
                continue
            replacement = _reference_clone_operator(op, new_inputs).output
        mapping[op.output._id] = replacement

    outputs = [mapped(t) for t in graph.outputs]
    return FlowGraph(outputs, name=name or graph.name)


def _reference_fold_constants(graph):

    def rule(op, inputs):
        if all(t.is_constant for t in inputs):
            return Tensor(op.output.shape, op.output.dtype,
                          compute=lambda: op.run_numpy(*[t.numpy() for t in inputs]),
                          name=f'{op.output.name}_folded')
        return None

    return _reference_rewrite_graph(graph, rule)


def _reference_lower_conv_to_gemm(graph):

    def rule(op, inputs):
        if not isinstance(op, Conv2dOp) or op.attrs['groups'] != 1:
            return None
        x, weight = inputs
        n, c, h, w = x.shape
        oc, _, kh, kw = weight.shape
        _, _, oh, ow = op.output.shape
        stride, padding = op.attrs['stride'], op.attrs['padding']

        cols = Im2colOp(x, (kh, kw), stride, padding, (oh, ow)).output
        # weight [OC, C, KH, KW] -> [C*KH*KW, OC]; constant-folds at import
        w2 = transpose(reshape(weight, [oc, c * kh * kw]), [1, 0])
        mm = matmul(cols, w2)                       # [N*OH*OW, OC]
        out = transpose(reshape(mm, [n, oh, ow, oc]), [0, 3, 1, 2])
        return out

    return _reference_rewrite_graph(graph, rule)


def _reference_pipeline(graph):
    return _reference_fold_constants(
        _reference_lower_conv_to_gemm(_reference_fold_constants(graph)))


def _reference_topological_operators(outputs):
    """The recursive post-order walk ``FlowGraph`` used to run."""
    order, visited = [], set()

    def visit(op):
        if id(op) in visited:
            return
        visited.add(id(op))
        for t in op.inputs:
            if t.producer is not None:
                visit(t.producer)
        order.append(op)

    for t in outputs:
        if t.producer is not None:
            visit(t.producer)
    return order


def _reference_infer_dtype(value):
    for node in collect(value, (TensorNode, Constant)):
        if isinstance(node, TensorNode):
            return node.dtype
    for node in collect(value, Constant):
        return node.dtype
    return data_type('float32')


def _reference_signature_key(task):
    def tensor_key(t):
        return (t.dtype.name, t.shape)

    def attr_value(v):
        if isinstance(v, (tuple, list)):
            return tuple(attr_value(x) for x in v)
        if isinstance(v, (bool, int, float, str)) or v is None:
            return v
        return repr(v)

    attrs = tuple(sorted((k, attr_value(v)) for k, v in task.attrs.items()))
    return (task.name,
            tuple(tensor_key(i) for i in task.inputs),
            tensor_key(task.output),
            attrs)


def _walk(graph):
    """The graph passes the executor runs."""
    return fold_constants(graph, lower_convs=True)


def _tensor_ids(graph) -> dict:
    """Tensor id -> a structural name: (producer's topo index), (graph input
    index) or (constant name, shape)."""
    ids = {t._id: ('input', i) for i, t in enumerate(graph.inputs)}
    for i, op in enumerate(graph.nodes):
        ids[op.output._id] = ('op', i)
    return ids


def _structure(graph) -> list:
    ids = _tensor_ids(graph)

    def tensor(t):
        key = ids.get(t._id) or ('const', t.is_constant)
        return (key, t.name, t.shape, t.dtype.name)

    rows = [('inputs', [tensor(t) for t in graph.inputs]),
            ('outputs', [tensor(t) for t in graph.outputs])]
    for op in graph.nodes:
        rows.append((type(op).__name__, op.name, op.attrs,
                     [tensor(t) for t in op.inputs], tensor(op.output)))
    return rows


def _assert_same_graph(got, want, values: bool = False) -> None:
    assert _structure(got) == _structure(want)
    assert _same_objects(got.nodes, _reference_topological_operators(got.outputs))
    if values:                          # folded constants compute the same
        for g_op, w_op in zip(got.nodes, want.nodes):
            for g, w in zip(g_op.inputs, w_op.inputs):
                if g.is_constant:
                    np.testing.assert_array_equal(g.numpy(), w.numpy())


def _task_view(task) -> tuple:
    return (task.name, [(i.name, i.dtype.name, i.shape) for i in task.inputs],
            task.output.name, task.output.dtype.name, task.signature_key(),
            _expr_fingerprint(task.output.value), task.is_injective,
            sorted(i.name for i in task.inverse_maps))


def _assert_tasks_fresh(graph) -> None:
    """Every task, carried or not, equals the one ``make_task`` builds."""
    for op in graph.nodes:
        task, fresh = op.task, op.make_task()
        assert _task_view(task) == _task_view(fresh), op
        value = task.output.value
        assert task.output.dtype == _reference_infer_dtype(value)
        assert task.output.is_injective == (not collect(value, ReduceCompute))
        assert task.signature_key() == _reference_signature_key(task)


def _renamed_input_graph():
    """add(x, relu(c)): folding renames the add's input relu_out."""
    x = symbol([4], name='x')
    c = from_numpy(np.arange(4, dtype=np.float32) - 2)
    return trace(ops.add(x, ops.relu(c)))


def _symbolic_weight_conv_graph():
    """A conv whose weight is a graph input: its weight chain stays."""
    x = symbol([1, 4, 6, 6], name='x')
    w = symbol([8, 4, 3, 3], name='w')
    return trace(ops.relu(ops.conv2d(x, w, padding=1)))


def _constant_image_conv_graph():
    """A conv of a constant image by a symbolic weight: img2col folds."""
    x = from_numpy(RNG.standard_normal((1, 4, 6, 6)).astype(np.float32))
    w = symbol([8, 4, 3, 3], name='w')
    return trace(ops.conv2d(x, w, padding=1))


def _depthwise_graph():
    x = symbol([1, 8, 10, 10])
    w = from_numpy(np.ones((8, 1, 3, 3), dtype=np.float32))
    return trace(ops.conv2d(x, w, padding=1, groups=8))


def _folding_graph():
    a = from_numpy(np.ones((4,), dtype=np.float32))
    b = from_numpy(np.full((4,), 2.0, dtype=np.float32))
    return trace(ops.add(symbol([4]), ops.mul(a, b)))


_PASS_GRAPHS = {
    'conv_bn_relu': lambda: _conv_bn_relu_graph()[0],
    'folding': _folding_graph,
    'depthwise': _depthwise_graph,
    'softmax': _softmax_graph,
    'output_mid': _output_mid_graph,
    'reduce_prologue': _reduce_prologue_graph,
    'renamed_input': _renamed_input_graph,
    'symbolic_weight_conv': _symbolic_weight_conv_graph,
    'constant_image_conv': _constant_image_conv_graph,
}

_REDUCED_ZOO = {
    'resnet50': {'image_size': 32},
    'inception_v3': {'image_size': 75},
    'mobilenet_v2': {'image_size': 32},
    'bert': {'layers': 2, 'seq_length': 16, 'hidden': 32, 'heads': 2,
             'vocab_size': 500},
    'gpt2': {'layers': 2, 'seq_length': 16, 'hidden': 48, 'heads': 4,
             'vocab_size': 500},
}


def _zoo_graph(name):
    return MODEL_BUILDERS[name](**_REDUCED_ZOO[name])


def _assert_walk_matches_reference(graph, values: bool = False) -> None:
    """One walk gives the three-walk graph, and so does a second walk of
    the same graph, which carries the first walk's tasks."""
    want = _reference_pipeline(graph)
    first = _walk(graph)
    _assert_same_graph(first, want, values)
    _assert_tasks_fresh(first)
    partition_graph(first)
    second = _walk(graph)
    _assert_same_graph(second, want)
    _assert_tasks_fresh(second)
    _assert_same_graph(_walk(second), _reference_pipeline(want))


class TestRewriteWalkMatchesReference:
    """``fold_constants(g, lower_convs=True)`` builds, operator for
    operator, the graph of the three-walk pipeline, with every task (carried
    or built) equal to the operator's own ``make_task()``."""

    @pytest.mark.parametrize('build', list(_PASS_GRAPHS.values()),
                             ids=list(_PASS_GRAPHS))
    def test_pass_test_graphs(self, build):
        _assert_walk_matches_reference(build(), values=True)

    @pytest.mark.parametrize('name', list(_REDUCED_ZOO))
    def test_zoo_models(self, name):
        _assert_walk_matches_reference(_zoo_graph(name))

    def test_topological_order_matches_recursive_walk(self):
        for build in _PASS_GRAPHS.values():
            graph = build()
            assert _same_objects(graph.nodes,
                                 _reference_topological_operators(graph.outputs))
        graph = _zoo_graph('inception_v3')
        assert _same_objects(graph.nodes,
                             _reference_topological_operators(graph.outputs))

    def test_renamed_input_gets_a_fresh_task(self):
        graph = _renamed_input_graph()
        (add,) = [op for op in graph.nodes if op.name == 'add']
        source_task = add.task
        (clone,) = _walk(graph).nodes
        assert clone is not add and clone.task is not source_task
        assert [i.name for i in clone.task.inputs] == ['x', 'relu_out_folded']
        assert [i.name for i in source_task.inputs] == ['x', 'relu_out']
        _assert_tasks_fresh(_walk(graph))

    def test_clone_with_same_input_names_shares_the_task(self):
        g, _ = _conv_bn_relu_graph()
        first = _walk(g)
        second = _walk(g)
        carried = [op for op in second.nodes
                   if op.name == 'relu' and 'task' in vars(op)]
        assert carried, 'the relu clone carries its source task'
        (relu,) = [op for op in g.nodes if op.name == 'relu']
        assert carried[0].task is relu.task
        assert first.nodes[-1].task is relu.task


def _grid_compute_cases():
    a = tensor_input('A', 'float16', [4, 4])
    i = var('i', 'int32')
    shared = a[i, 0] * 2
    return [
        compute('c', [4], lambda j: convert(1.5) + a[j, j]),        # tensor wins
        compute('c', [4], lambda j: convert(3) * 2),                 # constant
        GridCompute('c', [4], [i], i + i),                           # float32
        compute('c', [4], lambda j: reduce([4], lambda k: a[j, k])),
        GridCompute('c', [4], [i], shared + shared),                 # a DAG
    ]


class TestGridComputeScan:
    def test_dtype_and_injectivity_match_the_collect_walks(self):
        cases = _grid_compute_cases()
        assert [c.dtype.name for c in cases] == [
            'float16', 'int32', 'float32', 'float16', 'float16']
        for c in cases:
            assert c.dtype == _reference_infer_dtype(c.value)
            assert c.is_injective == (not collect(c.value, ReduceCompute))
        assert [c.is_injective for c in cases] == [True, True, True, False, True]


def test_task_signature_unchanged():
    """The device key is computed once per device and spells the same
    signature the per-call ``astuple`` did."""
    device = dataclasses.replace(RTX3090, peak_fp32_tflops=36)
    assert device.key == dataclasses.astuple(device) and device.key is device.key
    assert 'key' not in vars(dataclasses.replace(device))
    task = _walk(_conv_bn_relu_graph()[0]).nodes[-1].task
    for dev in (RTX3090, device):
        want = hashlib.sha256(repr(
            (CACHE_FORMAT_VERSION, _reference_signature_key(task),
             dataclasses.astuple(dev), None, ())).encode('utf-8')).hexdigest()
        assert task_signature(task, dev) == want


def _checked_compile(graph, cache) -> tuple:
    compiled = HidetExecutor(cache=cache, build_ir=True,
                             check_ir=True).compile(graph)
    return (compiled.latency_ms, compiled.cache_misses,
            [(op.name, op.kind, generate_cuda_module(op.module))
             for op in compiled.ops])


@pytest.mark.parametrize('name', list(_REDUCED_ZOO))
def test_checked_compile_cuda_matches_reference(name, monkeypatch):
    """A checked compile generates the CUDA of the three-walk pipeline, and
    finds every schedule the three-walk compile stored (same signatures),
    on a first compile and on a recompile that carries its tasks.  (Both
    compile one graph object: an unnamed constant is named after a
    process-wide tensor count, so a second build of the model names it
    differently.)"""
    graph, cache = _zoo_graph(name), ScheduleCache()
    with monkeypatch.context() as patch:
        patch.setattr(executor_module, 'fold_constants',
                      lambda g, lower_convs=False: _reference_pipeline(g))
        latency, misses, cuda = _checked_compile(graph, cache)
    assert misses > 0
    for _ in range(2):
        assert _checked_compile(graph, cache) == (latency, 0, cuda)


def _operator_classes():
    out, todo = [], [Operator]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


@pytest.mark.parametrize('name', ['resnet50', 'bert'])
def test_compile_work_counts(name, monkeypatch):
    """A compile clones each operator at most once, and a recompile builds
    no task for an operator whose task it carries."""
    clones, built = [], []
    clone_operator = rewrite.clone_operator

    def counted_clone(op, new_inputs):
        clone = clone_operator(op, new_inputs)
        clones.append((op, clone))
        return clone

    def recorded(make_task):
        def wrapper(self):
            built.append(self)
            return make_task(self)
        return wrapper

    monkeypatch.setattr(rewrite, 'clone_operator', counted_clone)
    for cls in _operator_classes():
        if 'make_task' in vars(cls):
            monkeypatch.setattr(cls, 'make_task', recorded(vars(cls)['make_task']))

    graph = _zoo_graph(name)
    source_ids = {id(op) for op in graph.nodes}
    executor = HidetExecutor(cache=ScheduleCache())
    counts = []
    for _ in range(2):
        clones.clear()
        built.clear()
        executor.compile(graph)
        sources = [id(source) for source, _ in clones]
        assert len(sources) == len(set(sources))
        assert set(sources) <= source_ids
        counts.append(len(built))
    built_ids = {id(op) for op in built}
    carried = {id(clone) for source, clone in clones
               if vars(clone).get('task') is vars(source).get('task')}
    assert carried
    assert not built_ids & carried
    assert not built_ids & source_ids
    for source, clone in clones:        # a rebuilt clone had an input renamed
        if id(clone) in built_ids:
            assert ([t.name for t in clone.inputs]
                    != [t.name for t in source.inputs])
    assert counts[1] < counts[0]
