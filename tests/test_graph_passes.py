"""Graph passes: constant folding, conv lowering, fusion partition."""
import numpy as np
import pytest

from repro.graph import from_numpy, ops, symbol, trace
from repro.graph.ops.conv import Conv2dOp, Im2colOp
from repro.graph.ops.matmul import MatmulOp
from repro.graph.passes import (build_group_spec, fold_constants,
                                lower_conv_to_gemm, partition_graph)
from repro.graph.passes.fuse_partition import FusedGroup, _topological_groups

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
        from repro.models import MODEL_BUILDERS
        graph = MODEL_BUILDERS[name](**kwargs)
        _assert_partition_matches_reference(graph)
        _assert_partition_matches_reference(_lowered(graph))
