"""Graph-level IR: tensors, operators, flow graphs, passes, serialization."""
from .tensor import Tensor, symbol, from_numpy, randn
from .operator import Operator
from .flow_graph import FlowGraph, trace
from . import ops

__all__ = ['Tensor', 'symbol', 'from_numpy', 'randn', 'Operator', 'FlowGraph', 'trace', 'ops']
