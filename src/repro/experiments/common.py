"""Shared infrastructure of the paper-reproduction experiments.

Every experiment module produces plain data (lists of rows) plus a
``format_*`` helper that prints the same rows/series the paper reports, so
benchmarks and tests consume the same code path.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..baselines import (Ansor, AutoTVM, ExecutorReport, OnnxRuntimeLike,
                         PyTorchLike, TensorRTLike)
from ..graph.flow_graph import FlowGraph
from ..gpusim.device import DeviceSpec, RTX3090
from ..models import MODEL_BUILDERS
from ..runtime import HidetExecutor, ScheduleCache

__all__ = ['EXECUTOR_ORDER', 'run_executor', 'all_reports', 'geomean',
           'MODEL_BUILDERS', 'hidet_report']

EXECUTOR_ORDER = ('pytorch', 'onnxruntime', 'autotvm', 'ansor', 'hidet')


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if math.isfinite(v) and v > 0]
    if not values:
        return math.nan
    return float(np.exp(np.mean(np.log(values))))


def hidet_report(graph: FlowGraph, device: DeviceSpec = RTX3090,
                 **kwargs) -> ExecutorReport:
    """Compile with the Hidet pipeline and wrap as an ExecutorReport.

    Tuning-cost experiments must measure *cold* compiles, so unless the
    caller passes a ``cache`` explicitly each report uses a private
    ScheduleCache rather than the warm process-wide one (which would make
    reported tuning hours depend on what compiled earlier in the process).
    """
    kwargs.setdefault('cache', ScheduleCache())
    executor = HidetExecutor(device, **kwargs)
    compiled = executor.compile(graph)
    return ExecutorReport(
        executor='hidet', model=graph.name,
        latency=compiled.latency,
        tuning_seconds=compiled.tuning_seconds,
        num_kernels=compiled.num_kernels,
        kernel_latencies=[(n, l) for n, l in compiled.latency_breakdown()])


def run_executor(name: str, graph: FlowGraph,
                 device: DeviceSpec = RTX3090) -> ExecutorReport:
    """Run one executor by name on a graph."""
    if name == 'hidet':
        return hidet_report(graph, device)
    executor = {
        'pytorch': PyTorchLike,
        'onnxruntime': OnnxRuntimeLike,
        'autotvm': AutoTVM,
        'ansor': Ansor,
        'tensorrt': TensorRTLike,
    }[name](device)
    return executor.compile(graph)


def all_reports(graph: FlowGraph, executors: Sequence[str] = EXECUTOR_ORDER,
                device: DeviceSpec = RTX3090) -> dict[str, ExecutorReport]:
    return {name: run_executor(name, graph, device) for name in executors}
