"""Compiled artifacts: per-group kernels and whole-graph executables."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..graph.flow_graph import FlowGraph
from ..graph.passes.fuse_partition import FusedGroup
from ..gpusim.device import DeviceSpec
from ..gpusim.stats import KernelStats
from ..ir.func import IRModule

__all__ = ['CompiledOp', 'CompiledGraph', 'CompileReport']


@dataclass(frozen=True)
class CompileReport:
    """Compile-*time* accounting, separated from serve-time performance.

    Everything here is a one-off cost paid when the graph is compiled
    (simulated tuning seconds, schedule-cache traffic); the serve-time side
    (modeled latency, kernel counts) lives on :class:`CompiledGraph` itself.
    The serving simulator uses this split to report cold-start cost
    amortized over the requests a deployment actually served.
    """

    #: simulated seconds of tuning work charged during this compile
    tuning_seconds: float = 0.0
    #: schedule-cache lookups that hit an exact record (zero tuning time)
    cache_hits: int = 0
    #: lookups that missed and paid for tuning (or a transfer validation)
    cache_misses: int = 0
    #: exact misses whose size-family was already compiled at another batch
    #: size, re-tuned for the measurement cost only (§4.3 size independence)
    transfer_hits: int = 0
    #: exact misses served by adopting a launch-compatible foreign device's
    #: schedule — validated against the local DeviceSpec and re-measured at
    #: one compile + one measurement (the cross-device transfer tier)
    device_transfer_hits: int = 0
    #: candidate measurements the matmul tuner charged during this compile
    #: (the denominator games of Figure 17: a learned cost model shrinks
    #: this without touching cache_hits)
    measurements: int = 0
    #: matmul problems actually tuned (tuner-cache hits excluded)
    tuned_tasks: int = 0
    #: tuned problems where a calibrated cost model pruned the measurement
    #: set to its predicted top-k
    ranked_tasks: int = 0
    #: tuned problems where the cost-model shortcut fell back to full
    #: measurement (underfit model, or the calibration gate tripped)
    cost_model_fallbacks: int = 0

    @property
    def measurements_per_task(self) -> float:
        """Mean measurements per tuned problem (0.0 when nothing tuned)."""
        return self.measurements / self.tuned_tasks if self.tuned_tasks else 0.0


@dataclass
class CompiledOp:
    """One fused group compiled to kernels, with modeled latency.

    Functional execution uses the member operators' numpy references (the
    kernels themselves are validated against the interpreter in the test
    suite on small shapes; re-interpreting every kernel at model scale would
    be pointlessly slow).
    """

    name: str
    group: FusedGroup
    kind: str                       # 'matmul_template' | 'reduce_template' | 'rule_based'
    stats: list[KernelStats]
    latency: float                  # modeled seconds for all kernels of the op
    module: Optional[IRModule] = None
    schedule: object = None
    num_kernels: int = 1

    def run_numpy(self, values: dict[int, np.ndarray]) -> np.ndarray:
        """Execute the group's semantics; reads/writes the tensor-value table."""
        members = sorted(self.group.members, key=lambda op: op.output._id)

        def value_of(t):
            if t._id in values:
                return values[t._id]
            if t.is_constant:
                return t.numpy()
            raise RuntimeError(f'tensor {t.name!r} unavailable when running {self.name!r}')

        for op in members:
            values[op.output._id] = op.run_numpy(*[value_of(t) for t in op.inputs])
        return values[self.group.output._id]


@dataclass
class CompiledGraph:
    """A fully compiled model: ordered compiled ops + accounting."""

    graph: FlowGraph
    ops: list[CompiledOp]
    device: DeviceSpec
    #: compile-time accounting (tuning seconds, cache traffic) — one-off
    #: costs, kept separate from the serve-time latency model below
    compile_report: CompileReport = field(default_factory=CompileReport)
    #: executor dispatch overhead per kernel launch (framework-dependent);
    #: compiled executors submit pre-built launch graphs, so this is small
    dispatch_overhead: float = 0.5e-6
    name: str = 'compiled_graph'

    # -- compile-time accounting ---------------------------------------------

    @property
    def tuning_seconds(self) -> float:
        # the benchmark harness in perfbench/ reads this name
        return self.compile_report.tuning_seconds

    # -- performance ----------------------------------------------------------

    @property
    def num_kernels(self) -> int:
        return sum(op.num_kernels for op in self.ops)

    @property
    def latency(self) -> float:
        """End-to-end modeled latency in seconds."""
        return sum(op.latency for op in self.ops) + self.num_kernels * self.dispatch_overhead

    @property
    def latency_ms(self) -> float:
        return self.latency * 1e3

    def latency_breakdown(self) -> list[tuple[str, float]]:
        """Per-op (name, seconds) pairs, slowest first."""
        return sorted(((op.name, op.latency) for op in self.ops),
                      key=lambda kv: -kv[1])

    # -- functional execution ---------------------------------------------------

    def run(self, *args: np.ndarray) -> list[np.ndarray]:
        if len(args) != len(self.graph.inputs):
            raise ValueError(f'{self.name} takes {len(self.graph.inputs)} inputs, '
                             f'got {len(args)}')
        values: dict[int, np.ndarray] = {}
        for tensor, array in zip(self.graph.inputs, args):
            values[tensor._id] = np.ascontiguousarray(array, dtype=tensor.dtype.np_dtype)
        for op in self.ops:
            op.run_numpy(values)

        def value_of(t):
            if t._id in values:
                return values[t._id]
            if t.is_constant:
                return t.numpy()
            raise RuntimeError(f'output tensor {t.name!r} was never produced')

        return [value_of(t) for t in self.graph.outputs]

    def summary(self) -> str:
        lines = [f'CompiledGraph({self.name}): {len(self.ops)} fused ops, '
                 f'{self.num_kernels} kernels, latency {self.latency_ms:.3f} ms, '
                 f'schedule cache {self.compile_report.cache_hits} hits / '
                 f'{self.compile_report.cache_misses} misses']
        for op in self.ops:
            lines.append(f'  [{op.kind:16s}] {op.name:40s} {op.latency * 1e6:9.1f} us')
        return '\n'.join(lines)
