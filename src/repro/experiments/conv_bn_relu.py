"""Figure 21: latency of the Conv2d-BN-ReLU sub-graphs of ResNet-50.

Paper result: Hidet outperforms ONNX Runtime and Ansor on most of the
convolutions because implicit-GEMM convolution + post-scheduling fusion
reuses the matmul template's optimizations — including parallel-k reduction,
which saturates the GPU even when the output grid alone cannot.
"""
from __future__ import annotations

from dataclasses import dataclass

from .common import all_reports
from ..baselines.input_space import ConvWorkload, resnet50_conv_workloads
from ..graph import symbol, trace
from ..models.common import WeightFactory, conv_bn_relu

__all__ = ['run_conv_bn_relu', 'format_conv_bn_relu']


@dataclass
class ConvBnReluRow:
    workload: ConvWorkload
    latencies_us: dict[str, float]

    @property
    def winner(self) -> str:
        return min(self.latencies_us, key=self.latencies_us.get)


def build_conv_bn_relu_graph(w: ConvWorkload):
    wf = WeightFactory(7)
    x = symbol([w.batch, w.in_channels, w.height, w.width], name='x')
    y = conv_bn_relu(wf, x, w.out_channels, kernel=w.kernel, stride=w.stride,
                     padding=w.padding, name='conv')
    return trace(y, name=f'conv_bn_relu_{w.in_channels}_{w.out_channels}')


def run_conv_bn_relu(workloads=None,
                     executors=('onnxruntime', 'ansor', 'hidet')) -> list[ConvBnReluRow]:
    workloads = workloads or resnet50_conv_workloads()
    rows = []
    for w in workloads:
        graph = build_conv_bn_relu_graph(w)
        reports = all_reports(graph, executors=executors)
        rows.append(ConvBnReluRow(
            w, {ex: reports[ex].latency * 1e6 for ex in executors}))
    return rows


def format_conv_bn_relu(rows: list[ConvBnReluRow]) -> str:
    executors = list(rows[0].latencies_us)
    lines = ['Figure 21: Conv2d-BN-ReLU sub-graph latency (us) on ResNet-50 shapes',
             f'{"workload":34s} ' + ' '.join(f'{ex:>12s}' for ex in executors)
             + f' {"winner":>10s}']
    for row in rows:
        cells = ' '.join(f'{row.latencies_us[ex]:12.1f}' for ex in executors)
        lines.append(f'{str(row.workload):34s} {cells} {row.winner:>10s}')
    wins = sum(r.winner == 'hidet' for r in rows)
    lines.append(f'Hidet wins {wins}/{len(rows)} sub-graphs '
                 f'(paper: Hidet outperforms on most convolutions)')
    return '\n'.join(lines)
