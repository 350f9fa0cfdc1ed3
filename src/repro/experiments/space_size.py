"""Figure 7: sizes of AutoTVM's input-centric schedule spaces for the
convolutions of ResNet-50 (paper: up to 10^8, geometric mean 3.6e6), versus
Hidet's input-size-independent hardware-centric space (~10²).
"""
from __future__ import annotations

from dataclasses import dataclass

from .common import geomean
from ..baselines.input_space import (ConvWorkload, autotvm_conv_space_size,
                                     resnet50_conv_workloads)
from ..sched.space import matmul_schedule_space

__all__ = ['SpaceSizeRow', 'run_space_sizes', 'format_space_sizes']


@dataclass
class SpaceSizeRow:
    workload: ConvWorkload
    autotvm_size: int


def run_space_sizes() -> list[SpaceSizeRow]:
    return [SpaceSizeRow(w, autotvm_conv_space_size(w))
            for w in resnet50_conv_workloads()]


def format_space_sizes(rows: list[SpaceSizeRow]) -> str:
    # weight by layer count: Figure 7 shows one bar per convolution layer (53)
    per_layer = [r.autotvm_size for r in rows for _ in range(r.workload.count)]
    hidet_size = len(matmul_schedule_space())
    lines = ['Figure 7: AutoTVM schedule-space size per ResNet-50 convolution',
             f'{"conv workload":34s} {"layers":>7s} {"space size":>14s}']
    for row in rows:
        lines.append(f'{str(row.workload):34s} {row.workload.count:7d} '
                     f'{row.autotvm_size:14.3e}')
    lines.append(f'{"geometric mean over 53 layers":34s} {"":7s} '
                 f'{geomean(per_layer):14.3e}   (paper: 3.6e6)')
    lines.append(f'{"max":34s} {"":7s} {max(per_layer):14.3e}   (paper: ~1e8)')
    lines.append(f'Hidet hardware-centric space: {hidet_size} schedules '
                 f'for every workload (paper: ~180)')
    return '\n'.join(lines)
