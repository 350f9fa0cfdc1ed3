"""Input-centric schedule-space accounting (paper §3.3, Figure 7).

AutoTVM's GPU conv2d template splits the output channel, height, and width
loops into 4 levels each and the reduction loops (input channel, kernel
height/width) into 2-3 levels, then adds unrolling knobs.  Every level must
be a perfect factor, so the space size is a product of ordered-factorization
counts — a quantity that explodes with the divisor structure of the input
shape and collapses for primes.
"""
from __future__ import annotations

from dataclasses import dataclass

from .tiling import factor_splits_count

__all__ = ['ConvWorkload', 'autotvm_conv_space_size', 'resnet50_conv_workloads']


@dataclass(frozen=True)
class ConvWorkload:
    """One convolution workload (the x-axis entries of Figure 7).

    ``count`` is how many layers of the network share this workload: Figure 7
    has one bar per convolution *layer* (53 for ResNet-50), and repeated
    late-stage 1x1 convolutions dominate the geometric mean.
    """

    batch: int
    in_channels: int
    height: int
    width: int
    out_channels: int
    kernel: int
    stride: int
    padding: int
    groups: int = 1
    count: int = 1

    @property
    def out_height(self) -> int:
        return (self.height + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def out_width(self) -> int:
        return (self.width + 2 * self.padding - self.kernel) // self.stride + 1

    def __str__(self) -> str:
        return (f'C{self.in_channels}->{self.out_channels} '
                f'{self.height}x{self.width} k{self.kernel} s{self.stride}')


def autotvm_conv_space_size(w: ConvWorkload) -> int:
    """Size of AutoTVM's direct-conv2d template space for a workload.

    Knobs: tile_f/tile_y/tile_x (4-level splits of OC/OH/OW), tile_rc
    (2-level split of IC), tile_ry/tile_rx (2-level splits of KH/KW),
    ``auto_unroll_max_step`` (2 options) and ``unroll_explicit`` (2).
    Calibrated against Figure 7: geometric mean ≈ 3.6e6, max ≈ 1e8.
    """
    size = factor_splits_count(w.out_channels, 4)
    size *= factor_splits_count(w.out_height, 4)
    size *= factor_splits_count(w.out_width, 4)
    size *= factor_splits_count(w.in_channels // w.groups, 2)
    size *= factor_splits_count(w.kernel, 2) ** 2
    size *= 2 * 2
    return size


#: the distinct convolution workloads of ResNet-50 at batch 1 (stem + the
#: unique (in, out, size, kernel, stride) combinations of the four stages)
_RESNET50_CONVS = [
    ConvWorkload(1, 3, 224, 224, 64, 7, 2, 3, count=1),
    # stage 1 (56x56), 3 bottleneck blocks
    ConvWorkload(1, 64, 56, 56, 64, 1, 1, 0, count=1),
    ConvWorkload(1, 64, 56, 56, 64, 3, 1, 1, count=3),
    ConvWorkload(1, 64, 56, 56, 256, 1, 1, 0, count=4),   # 3 expands + downsample
    ConvWorkload(1, 256, 56, 56, 64, 1, 1, 0, count=2),
    # stage 2 (28x28), 4 blocks
    ConvWorkload(1, 256, 56, 56, 128, 1, 1, 0, count=1),
    ConvWorkload(1, 128, 56, 56, 128, 3, 2, 1, count=1),
    ConvWorkload(1, 128, 28, 28, 512, 1, 1, 0, count=4),
    ConvWorkload(1, 256, 56, 56, 512, 1, 2, 0, count=1),
    ConvWorkload(1, 512, 28, 28, 128, 1, 1, 0, count=3),
    ConvWorkload(1, 128, 28, 28, 128, 3, 1, 1, count=3),
    # stage 3 (14x14), 6 blocks
    ConvWorkload(1, 512, 28, 28, 256, 1, 1, 0, count=1),
    ConvWorkload(1, 256, 28, 28, 256, 3, 2, 1, count=1),
    ConvWorkload(1, 256, 14, 14, 1024, 1, 1, 0, count=6),
    ConvWorkload(1, 512, 28, 28, 1024, 1, 2, 0, count=1),
    ConvWorkload(1, 1024, 14, 14, 256, 1, 1, 0, count=5),
    ConvWorkload(1, 256, 14, 14, 256, 3, 1, 1, count=5),
    # stage 4 (7x7), 3 blocks
    ConvWorkload(1, 1024, 14, 14, 512, 1, 1, 0, count=1),
    ConvWorkload(1, 512, 14, 14, 512, 3, 2, 1, count=1),
    ConvWorkload(1, 512, 7, 7, 2048, 1, 1, 0, count=3),
    ConvWorkload(1, 1024, 14, 14, 2048, 1, 2, 0, count=1),
    ConvWorkload(1, 2048, 7, 7, 512, 1, 1, 0, count=2),
    ConvWorkload(1, 512, 7, 7, 512, 3, 1, 1, count=2),
]


def resnet50_conv_workloads(batch_size: int = 1) -> list[ConvWorkload]:
    """The unique convolution workloads of ResNet-50."""
    from dataclasses import replace
    return [replace(w, batch=batch_size) for w in _RESNET50_CONVS]

