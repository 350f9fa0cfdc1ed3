"""GPU simulator substrate: device specs, occupancy, and the latency model."""
from .device import DeviceSpec, RTX3090, A100, LAPTOP_GPU
from .occupancy import (Occupancy, compute_occupancy, occupancy_features,
                        OCCUPANCY_FEATURE_NAMES)
from .stats import KernelStats, LaunchStats, OVERLAP_NONE, OVERLAP_DOUBLE_BUFFER, OVERLAP_MULTI_STAGE
from .perfmodel import PerfModel, ModelParams
from .clock import SimulatedClock, TuningCosts
from .decode import DecodeCostModel, HOST_LINK_BYTES_PER_S

__all__ = [
    'DeviceSpec', 'RTX3090', 'A100', 'LAPTOP_GPU',
    'DecodeCostModel', 'HOST_LINK_BYTES_PER_S',
    'Occupancy', 'compute_occupancy', 'occupancy_features',
    'OCCUPANCY_FEATURE_NAMES',
    'KernelStats', 'LaunchStats', 'OVERLAP_NONE', 'OVERLAP_DOUBLE_BUFFER',
    'OVERLAP_MULTI_STAGE',
    'PerfModel', 'ModelParams',
    'SimulatedClock', 'TuningCosts',
]
