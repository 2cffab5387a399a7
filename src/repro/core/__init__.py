"""SM/GPU timing model, occupancy, and the techniques studied."""

from .gpu import GPU
from .occupancy import Occupancy, compute_occupancy
from .sm import SM, SimulationError
from .techniques import (
    ALL_HIT,
    BASELINE,
    CARS,
    CARS_HIGH,
    CARS_LOW,
    IDEAL_VW,
    L1_HUGE,
    LTO,
    BaselineContext,
    CarsContext,
    LaunchContext,
    Technique,
    cars_nxlow,
    swl,
)
from .uop import Uop, UopKind
from .warp import WarpCtx

__all__ = [
    "GPU",
    "Occupancy",
    "compute_occupancy",
    "SM",
    "SimulationError",
    "Technique",
    "LaunchContext",
    "BaselineContext",
    "CarsContext",
    "BASELINE",
    "IDEAL_VW",
    "L1_HUGE",
    "ALL_HIT",
    "LTO",
    "CARS",
    "CARS_LOW",
    "CARS_HIGH",
    "swl",
    "cars_nxlow",
    "Uop",
    "UopKind",
    "WarpCtx",
]
