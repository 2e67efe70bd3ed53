"""grwlab: stochastic quantum-trajectory simulation of spontaneous
wavefunction localization (discrete Gaussian hits with amplified and
mass-proportional rate scaling)."""

__version__ = "0.1.0"

from .units import DEFAULT_UNITS, UnitSystem, convert_rate_to_si
from .qstate import (
    Grid1D,
    WaveFunction,
    gaussian_packet,
    observables,
    superpose,
)
from .propagator import Potential, split_step, spread_analytic
from .collapse import (
    CollapseEvent,
    CollapseParams,
    TrajectoryRecord,
    apply_hit,
    effective_reduction_rate,
    grw_trajectory,
    sample_hit_center,
)
from .rngstream import trajectory_rng

__all__ = [
    "DEFAULT_UNITS",
    "UnitSystem",
    "convert_rate_to_si",
    "Grid1D",
    "WaveFunction",
    "gaussian_packet",
    "observables",
    "superpose",
    "Potential",
    "split_step",
    "spread_analytic",
    "CollapseEvent",
    "CollapseParams",
    "TrajectoryRecord",
    "apply_hit",
    "effective_reduction_rate",
    "grw_trajectory",
    "sample_hit_center",
    "trajectory_rng",
    "__version__",
]
