"""The stochastic localization process: Poisson hit times, Born-weighted
hit centers, Gaussian localization operators, and full trajectories.

The localization operator centered at a is the multiplication operator

    L(a) = (pi r_c^2)^(-1/4) exp(-(x - a)^2 / (2 r_c^2)),

normalized so that integral da ||L(a) psi||^2 = ||psi||^2: the hit-center
density p(a) = ||L(a) psi||^2 is automatically a probability density.
Distances are taken with the minimum-image rule, consistent with the
periodic grid, so long random walks cannot fall off the edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ZeroSupportError
from .qstate import Grid1D, WaveFunction, observables
from .propagator import Potential, Stepper
from .rngstream import exponential_variate
from .units import DEFAULT_UNITS, UnitSystem

MIN_HIT_WEIGHT = 1e-300


@dataclass(frozen=True)
class CollapseParams:
    """The two new constants plus the amplification bookkeeping.

    lambda_si is the per-nucleon rate in s^-1; r_c is in internal length
    units.  With mass_scaling the total rate is (m/m_N) lambda (the CSL
    rule), otherwise n_nucleons * lambda.
    """

    lambda_si: float
    r_c: float
    n_nucleons: float = 1.0
    mass_scaling: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.lambda_si) and self.lambda_si >= 0):
            raise DomainError(f"lambda_si must be >= 0, got {self.lambda_si}")
        if not (np.isfinite(self.r_c) and self.r_c > 0):
            raise DomainError(f"r_c must be > 0, got {self.r_c}")
        if not (np.isfinite(self.n_nucleons) and self.n_nucleons >= 1):
            raise DomainError(f"n_nucleons must be >= 1, got {self.n_nucleons}")

    def total_rate_si(self, mass_in_mN: float | None = None) -> float:
        """Effective total collapse rate in s^-1."""
        if self.mass_scaling:
            if mass_in_mN is None:
                raise DomainError("mass_scaling=True needs the state mass")
            return mass_in_mN * self.lambda_si
        return self.n_nucleons * self.lambda_si

    def total_rate_internal(
        self, units: UnitSystem = DEFAULT_UNITS, mass_in_mN: float | None = None
    ) -> float:
        return units.rate_to_internal(self.total_rate_si(mass_in_mN))


@dataclass(frozen=True)
class CollapseEvent:
    t: float
    center: float
    branch_weight: float


@dataclass
class TrajectoryRecord:
    events: list[CollapseEvent]
    sample_times: list[float]
    observables_at_samples: list[dict[str, float]]
    final_state: WaveFunction
    seed: int = 0

    def n_hits(self) -> int:
        return len(self.events)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "events": [
                {"t": e.t, "center": e.center, "branch_weight": e.branch_weight}
                for e in self.events
            ],
            "sample_times": list(self.sample_times),
            "observables_at_samples": self.observables_at_samples,
        }


def sample_next_hit_time(rate: float, rng: np.random.Generator) -> float | None:
    """Exponential waiting time with mean 1/rate; None when rate is zero."""
    if not np.isfinite(rate) or rate < 0:
        raise DomainError(f"rate must be finite and >= 0, got {rate}")
    if rate == 0.0:
        return None
    return exponential_variate(rng, rate)


def _min_image(u: np.ndarray, extent: float) -> np.ndarray:
    return (u + 0.5 * extent) % extent - 0.5 * extent


def _check_kernel_resolved(grid: Grid1D, r_c: float) -> None:
    if not (np.isfinite(r_c) and r_c > 0):
        raise DomainError(f"r_c must be > 0, got {r_c}")
    if r_c < 2.0 * grid.dx:
        raise DomainError(
            f"r_c = {r_c} unresolved on grid with dx = {grid.dx} (need r_c >= 2 dx)"
        )
    if r_c > grid.extent / 8.0:
        raise DomainError(
            f"r_c = {r_c} too large for grid extent {grid.extent} (periodic overlap)"
        )


def hit_position_density(psi: WaveFunction, r_c: float) -> np.ndarray:
    """p(a) = ||L(a) psi||^2 tabulated on the grid; sums to 1 (times dx).

    Equals the circular convolution of |psi|^2 with the kernel
    (pi r_c^2)^(-1/2) exp(-(x-a)^2 / r_c^2)  (the square of L's Gaussian).
    """
    if not psi.is_normalized():
        raise DomainError(f"psi must be normalized, norm^2 = {psi.norm2()}")
    return _density_convolution(psi.density(), psi.grid, r_c)


def _density_convolution(rho: np.ndarray, grid: Grid1D, r_c: float) -> np.ndarray:
    _check_kernel_resolved(grid, r_c)
    u = _min_image(grid.dx * np.arange(grid.n_points), grid.extent)
    kernel = np.exp(-(u**2) / r_c**2) / np.sqrt(np.pi * r_c**2)
    p = np.fft.irfft(np.fft.rfft(rho) * np.fft.rfft(kernel), n=grid.n_points)
    p *= grid.dx  # convolution quadrature weight
    return np.maximum(p, 0.0)


def sample_hit_center(
    p: np.ndarray, grid: Grid1D, rng: np.random.Generator
) -> float:
    """Inverse-CDF draw from the tabulated density (CDF linear within cells)."""
    masses = p * grid.dx
    cdf = np.cumsum(masses)
    total = cdf[-1]
    if total <= 0:
        raise ZeroSupportError("hit-center density has zero total mass")
    u = rng.random() * total
    j = int(np.searchsorted(cdf, u, side="right"))
    j = min(j, grid.n_points - 1)
    below = cdf[j - 1] if j > 0 else 0.0
    frac = (u - below) / masses[j] if masses[j] > 0 else 0.5
    # cell j is centered on grid point j; the left half of cell 0 wraps
    # around the periodic seam to the top of the box
    return float(grid.x_min + ((j - 0.5 + frac) * grid.dx) % grid.extent)


def localization_amplitude(grid: Grid1D, a: float, r_c: float) -> np.ndarray:
    """The Gaussian factor of L(a) on the grid (minimum-image distance)."""
    u = _min_image(grid.x - a, grid.extent)
    return (np.pi * r_c**2) ** (-0.25) * np.exp(-(u**2) / (2.0 * r_c**2))


def apply_hit(
    psi: WaveFunction, a: float, r_c: float
) -> tuple[WaveFunction, float]:
    """Apply one localization hit at center a; returns (psi', weight).

    weight = ||L(a) psi||^2 is the Born weight of the realized branch.
    """
    amps, weight = _localize(psi.amps, psi.grid, a, r_c)
    return psi.with_amps(amps), weight


def _localize(
    amps: np.ndarray, grid: Grid1D, a: float, r_c: float
) -> tuple[np.ndarray, float]:
    """L(a) applied to every row of amps, renormalized jointly over the rows."""
    _check_kernel_resolved(grid, r_c)
    if not (grid.x_min <= a <= grid.x_max):
        raise DomainError(f"hit center {a} outside grid [{grid.x_min}, {grid.x_max}]")
    hit_amps = localization_amplitude(grid, a, r_c) * amps
    weight = float(np.sum(np.abs(hit_amps) ** 2) * grid.dx)
    if weight < MIN_HIT_WEIGHT:
        raise ZeroSupportError(
            f"hit at a = {a} lands on negligible amplitude (weight = {weight})"
        )
    return hit_amps / np.sqrt(weight), weight


def effective_reduction_rate(
    d: float, params: CollapseParams, mass_in_mN: float | None = None
) -> float:
    """Predicted decay rate (s^-1) of coherence between branches at distance d.

    Gamma(d) = Lambda_total * (1 - exp(-d^2 / (4 r_c^2))); saturates at the
    amplified total rate for d >> r_c and vanishes quadratically for d -> 0.
    """
    if d < 0:
        raise DomainError(f"separation must be >= 0, got {d}")
    total = params.total_rate_si(mass_in_mN)
    return total * -np.expm1(-(d**2) / (4.0 * params.r_c**2))


def step_count(t_total: float, dt: float) -> int:
    """Steps of size dt that cover t_total."""
    if t_total <= 0 or dt <= 0:
        raise DomainError("t_total and dt must be positive")
    return int(round(t_total / dt))


def hit_and_step(
    amps: np.ndarray,
    grid: Grid1D,
    stepper: Stepper,
    rate: float,
    r_c: float,
    n_steps: int,
    rng: np.random.Generator,
    events: list[CollapseEvent] | None = None,
):
    """The GRW process on K branch rows: yields (b, amps) at b = 0..n_steps.

    amps has shape (K, N); all rows share one hit sequence.  At each step
    boundary b the hits snapped to b are applied first: the center is drawn
    from the density summed over rows, L(a) multiplies every row, and the
    rows are renormalized jointly.  Then (b, amps) is yielded, and unless b
    is the last boundary all rows take one Schrodinger step of stepper.dt.
    Hit times are snapped to the nearest step boundary; the exact waiting
    times are kept when scheduling the following hit, so counts are unbiased.
    Each hit is appended to events when a list is given.
    """
    dt = stepper.dt
    t_next = sample_next_hit_time(rate, rng)
    next_step = None if t_next is None else int(round(t_next / dt))
    for b in range(n_steps + 1):
        while next_step == b:
            p = _density_convolution(np.sum(np.abs(amps) ** 2, axis=0), grid, r_c)
            a = sample_hit_center(p, grid, rng)
            amps, weight = _localize(amps, grid, a, r_c)
            if events is not None:
                events.append(CollapseEvent(t=b * dt, center=a, branch_weight=weight))
            t_next += exponential_variate(rng, rate)
            next_step = int(round(t_next / dt))
        yield b, amps
        if b < n_steps:
            amps = stepper.step(amps)


def grw_trajectory(
    psi0: WaveFunction,
    v: Potential,
    params: CollapseParams,
    t_total: float,
    dt: float,
    sample_every: int,
    rng: np.random.Generator,
    units: UnitSystem = DEFAULT_UNITS,
    seed: int = 0,
) -> TrajectoryRecord:
    """One GRW trajectory (see hit_and_step), with observables sampled at
    every sample_every-th step boundary and at the last one."""
    n_steps = step_count(t_total, dt)
    if sample_every < 1:
        raise DomainError(f"sample_every must be >= 1, got {sample_every}")
    rate = params.total_rate_internal(units, psi0.mass)
    stepper = Stepper(psi0.grid, v, dt, psi0.mass)

    events: list[CollapseEvent] = []
    sample_times: list[float] = []
    obs: list[dict[str, float]] = []
    for b, amps in hit_and_step(psi0.amps[None], psi0.grid, stepper, rate,
                                params.r_c, n_steps, rng, events):
        if b % sample_every == 0 or b == n_steps:
            sample_times.append(b * dt)
            obs.append(observables(psi0.with_amps(amps[0]), v))

    return TrajectoryRecord(
        events=events,
        sample_times=sample_times,
        observables_at_samples=obs,
        final_state=psi0.with_amps(amps[0]),
        seed=seed,
    )
