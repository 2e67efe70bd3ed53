"""Grid-based 1-D quantum states and their observables.

Conventions: hbar = 1 internally, periodic grid, spectral momentum space.
The width parameter sigma of a Gaussian packet is the standard deviation of
the position *density* |psi|^2, i.e. Var(x) = sigma^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegeneracyError, DomainError, GridMismatchError, NumericError

NORM_TOL = 1e-9


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic spatial grid; n_points must be a power of two."""

    n_points: int
    x_min: float
    dx: float

    def __post_init__(self):
        n = self.n_points
        if not (isinstance(n, (int, np.integer)) and n > 0 and n & (n - 1) == 0):
            raise DomainError(f"n_points must be a positive power of two, got {n}")
        if not (np.isfinite(self.dx) and self.dx > 0):
            raise DomainError(f"dx must be finite and > 0, got {self.dx}")
        if not np.isfinite(self.x_min):
            raise DomainError(f"x_min must be finite, got {self.x_min}")

    @property
    def extent(self) -> float:
        return self.n_points * self.dx

    @property
    def x_max(self) -> float:
        return self.x_min + self.extent

    @property
    def x(self) -> np.ndarray:
        """Grid points x_min + j dx (read-only, one array per grid)."""
        return _positions(self.n_points, self.x_min, self.dx)

    @property
    def k(self) -> np.ndarray:
        """Spectral wavenumbers in FFT ordering (read-only, one array per grid)."""
        return _wavenumbers(self.n_points, self.dx)

    @classmethod
    def centered(cls, n_points: int, extent: float) -> "Grid1D":
        if not (np.isfinite(extent) and extent > 0):
            raise DomainError(f"extent must be finite and > 0, got {extent}")
        # an n_points < 1 is refused by __post_init__, not divided by
        return cls(n_points=n_points, x_min=-extent / 2.0, dx=extent / max(n_points, 1))


@lru_cache(maxsize=16)
def _positions(n_points: int, x_min: float, dx: float) -> np.ndarray:
    out = x_min + dx * np.arange(n_points)
    out.setflags(write=False)  # shared by every caller
    return out


@lru_cache(maxsize=16)
def _wavenumbers(n_points: int, dx: float) -> np.ndarray:
    out = 2.0 * np.pi * np.fft.fftfreq(n_points, d=dx)
    out.setflags(write=False)  # shared by every caller
    return out


@lru_cache(maxsize=16)
def k_squared(grid: Grid1D) -> np.ndarray:
    """grid.k**2, computed once per grid and shared read-only."""
    out = grid.k**2
    out.setflags(write=False)  # shared by every caller
    return out


@dataclass(frozen=True)
class WaveFunction:
    grid: Grid1D
    amps: np.ndarray  # complex128, length grid.n_points
    mass: float  # internal mass units (multiples of the nucleon mass)

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (self.grid.n_points,):
            raise GridMismatchError(
                f"amps shape {amps.shape} does not match grid ({self.grid.n_points},)"
            )
        if not (np.isfinite(self.mass) and self.mass > 0):
            raise DomainError(f"mass must be positive, got {self.mass}")
        amps.setflags(write=False)  # value-like: states never mutate in place
        object.__setattr__(self, "amps", amps)

    def norm2(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2) * self.grid.dx)

    def normalized(self) -> "WaveFunction":
        n2 = self.norm2()
        if not np.isfinite(n2) or n2 <= 0:
            raise DegeneracyError(f"cannot normalize state with norm^2 = {n2}")
        return WaveFunction(self.grid, self.amps / np.sqrt(n2), self.mass)

    def with_amps(self, amps: np.ndarray) -> "WaveFunction":
        return WaveFunction(self.grid, amps, self.mass)

    def overlap(self, other: "WaveFunction") -> complex:
        """<self|other> by the grid quadrature."""
        _require_same_grid(self, other)
        return complex(np.vdot(self.amps, other.amps) * self.grid.dx)


def _require_same_grid(a: WaveFunction, b: WaveFunction) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")
    if a.mass != b.mass:
        raise GridMismatchError(f"masses differ: {a.mass} vs {b.mass}")


def gaussian_packet(
    grid: Grid1D, x0: float, p0: float, sigma: float, mass: float
) -> WaveFunction:
    """Normalized minimum-uncertainty packet with Var(x) = sigma^2, <p> = p0.

    The 6-sigma support rule is a hard precondition: aliasing through the
    periodic boundary silently corrupts every downstream statistic.  A sigma
    that no center could hold in the box is named before an x0 that puts
    the support out of it.
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise DomainError(f"sigma must be positive, got {sigma}")
    if not 12.0 * sigma <= grid.extent:
        raise DomainError(
            f"sigma must be <= extent / 12 = {grid.extent / 12:g} for any 6-sigma "
            f"support to fit the box, got {sigma}"
        )
    if not np.isfinite(p0):
        raise DomainError(f"p0 must be finite, got {p0}")
    if not x0 - 6.0 * sigma >= grid.x_min:
        raise DomainError(
            f"x0 must keep the 6-sigma support inside the box: "
            f"x0 - 6 sigma = {x0 - 6 * sigma} < x_min = {grid.x_min}"
        )
    if not x0 + 6.0 * sigma <= grid.x_max:
        raise DomainError(
            f"x0 must keep the 6-sigma support inside the box: "
            f"x0 + 6 sigma = {x0 + 6 * sigma} > x_max = {grid.x_max}"
        )
    x = grid.x
    amps = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * p0 * x)
    psi = WaveFunction(grid, amps, mass)
    return psi.normalized()


def superpose(
    a: WaveFunction, b: WaveFunction, ca: complex, cb: complex
) -> WaveFunction:
    """Normalized ca*a + cb*b; raises DegeneracyError on exact cancellation."""
    _require_same_grid(a, b)
    amps = ca * a.amps + cb * b.amps
    out = WaveFunction(a.grid, amps, a.mass)
    n2 = out.norm2()
    if n2 < 1e-24:
        raise DegeneracyError(f"superposition has negligible norm^2 = {n2}")
    return out.normalized()


def momentum_moments(phi: np.ndarray, grid: Grid1D):
    """<p> and <p^2> of a state from its FFT phi (any normalization), or of
    each row of a (W, N) phi.

    A free drift only changes the phase of phi, so both stay fixed between
    localization hits.
    """
    rho_k = np.abs(phi) ** 2
    nk = np.sum(rho_k, axis=-1)
    mean_p = np.sum(grid.k * rho_k, axis=-1) / nk
    mean_p2 = np.sum(k_squared(grid) * rho_k, axis=-1) / nk
    return mean_p, mean_p2


def observables(psi: WaveFunction, potential=None) -> dict[str, float]:
    """Spectral estimates of norm^2, <x>, Var(x), <p>, Var(p) and <H>.

    potential is a Potential from the propagator module (or None for free).
    """
    amps = psi.amps
    if not (np.all(np.isfinite(amps.real)) and np.all(np.isfinite(amps.imag))):
        raise NumericError("non-finite amplitudes")
    dx = psi.grid.dx
    rho = np.abs(amps) ** 2
    n2 = float(np.sum(rho) * dx)
    if n2 <= 0 or not np.isfinite(n2):
        raise NumericError(f"bad norm^2 = {n2}")
    x = psi.grid.x
    mean_x = float(np.sum(x * rho) * dx / n2)
    var_x = float(np.sum((x - mean_x) ** 2 * rho) * dx / n2)

    mean_p, mean_p2 = map(float, momentum_moments(np.fft.fft(amps), psi.grid))
    var_p = mean_p2 - mean_p**2

    kinetic = mean_p2 / (2.0 * psi.mass)
    if potential is None:
        v_mean = 0.0
    else:
        v = potential.values(psi.grid, psi.mass)
        v_mean = float(np.sum(v * rho) * dx / n2)
    return {
        "norm2": n2,
        "mean_x": mean_x,
        "var_x": var_x,
        "mean_p": mean_p,
        "var_p": var_p,
        "mean_p2": mean_p2,
        "energy": kinetic + v_mean,
    }
