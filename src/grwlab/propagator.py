"""Deterministic Schrodinger evolution.

With no potential, evolution is diagonal in momentum space: the drift
exp(-i k^2 tau / 2m) carries a state over any time tau exactly, in one pair
of FFTs.  Otherwise states take symmetric split-step (Strang) steps,
kick(dt/2) -> drift(dt) -> kick(dt/2), where the kick applies exp(-i V dt/2)
in position space.  Second order in dt; exactly unitary up to FFT round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, StepSizeError
from .qstate import Grid1D, WaveFunction, k_squared


class PotentialKind(Enum):
    FREE = "free"
    HARMONIC = "harmonic"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class Potential:
    kind: PotentialKind
    omega: float = 0.0
    table: np.ndarray | None = None

    @classmethod
    def free(cls) -> "Potential":
        return cls(PotentialKind.FREE)

    @classmethod
    def harmonic(cls, omega: float) -> "Potential":
        if not (np.isfinite(omega) and omega > 0):
            raise DomainError(f"harmonic omega must be positive, got {omega}")
        return cls(PotentialKind.HARMONIC, omega=omega)

    @classmethod
    def tabulated(cls, values: np.ndarray) -> "Potential":
        values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise DomainError("tabulated potential has non-finite values")
        return cls(PotentialKind.TABULATED, table=values)

    def values(self, grid: Grid1D, mass: float) -> np.ndarray:
        if self.kind is PotentialKind.FREE:
            return np.zeros(grid.n_points)
        if self.kind is PotentialKind.HARMONIC:
            return 0.5 * mass * self.omega**2 * grid.x**2
        assert self.table is not None
        if self.table.shape != (grid.n_points,):
            raise DomainError(
                f"tabulated potential length {self.table.shape[0]} "
                f"!= grid n_points {grid.n_points}"
            )
        return self.table


def _check_guards(grid: Grid1D, v: np.ndarray, dt: float, mass: float) -> None:
    if not (np.isfinite(dt) and dt != 0.0):
        raise StepSizeError(f"dt must be finite and nonzero, got {dt}")
    adt = abs(dt)
    vmax = float(np.max(np.abs(v)))
    if adt * vmax >= 0.5:
        raise StepSizeError(
            f"potential guard violated: |dt|*max|V| = {adt * vmax:.3g} >= 0.5"
        )
    k_max = np.pi / grid.dx
    phase = adt * k_max**2 / (2.0 * mass)
    if phase >= np.pi:
        raise StepSizeError(
            f"spectral phase guard violated: |dt|*k_max^2/(2m) = {phase:.3g} >= pi"
        )


def drift_phase(grid: Grid1D, tau: float, mass: float) -> np.ndarray:
    """exp(-i k^2 tau / 2m) on the FFT wavenumbers: free evolution over tau.

    k^2 takes n/2 + 1 distinct values, k[0..n/2]; k[n - j] = -k[j] exactly,
    so the exponential is taken on those and mirrored.
    """
    half = np.exp(-0.5j * tau * k_squared(grid)[: grid.n_points // 2 + 1] / mass)
    return np.concatenate((half, half[-2:0:-1]))


class Stepper:
    """Precomputed Strang-step factors for a fixed (grid, potential, dt, mass).

    Reusing one Stepper across many steps is what makes long trajectories
    affordable; the per-step work is then two FFTs and three multiplies.
    """

    def __init__(self, grid: Grid1D, v: Potential, dt: float, mass: float):
        v_arr = v.values(grid, mass)
        _check_guards(grid, v_arr, dt, mass)
        self.grid = grid
        self.dt = dt
        self.half_kick = np.exp(-0.5j * dt * v_arr)
        self.drift = drift_phase(grid, dt, mass)

    def step(self, amps: np.ndarray) -> np.ndarray:
        amps = self.half_kick * amps
        amps = np.fft.ifft(self.drift * np.fft.fft(amps))
        return self.half_kick * amps


class FreeFlight:
    """Exact free evolution of an array of rows from an anchor state.

    Rows anchored at time t_a (first at t = 0) reach any time t in one
    k-space drift, ifft(drift_phase(t - t_a) * fft(rows)).  The anchor's
    transform is taken when first needed and reused until the next anchor,
    so reading the state at several times costs one inverse FFT each.
    spectrum, when given, is fft(amps) of the first anchor, precomputed.
    """

    def __init__(
        self, grid: Grid1D, mass: float, amps: np.ndarray,
        spectrum: np.ndarray | None = None,
    ):
        self.grid = grid
        self.mass = mass
        self.anchor(amps, 0.0)
        self._phi = spectrum

    def anchor(self, amps: np.ndarray, t: float) -> None:
        self.amps, self.t, self._phi, self._chi = amps, t, None, None

    def event_time(self, t: float) -> float:
        """The time at which an event due at t is applied: t itself."""
        return t

    def spectrum(self) -> np.ndarray:
        """fft of the anchor rows; a free drift keeps its modulus."""
        if self._phi is None:
            self._phi = np.fft.fft(self.amps)
        return self._phi

    def origin_spectrum(self) -> np.ndarray:
        """The anchor's spectrum drifted back to t = 0: until the next anchor,
        the spectrum at any time t is drift_phase(t) * origin_spectrum()."""
        if self._chi is None:
            self._chi = drift_phase(self.grid, -self.t, self.mass) * self.spectrum()
        return self._chi

    def at(self, t: float) -> np.ndarray:
        if t == self.t:
            return self.amps
        phase = drift_phase(self.grid, t - self.t, self.mass)
        return np.fft.ifft(phase * self.spectrum())


class SteppedFlight:
    """Strang steps of stepper.dt; the state exists at step boundaries only.

    Reading the state at a later time steps the current rows forward, which
    gives the same bits as stepping from the last anchor.
    """

    def __init__(self, stepper: Stepper, amps: np.ndarray):
        self.stepper = stepper
        self.grid = stepper.grid
        self.anchor(amps, 0.0)

    def _boundary(self, t: float) -> int:
        return int(round(t / self.stepper.dt))

    def anchor(self, amps: np.ndarray, t: float) -> None:
        self.amps, self.b = amps, self._boundary(t)

    def event_time(self, t: float) -> float:
        """The time at which an event due at t is applied: the nearest boundary."""
        return self._boundary(t) * self.stepper.dt

    def at(self, t: float) -> np.ndarray:
        b = self._boundary(t)
        if b < self.b:
            raise DomainError(f"cannot step back from boundary {self.b} to {b}")
        for _ in range(b - self.b):
            self.amps = self.stepper.step(self.amps)
        self.b = b
        return self.amps


def flight(
    grid: Grid1D, v: Potential, dt: float, mass: float, amps: np.ndarray,
    *, _spectrum: np.ndarray | None = None,
) -> FreeFlight | SteppedFlight:
    """The evolution of rows amps from t = 0 under v.

    Free evolution is exact (FreeFlight); any other potential takes Strang
    steps of dt (SteppedFlight).  Both check dt against the step guards.
    _spectrum is np.fft.fft(amps) where an ensemble has it built once for
    all its trajectories; a free flight then starts from it.
    """
    if v.kind is PotentialKind.FREE:
        _check_guards(grid, v.values(grid, mass), dt, mass)
        return FreeFlight(grid, mass, amps, _spectrum)
    return SteppedFlight(Stepper(grid, v, dt, mass), amps)


def split_step(
    psi: WaveFunction, v: Potential, dt: float, n_steps: int
) -> WaveFunction:
    """Evolve psi over n_steps * dt (dt may be negative).

    Takes n_steps Strang steps of dt, except for the free potential, whose
    evolution is one exact drift over n_steps * dt.
    """
    if n_steps < 0:
        raise DomainError(f"n_steps must be non-negative, got {n_steps}")
    if n_steps == 0:
        return psi
    return psi.with_amps(flight(psi.grid, v, dt, psi.mass, psi.amps).at(n_steps * dt))


def spread_analytic(sigma0: float, mass: float, t: float) -> float:
    """Free-packet width sigma(t) = sqrt(sigma0^2 + (t/(2 m sigma0))^2)."""
    if not (sigma0 > 0 and mass > 0 and t >= 0):
        raise DomainError("require sigma0 > 0, mass > 0, t >= 0")
    return float(np.sqrt(sigma0**2 + (t / (2.0 * mass * sigma0)) ** 2))
