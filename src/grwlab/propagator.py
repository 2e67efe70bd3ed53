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


@dataclass(frozen=True)
class Potential:
    kind: PotentialKind
    omega: float = 0.0

    @classmethod
    def free(cls) -> "Potential":
        return cls(PotentialKind.FREE)

    @classmethod
    def harmonic(cls, omega: float) -> "Potential":
        if not (np.isfinite(omega) and omega > 0):
            raise DomainError(f"omega must be > 0 and finite, got {omega}")
        return cls(PotentialKind.HARMONIC, omega=omega)

    def values(self, grid: Grid1D, mass: float) -> np.ndarray:
        if self.kind is PotentialKind.FREE:
            return np.zeros(grid.n_points)
        return 0.5 * mass * self.omega**2 * grid.x**2


def drift_phase(grid: Grid1D, tau, mass: float) -> np.ndarray:
    """exp(-i k^2 tau / 2m) on the FFT wavenumbers: free evolution over tau.

    tau is one time (phase (N,)) or one per row (phase (W, N)).  k^2 takes
    n/2 + 1 distinct values, k[0..n/2]; k[n - j] = -k[j] exactly, so the
    exponential is taken on those and mirrored.
    """
    k2 = k_squared(grid)[: grid.n_points // 2 + 1]
    half = np.exp(-0.5j * np.asarray(tau)[..., None] * k2 / mass)
    return np.concatenate((half, half[..., -2:0:-1]), axis=-1)


class Stepper:
    """Precomputed Strang-step factors for a fixed (grid, potential, dt, mass),
    for a dt inside the step guards (|dt| max|V| < 1/2, |dt| k_max^2/2m < pi).
    Reusing one keeps the work of a step at two FFTs and three multiplies.
    """

    def __init__(self, grid: Grid1D, v: Potential, dt: float, mass: float):
        v_arr = v.values(grid, mass)
        if not (np.isfinite(dt) and dt != 0.0):
            raise StepSizeError(f"dt must be finite and nonzero, got {dt}")
        kick = abs(dt) * float(np.max(np.abs(v_arr)))
        if kick >= 0.5:
            raise StepSizeError(
                f"dt must keep |dt|*max|V| = {kick:.3g} below 0.5 (potential guard)")
        phase = abs(dt) * (np.pi / grid.dx) ** 2 / (2.0 * mass)
        if phase >= np.pi:
            raise StepSizeError(
                f"dt must keep |dt|*k_max^2/(2m) = {phase:.3g} below pi "
                "(spectral phase guard)"
            )
        self.grid = grid
        self.dt = dt
        self.half_kick = np.exp(-0.5j * dt * v_arr)
        self.drift = drift_phase(grid, dt, mass)

    def step(self, amps: np.ndarray) -> np.ndarray:
        amps = self.half_kick * amps
        amps = np.fft.ifft(self.drift * np.fft.fft(amps))
        return self.half_kick * amps


# Drifts and hits live on the real line; the box stands in for it only while
# a state holds at most this share of its mass in some cyclic 1/32 of the box.
WRAP_LIMIT = 1e-3


class FreeFlight:
    """Exact free evolution of (W, K, N) rows, each row from its own anchor.

    Row w, anchored at time t[w] (first at t = 0), reaches any time in one
    exact k-space drift, ifft(drift_phase(t - t[w]) * fft(rows[w])).  The
    anchors' fft (spectrum, if given, precomputed) is taken once per anchor,
    so a read costs one inverse FFT.  A state read in x that wraps the box
    (WRAP_LIMIT) is a DomainError.
    """

    def __init__(
        self, grid: Grid1D, mass: float, amps: np.ndarray,
        spectrum: np.ndarray | None = None,
    ):
        self.grid, self.mass = grid, mass
        self._read = None
        self.anchor(amps, np.zeros(len(amps)))
        self._phi = spectrum

    def anchor(self, amps: np.ndarray, t: np.ndarray) -> None:
        # anchors made from the last read's rows may inherit its back-phase
        self._carry, self._read = self._read, None
        self.amps, self.t, self._phi, self._chi = amps, t, None, None

    def event_time(self, t: np.ndarray) -> np.ndarray:
        """The times at which events due at t are applied: t itself."""
        return t

    def spectrum(self) -> np.ndarray:
        """fft of the anchor rows; a free drift keeps its modulus."""
        if self._phi is None:
            self._phi = np.fft.fft(self.amps)
        return self._phi

    def origin_spectrum(self) -> np.ndarray:
        """The anchors' spectra drifted back to t = 0: until the next anchor,
        row w's spectrum at any time t is drift_phase(t) * origin_spectrum()[w].

        The back-phase drift_phase(-t) is an exponential only as a fallback.
        Anchors all at t = 0 return their spectrum.  Anchors made from the
        last read (at) since an origin_spectrum, at the read's times, carry
        the read rows' back-phase across the hit: drift_phase(-t_a) *
        conj(drift_phase(t - t_a)), one multiply with the phase the read
        took.  Any other anchors fall back to drift_phase(-t).
        """
        if self._chi is None:
            self._back = self._back_phase()
            self._chi = (self.spectrum() if self._back is None
                         else np.multiply(self._back[:, None, :], self.spectrum()))
        return self._chi

    def _back_phase(self) -> np.ndarray | None:
        """drift_phase(-t) of the anchors, or None where every anchor is at t = 0."""
        if self._carry is not None:
            t, rows, phase, back = self._carry
            if len(phase) == len(self.t) and np.all(t == self.t):
                conj = np.conj(phase)
                return conj if back is None else np.multiply(back[rows], conj)
        if not self.t.any():
            return None
        return drift_phase(self.grid, -self.t, self.mass)

    def at(self, t, rows=slice(None)) -> np.ndarray:
        """The selected rows at time t; a row read at its anchor time is its anchor."""
        tau = t - self.t[rows]
        phase = drift_phase(self.grid, tau, self.mass)
        if self._chi is not None:  # origin_spectrum is in use: carry its back-phase
            self._read = t, rows, phase, self._back
        # np.multiply, not *: a * whose temporary operand NumPy reuses for the
        # product (>= 256 kB) swaps the operands, and a row's bits would then
        # depend on how many rows are read together
        out = np.fft.ifft(np.multiply(phase[:, None, :], self.spectrum()[rows]))
        same = tau == 0
        if same.any():
            out[same] = self.amps[rows][same]
        # each state's mass in 32 disjoint windows; if none is empty enough, in all cyclic ones
        m = max(1, out.shape[-1] // 32)
        f = out.view(np.float64).reshape(*out.shape[:2], -1, 2 * m)  # re, im interleaved
        blocks = np.einsum("wkbj,wkbj->wb", f, f)
        full = blocks.min(axis=-1) > WRAP_LIMIT * blocks.sum(axis=-1)
        if full.any():
            rho = np.sum(np.abs(out[full]) ** 2, axis=1)
            c = np.cumsum(np.concatenate((rho, rho[:, :m]), axis=-1), axis=-1)
            emptiest = np.min(c[:, m:] - c[:, :-m], axis=-1) / c[:, -m - 1]
            if (emptiest > WRAP_LIMIT).any():
                raise DomainError(
                    f"the state wraps the periodic box: its emptiest 1/32 of the box "
                    f"holds {emptiest.max():.6g} of its mass (limit {WRAP_LIMIT:g})"
                )
        return out


class SteppedFlight:
    """Strang steps of stepper.dt on the (1, K, N) rows of one trajectory.

    The rows exist at step boundaries only; events fall on the nearest
    boundary.  Reading the rows at a later time steps them forward, which
    gives the same bits as stepping from the last anchor.
    """

    def __init__(self, stepper: Stepper, amps: np.ndarray):
        if len(amps) != 1:
            raise DomainError(f"a stepped flight carries one trajectory, got {len(amps)}")
        self.stepper, self.grid = stepper, stepper.grid
        self.anchor(amps, np.zeros(1))

    def _boundary(self, t) -> int:
        return int(np.rint(np.ravel(t)[0] / self.stepper.dt))

    def anchor(self, amps: np.ndarray, t: np.ndarray) -> None:
        self.amps, self.t, self.b = amps, t, self._boundary(t)

    def event_time(self, t: np.ndarray) -> np.ndarray:
        """The times at which events due at t are applied: the nearest boundary."""
        return np.rint(t / self.stepper.dt) * self.stepper.dt

    def at(self, t, rows=slice(None)) -> np.ndarray:
        b = self._boundary(t)
        if b < self.b:
            raise DomainError(f"cannot step back from boundary {self.b} to {b}")
        for _ in range(b - self.b):
            self.amps = self.stepper.step(self.amps)
        self.b = b
        return self.amps[rows]


def flight(
    grid: Grid1D, v: Potential, dt: float, mass: float, amps: np.ndarray,
) -> FreeFlight | SteppedFlight:
    """The evolution of (W, K, N) rows amps from t = 0 under v.

    Free evolution is exact and reads no dt (FreeFlight); any other potential
    takes Strang steps of dt (SteppedFlight), checked by the Stepper's guards.
    """
    if v.kind is PotentialKind.FREE:
        return FreeFlight(grid, mass, amps)
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
    rows = flight(psi.grid, v, dt, psi.mass, psi.amps[None, None]).at(n_steps * dt)
    return psi.with_amps(rows[0, 0])


def spread_analytic(sigma0: float, mass: float, t: float) -> float:
    """Free-packet width sigma(t) = sqrt(sigma0^2 + (t/(2 m sigma0))^2)."""
    if not (sigma0 > 0 and mass > 0 and t >= 0):
        raise DomainError("require sigma0 > 0, mass > 0, t >= 0")
    return float(np.sqrt(sigma0**2 + (t / (2.0 * mass * sigma0)) ** 2))
