"""Deterministic Schrodinger evolution.

With no potential, evolution is diagonal in momentum space: the drift
exp(-i k^2 tau / 2m) carries a state over any time tau exactly, in one pair
of FFTs.  Otherwise states take symmetric split-step (Strang) steps,
kick(dt/2) -> drift(dt) -> kick(dt/2), where the kick applies exp(-i V dt/2)
in position space.  Second order in dt; exactly unitary up to FFT round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StepSizeError
from .qstate import Buffers, Grid1D, WaveFunction, k_squared


@dataclass(frozen=True)
class Potential:
    """The trap V(x) = m omega^2 x^2 / 2; omega = 0 is the free particle."""

    omega: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.omega) and self.omega >= 0):
            raise DomainError(f"omega must be >= 0 and finite, got {self.omega}")

    @classmethod
    def free(cls) -> "Potential":
        return cls()

    @classmethod
    def harmonic(cls, omega: float) -> "Potential":
        if not omega > 0:
            raise DomainError(f"omega must be > 0 for a trap, got {omega}")
        return cls(omega)

    def values(self, grid: Grid1D, mass: float) -> np.ndarray:
        return 0.5 * mass * self.omega**2 * grid.x**2


def drift_phase(grid: Grid1D, tau, mass: float, out=None, half=None) -> np.ndarray:
    """exp(-i k^2 tau / 2m) on the FFT wavenumbers: free evolution over tau.

    tau is one time (phase (N,)) or one per row (phase (W, N)); the phase is
    written into out if given.  k^2 takes n/2 + 1 distinct values,
    k[0..n/2]; k[n - j] = -k[j] exactly, so the exponential is taken on
    those, in half if given, and mirrored.
    """
    tau = np.asarray(tau)
    h = grid.n_points // 2 + 1
    if half is None:
        half = np.empty(tau.shape + (h,), dtype=np.complex128)
    np.multiply(-0.5j * tau[..., None], k_squared(grid)[:h], out=half)
    np.divide(half, mass, out=half)
    np.exp(half, out=half)
    if out is None:
        out = np.empty(tau.shape + (grid.n_points,), dtype=np.complex128)
    out[..., :h] = half
    out[..., h:] = half[..., -2:0:-1]
    return out


# The work arrays every pass takes, for its reads, spectra, draws and hits,
# come to about 6 complex arrays the size of its rows; its buffers' block
# has room for 7, up to just below 4 MiB.  What an experiment takes
# besides gets arrays of its own once the block is full: decohere's pass,
# the largest, takes about 9 in all, its back-phases and chi outside the
# block, which leaves less outside the block than in it (see Buffers).
# NumPy asks the kernel to back an array of 4 MiB or more with 2 MiB huge
# pages, which would make a partly used block resident in 2 MiB steps.
#
# A work array's name begins with the module that writes it
# ("collapse.hit"), and it serves one use there: only that use writes it,
# and what a call returns in it stays valid until the use's next call.  No
# function takes another's array as scratch.
PASS_ARRAYS = 7
BLOCK_BYTES = 2**22 - 2**12


def pass_buffers(amps: np.ndarray) -> Buffers:
    """The Buffers of a pass of rows amps (W, K, N)."""
    row_bytes = amps.size * np.dtype(np.complex128).itemsize
    return Buffers(len(amps), min(PASS_ARRAYS * row_bytes, BLOCK_BYTES))


# Drifts and hits live on the real line; the box stands in for it only while
# a state holds at most this share of its mass in some cyclic 1/32 of the box.
WRAP_LIMIT = 1e-3


def _take_rows(a: np.ndarray, rows, out: np.ndarray) -> np.ndarray:
    """a[rows] for rows a slice or a bool mask over axis 0: a view where it
    can be one (a slice, or rows all broadcast from one), else gathered into
    out.  np.take gathers with no temporary only from a C-contiguous a."""
    if isinstance(rows, slice):
        return a[rows]
    if a.strides[0] == 0:
        return a[: len(out)]
    return a.take(rows.nonzero()[0], 0, out, "wrap")


class FreeFlight:
    """Exact free evolution of (W, K, N) rows, each row from its own anchor.

    Row w, anchored at time t[w] (first at t = 0), reaches any time in one
    exact k-space drift, ifft(drift_phase(t - t[w]) * fft(rows[w])).  The
    anchors' fft (spectrum, if given, precomputed) is taken once per anchor,
    so a read costs one inverse FFT.  A state read in x that wraps the box
    (WRAP_LIMIT) is a DomainError.  buffers holds the pass's work arrays
    (pass_buffers), its reads among them: a read stays valid until the next.
    """

    def __init__(
        self, grid: Grid1D, mass: float, amps: np.ndarray,
        spectrum: np.ndarray | None = None,
    ):
        self.grid, self.mass = grid, mass
        self.buffers, self.phase = pass_buffers(amps), None
        self.anchor(amps, np.zeros(len(amps)))
        self._phi = spectrum

    def anchor(self, amps: np.ndarray, t: np.ndarray) -> None:
        self.amps, self.t, self._phi = amps, t, None

    def event_time(self, t: np.ndarray) -> np.ndarray:
        """The times at which events due at t are applied: t itself."""
        return t

    def _rows(self, name: str, n_rows: int) -> np.ndarray:
        """The leading n_rows rows of the held (W, K, N) complex array name."""
        return self.buffers(name, (n_rows, *self.amps.shape[1:]), np.complex128)

    def _phase(self, tau: np.ndarray, name: str) -> np.ndarray:
        """drift_phase(tau) in the held (W, N) array name."""
        n_rows, h = len(tau), self.grid.n_points // 2 + 1
        half = self.buffers("propagator.half", (n_rows, h), np.complex128)
        out = self.buffers(name, (n_rows, self.grid.n_points), np.complex128)
        return drift_phase(self.grid, tau, self.mass, out, half)

    def spectrum(self) -> np.ndarray:
        """fft of the anchor rows; a free drift keeps its modulus."""
        if self._phi is None:
            out = self._rows("propagator.spectrum", len(self.amps))
            self._phi = np.fft.fft(self.amps, out=out)
        return self._phi

    def at(self, t, rows=slice(None)) -> np.ndarray:
        """The rows selected by a slice or a bool mask at time t; a row read
        at its anchor time is its anchor.  Valid until the next read, as is
        phase, the drift_phase(t - t[w]) of the rows read (None before the
        first read)."""
        spectrum = self.spectrum()
        tau = t - self.t[rows]
        n_rows = len(tau)
        self.phase = phase = self._phase(tau, "propagator.phase")
        out = self._rows("propagator.read", n_rows)
        # phase first, as in every read: NumPy's complex multiply rounds
        # phase * spectrum and spectrum * phase differently (FMA), and a
        # row's bits must not depend on how many rows are read together
        np.multiply(phase[:, None, :], _take_rows(spectrum, rows, out), out=out)
        np.fft.ifft(out, out=out)
        same = tau == 0
        if same.any():
            out[same] = self.amps[np.arange(len(self.t))[rows][same]]
        # each state's mass in 32 disjoint windows; if none is empty enough, in all cyclic ones
        m = max(1, out.shape[-1] // 32)
        f = out.view(np.float64).reshape(*out.shape[:2], -1, 2 * m)  # re, im interleaved
        blocks = np.einsum("wkbj,wkbj->wb", f, f,
                           out=self.buffers("propagator.blocks", (n_rows, f.shape[2])))
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
    """Strang steps of dt under v on the (1, K, N) rows of one trajectory,
    for a dt inside the step guards (|dt| max|V| < 1/2, |dt| k_max^2/2m < pi).

    The rows exist at step boundaries only; events fall on the nearest
    boundary.  Reading the rows at a later time steps them forward, which
    gives the same bits as stepping from the last anchor.  A step is two
    FFTs and three multiplies by factors taken once.
    """

    def __init__(self, grid: Grid1D, v: Potential, dt: float, mass: float, amps: np.ndarray):
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
        if len(amps) != 1:
            raise DomainError(f"a stepped flight carries one trajectory, got {len(amps)}")
        self.grid, self.dt, self.buffers = grid, dt, pass_buffers(amps)
        self.half_kick = np.exp(-0.5j * dt * v_arr)
        self.drift = drift_phase(grid, dt, mass)
        self.anchor(amps, np.zeros(1))

    def _boundary(self, t) -> int:
        return int(np.rint(np.ravel(t)[0] / self.dt))

    def anchor(self, amps: np.ndarray, t: np.ndarray) -> None:
        self.amps, self.t, self.b = amps, t, self._boundary(t)

    def event_time(self, t: np.ndarray) -> np.ndarray:
        """The times at which events due at t are applied: the nearest boundary."""
        return np.rint(t / self.dt) * self.dt

    def at(self, t, rows=slice(None)) -> np.ndarray:
        b = self._boundary(t)
        if b < self.b:
            raise DomainError(f"cannot step back from boundary {self.b} to {b}")
        for _ in range(b - self.b):
            amps = self.half_kick * self.amps
            amps = np.fft.ifft(self.drift * np.fft.fft(amps))
            self.amps = self.half_kick * amps
        self.b = b
        return self.amps[rows]


def flight(
    grid: Grid1D, v: Potential, dt: float, mass: float, amps: np.ndarray,
) -> FreeFlight | SteppedFlight:
    """The evolution of (W, K, N) rows amps from t = 0 under v.

    Free evolution (omega = 0) is exact and reads no dt (FreeFlight); a trap
    takes Strang steps of dt (SteppedFlight), checked by its step guards.
    """
    if v.omega == 0:
        return FreeFlight(grid, mass, amps)
    return SteppedFlight(grid, v, dt, mass, amps)


def split_step(
    psi: WaveFunction, v: Potential, dt: float, n_steps: int
) -> WaveFunction:
    """Evolve psi over n_steps * dt (dt may be negative).

    Takes n_steps Strang steps of dt, except for the free particle, whose
    evolution is one exact drift over n_steps * dt.
    """
    if n_steps < 0:
        raise DomainError(f"n_steps must be non-negative, got {n_steps}")
    if n_steps == 0:
        return psi
    rows = flight(psi.grid, v, dt, psi.mass, psi.amps[None, None]).at(n_steps * dt)
    return psi.with_amps(rows[0, 0].copy())  # the read is the flight's


def spread_analytic(sigma0: float, mass: float, t: float) -> float:
    """Free-packet width sigma(t) = sqrt(sigma0^2 + (t/(2 m sigma0))^2)."""
    if not (sigma0 > 0 and mass > 0 and t >= 0):
        raise DomainError("require sigma0 > 0, mass > 0, t >= 0")
    return float(np.sqrt(sigma0**2 + (t / (2.0 * mass * sigma0)) ** 2))
