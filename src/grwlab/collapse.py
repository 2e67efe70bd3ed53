"""The stochastic localization process: Poisson hit times, Born-weighted
hit centers, Gaussian localization operators, and full trajectories.

The localization operator centered at a is the multiplication operator

    L(a) = (pi r_c^2)^(-1/4) exp(-(x - a)^2 / (2 r_c^2)),

normalized so that integral da ||L(a) psi||^2 = ||psi||^2: the hit-center
density p(a) = ||L(a) psi||^2, |psi|^2 convolved with the normal density of
variance r_c^2 / 2, is a probability density, drawn from as x + xi.
Distances are taken with the minimum-image rule, consistent with the
periodic grid, so long random walks cannot fall off the edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, ZeroSupportError
from .qstate import NORM_TOL, Grid1D, WaveFunction, observables
from .propagator import Potential, flight
from .rngstream import exponential_variate
from .units import DEFAULT_UNITS

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

    def total_rate_internal(self, mass_in_mN: float | None = None) -> float:
        return DEFAULT_UNITS.rate_to_internal(self.total_rate_si(mass_in_mN))

    def hit_rate(self, grid: Grid1D, mass_in_mN: float | None = None) -> float:
        """total_rate_internal of a run on grid; if it is > 0, the run hits,
        and its r_c must be one that grid resolves (kernel_bounds)."""
        rate = self.total_rate_internal(mass_in_mN)
        if rate > 0:
            _check_kernel_resolved(grid, self.r_c)
        return rate


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


def kernel_bounds(grid: Grid1D) -> tuple[float, float]:
    """The r_c a hit takes on grid: from 2 dx, which resolves its Gaussian,
    up to extent / 8, where its periodic images do not yet overlap."""
    return 2.0 * grid.dx, grid.extent / 8.0


def _check_kernel_resolved(grid: Grid1D, r_c: float) -> None:
    low, high = kernel_bounds(grid)
    if not low <= r_c <= high:
        raise DomainError(
            f"r_c must be in [{low:g}, {high:g}] on this grid (2 dx to extent / 8), "
            f"got {r_c}"
        )


def sample_hit_center(rows: np.ndarray, grid: Grid1D, r_c: float, u):
    """Hit centers a = x + xi, exact draws from p(a) = ||L(a) psi||^2.

    rows is one state (N,), its branch rows (K, N), or the (W, K, N) rows
    of W states, each state jointly normalized; u holds three uniforms per
    state, (3,) for one state and (W, 3) for W.  The first picks the grid
    point x from the state's |psi|^2, summed over its rows, by its CDF; the
    other two give xi ~ N(0, r_c^2 / 2) (Box-Muller).  a is x + xi wrapped
    into the box: a float for one state, a (W,) array for W.
    """
    _check_kernel_resolved(grid, r_c)
    u = np.asarray(u)
    n = grid.n_points
    states = np.abs(np.reshape(rows, u.shape[:-1] + (-1, n)))
    states *= states
    cdf = np.cumsum(np.sum(states, axis=-2).reshape(-1, n), axis=-1)
    norm2 = cdf[:, -1] * grid.dx
    bad = np.abs(norm2 - 1.0) > NORM_TOL
    if bad.any():
        raise DomainError(f"rows must be jointly normalized, norm^2 = {norm2[bad][0]}")
    u0, u1, u2 = np.reshape(u, (-1, 3)).T
    # the grid point: the count of CDF values <= u0 total (searchsorted, side="right")
    j = np.minimum(np.count_nonzero(cdf <= (u0 * cdf[:, -1])[:, None], axis=-1), n - 1)
    # (r_c / sqrt 2) sqrt(-2 ln(1 - u1)) cos(2 pi u2)
    xi = r_c * np.sqrt(-np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
    a = grid.x_min + (j * grid.dx + xi) % grid.extent
    return float(a[0]) if u.ndim == 1 else a


@lru_cache(maxsize=16)
def _image_offsets(grid: Grid1D) -> np.ndarray:
    """Row (-j) mod N holds m dx for every grid point i, m = i - j wrapped
    into [-N/2, N/2): the minimum-image offsets from grid point j.  The rows
    are read-only windows of one table of 2N offsets, made once per grid."""
    n = grid.n_points
    table = ((np.arange(2 * n) + n // 2) % n - n // 2) * grid.dx
    return sliding_window_view(table, n)[:n]


def localization_amplitude(grid: Grid1D, a, r_c: float) -> np.ndarray:
    """The Gaussian factor of L(a) on the grid, at minimum-image distances:
    (N,) for a float a, one row per center (W, N) for W centers given as
    (W,) or (W, 1).

    With x_j the grid point at or above a, a = x_j + delta with delta in
    (-dx, 0], and grid point i lies m dx - delta from a, m = i - j wrapped
    into [-N/2, N/2).  That offset lies in [-extent/2, extent/2), the
    minimum image, for every point, the one at the far seam included.
    Factors below e^-700 are exactly 0: an exp that underflows is several
    times slower, and so is arithmetic on the subnormal products a tiny
    nonzero floor would leave.
    """
    centers = np.ravel(a)
    t = np.ceil((centers - grid.x_min) / grid.dx)
    u = _image_offsets(grid)[(-t).astype(np.int64) % grid.n_points]
    u -= (centers - (grid.x_min + t * grid.dx))[:, None]
    u *= u
    u *= -0.5 / r_c**2
    g = np.zeros_like(u)
    np.exp(u, out=g, where=u >= -700.0)
    g *= (np.pi * r_c**2) ** (-0.25)
    return g[0] if np.ndim(a) == 0 else g


def apply_hit(rows: np.ndarray, grid: Grid1D, a, r_c: float):
    """L(a) applied to every branch row of each state; returns (rows', weight).

    rows are as in sample_hit_center, with one center per state in a (a
    float for one state, a (W,) array for W).  weight = ||L(a) psi||^2,
    summed over a state's rows, is the Born weight of its realized branch;
    each state's rows' are renormalized jointly by it.
    """
    _check_kernel_resolved(grid, r_c)
    a = np.asarray(a, dtype=float)
    off = ~((grid.x_min <= a) & (a <= grid.x_max))
    if off.any():
        raise DomainError(
            f"hit center {a[off].flat[0]} outside grid [{grid.x_min}, {grid.x_max}]"
        )
    states = np.reshape(rows, a.shape + (-1, grid.n_points))
    hit_amps = localization_amplitude(grid, a, r_c)[..., None, :] * states
    # each state's (re, im) pairs: |L(a) psi|^2 and the renormalization
    # without a complex abs or a complex division
    pairs = hit_amps.view(float).reshape(a.shape + (-1,))
    weight = np.sum(pairs * pairs, axis=-1) * grid.dx
    low = weight < MIN_HIT_WEIGHT
    if low.any():
        raise ZeroSupportError(
            f"hit at a = {a[low].flat[0]} lands on negligible amplitude "
            f"(weight = {weight[low].flat[0]})"
        )
    pairs /= np.sqrt(weight)[..., None]
    return hit_amps.reshape(np.shape(rows)), weight


def effective_reduction_rate(
    d: float, params: CollapseParams, mass_in_mN: float | None = None
) -> float:
    """Predicted decay rate (s^-1) of coherence between branches at distance d.

    Gamma(d) = Lambda_total * (1 - exp(-d^2 / (4 r_c^2))); saturates at the
    amplified total rate for d >> r_c and vanishes quadratically for d -> 0.
    """
    if not d >= 0:
        raise DomainError(f"separation must be >= 0, got {d}")
    total = params.total_rate_si(mass_in_mN)
    return total * -np.expm1(-(d**2) / (4.0 * params.r_c**2))


def sample_times(dt: float, n_steps: int, every: int) -> list[float]:
    """b * dt at every every-th step boundary b and at the last, n_steps."""
    return [b * dt for b in range(0, n_steps, every)] + [n_steps * dt]


class Round(NamedTuple):
    """One round of grw_process, yielded before its hits."""

    rows: np.ndarray  # positions in the pass of the rows still running
    t: np.ndarray  # each one's anchor time
    t_next: np.ndarray  # each one's next hit time (inf: none); inf stops a row
    centers: np.ndarray | None  # the hits that made the anchors (None in round 0)
    weights: np.ndarray | None  # and their branch weights

    def samples(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per running row, the indices lo <= s < hi of the sorted samples its
        anchor serves: times in [t, t_next), so a hit at a sample's comes first."""
        return np.searchsorted(times, self.t), np.searchsorted(times, self.t_next)


def grw_process(evolution, rate: float, r_c: float, t_end: float, rngs):
    """The GRW process on the W trajectories of one pass, advanced together.

    evolution carries the pass's (W, K, N) rows from t = 0 (propagator.flight).
    Row w is one trajectory drawing from rngs[w] as if alone: one uniform
    for its first wait, then four per hit, three for the center
    (sample_hit_center) and one for the next wait.  Its hits fall at the
    running sums of waits of mean 1/rate, up to t_end, at the times
    evolution.event_time gives.  A hit draws its center from the density
    summed over the row's K branch rows, multiplies them all by L(a) and
    renormalizes them jointly.

    Round r yields while each running row holds its anchor after r hits
    (evolution.amps, from times evolution.t), which serves the samples that
    Round.samples names.  The consumer may stop a row by setting its t_next
    to inf.  Then rows whose next hit is past t_end leave; the rest take it.
    """
    grid = evolution.grid
    rows = np.arange(len(rngs))
    t_wait = np.array([exponential_variate(rng, rate) if rate else np.inf for rng in rngs])
    centers = weights = None
    while True:
        t_next = evolution.event_time(t_wait)
        yield Round(rows, evolution.t, t_next, centers, weights)
        going = t_next <= t_end
        if going.all():
            going = slice(None)
        elif going.any():
            rows, t_wait, t_next = rows[going], t_wait[going], t_next[going]
            rngs = [rng for rng, g in zip(rngs, going) if g]
        else:
            return
        amps = evolution.at(t_next, going)
        u = np.array([rng.random(4) for rng in rngs])
        centers = sample_hit_center(amps, grid, r_c, u[:, :3])
        amps, weights = apply_hit(amps, grid, centers, r_c)
        evolution.anchor(amps, t_next)
        t_wait = t_wait - np.log1p(-u[:, 3]) / rate


def grw_trajectory(
    psi0: WaveFunction,
    v: Potential,
    params: CollapseParams,
    t_total: float,
    dt: float,
    sample_every: int,
    rng: np.random.Generator,
    seed: int = 0,
) -> TrajectoryRecord:
    """One GRW trajectory (a one-row pass of grw_process) over t_total,
    covered by steps of dt.

    Observables are sampled at every sample_every-th step boundary and at
    the last.  Free evolution between events is exact, so hits fall at their
    exact Poisson times; other potentials take Strang steps of dt, with hits
    on the nearest step boundary.
    """
    if t_total <= 0 or dt <= 0:
        raise DomainError("t_total and dt must be positive")
    n_steps = int(round(t_total / dt))
    if sample_every < 1:
        raise DomainError(f"sample_every must be >= 1, got {sample_every}")
    rate = params.total_rate_internal(psi0.mass)
    times = sample_times(dt, n_steps, sample_every)
    evolution = flight(psi0.grid, v, dt, psi0.mass, psi0.amps[None, None])

    events: list[CollapseEvent] = []
    obs: list[dict[str, float]] = []
    for rnd in grw_process(evolution, rate, params.r_c, times[-1], [rng]):
        if rnd.centers is not None:
            events.append(CollapseEvent(evolution.t[0], rnd.centers[0], rnd.weights[0]))
        [lo], [hi] = rnd.samples(times)
        for t in times[lo:hi]:
            amps = evolution.at(t)[0, 0]
            obs.append(observables(psi0.with_amps(amps), v))

    return TrajectoryRecord(
        events=events,
        sample_times=times,
        observables_at_samples=obs,
        final_state=psi0.with_amps(amps),
        seed=seed,
    )
