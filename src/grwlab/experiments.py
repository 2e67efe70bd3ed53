"""Ensemble harnesses: Born-rule measurement trials, decoherence-rate
scans, fringe-visibility runs, and heating / momentum-diffusion runs.

Every harness is reproducible from (config, master_seed) and independent
of thread count; see ensemble.map_trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .collapse import CollapseParams, effective_reduction_rate, grw_process, sample_times
from .ensemble import block_ranges, map_trajectories, total
from .errors import ConfigError, DecisionTimeoutError, StatisticsError, as_config_error
from .propagator import FreeFlight, drift_phase
from .qstate import Grid1D, gaussian_packet, momentum_moments, superpose
from .rates import heating_rate, momentum_diffusion_rate, visibility_analytic
from .units import DEFAULT_UNITS


class Report(dict):
    """The result of an ensemble experiment.

    Its items are the fields of the experiment's report.json, also read as
    attributes (report.estimate).  .table = (header, columns) is its CSV
    table, which neither equality nor JSON sees.
    """

    table = None

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None

    def to_json_dict(self) -> dict:
        return dict(self)


# ---------------------------------------------------------------------------
# Per-ensemble set-up
#
# The initial rows of every trajectory of an ensemble, and what follows from
# them alone, are built once per process on first use (lru_cache, keyed on
# the frozen config) and shared read-only, so no trajectory can change them.
# ---------------------------------------------------------------------------

# A block of an ensemble is one pass of collapse.grw_process, as wide as
# this many points of its trajectories' widest arrays allow: 8 trials of
# born's (2, 1024) rows, 32 of heating's (1, 512), 16 of decohere's (1, 1024)
# and 8 of visibility's 2N = 2048-point screens.  Twice or four times as many
# points make every pass's temporaries large enough to be mapped afresh from
# the system: born then took 50,000-60,000 page faults a run instead of 18.
PASS_POINTS = 2**14


def _pass_width(points: int) -> int:
    """Trajectories per block when each one's widest array has points points."""
    return max(1, PASS_POINTS // points)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class _Start:
    """Initial rows (K, N) of an ensemble's trajectories and their FFT."""

    grid: Grid1D
    rows: np.ndarray
    spectrum: np.ndarray

    @classmethod
    def of(cls, grid: Grid1D, rows: np.ndarray) -> "_Start":
        return cls(grid, _frozen(rows), _frozen(np.fft.fft(rows)))

    def flight(self, mass: float, width: int) -> FreeFlight:
        """Free evolution of width trajectories from these rows and their FFT."""
        shape = (width, *self.rows.shape)
        return FreeFlight(self.grid, mass, np.broadcast_to(self.rows, shape),
                          np.broadcast_to(self.spectrum, shape))


def _packet_pair(grid: Grid1D, d: float, sigma: float, mass: float):
    """Packets of width sigma at -d/2 and +d/2."""
    return (gaussian_packet(grid, -d / 2.0, 0.0, sigma, mass),
            gaussian_packet(grid, +d / 2.0, 0.0, sigma, mass))


# ---------------------------------------------------------------------------
# Born-rule measurement model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementConfig:
    """Spin-1/2 system coupled to a single collective pointer coordinate.

    The apparatus is modeled as one center-of-mass coordinate whose
    amplified collapse rate is pointer_n_nucleons * lambda; the spin is a
    two-valued label carried by the branch structure.  Branches start
    already displaced by +-pointer_separation/2 (instantaneous premeasured
    entanglement).
    """

    c_up: complex
    c_down: complex
    pointer_n_nucleons: float = 1e8
    pointer_separation: float = 16.0
    pointer_sigma: float = 1.0
    decision_epsilon: float = 1e-6
    grid_n: int = 1024
    grid_extent: float = 48.0
    hits_budget: float = 20.0  # Lambda * t_max

    def __post_init__(self):
        w = abs(self.c_up) ** 2 + abs(self.c_down) ** 2
        if abs(w - 1.0) > 1e-9:
            raise ConfigError(f"|c_up|^2 + |c_down|^2 = {w}, must be 1")
        if not (0 < self.decision_epsilon < 1):
            raise ConfigError("decision_epsilon must be in (0, 1)")
        require_positive(pointer_sigma=self.pointer_sigma, hits_budget=self.hits_budget)
        _grid(self)
        if not self.pointer_n_nucleons >= 1:
            raise ConfigError(
                f"pointer_n_nucleons must be >= 1, got {self.pointer_n_nucleons}")
        if self.pointer_separation <= 4.0 * self.pointer_sigma:
            raise ConfigError(
                "pointer_separation must exceed 4 * pointer_sigma "
                f"({self.pointer_separation} <= {4 * self.pointer_sigma})"
            )


def require_positive(**values: float) -> None:
    """Each value > 0 and finite, else a ConfigError naming it."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ConfigError(f"{name} must be > 0 and finite, got {value}")


def _require_counts(cfg, *names: str) -> None:
    for name in names:
        value = getattr(cfg, name)
        if not (isinstance(value, int) and value >= 1):
            raise ConfigError(f"{name} must be an integer >= 1, got {value}")


def _grid(cfg) -> Grid1D:
    """The grid of an ensemble config; a grid_n or grid_extent that Grid1D
    refuses is a ConfigError naming its key."""
    with as_config_error(n_points="grid_n", extent="grid_extent"):
        return Grid1D.centered(cfg.grid_n, cfg.grid_extent)


def _needs_hits(rate: float) -> None:
    """A run whose result is read from its hits needs a positive rate."""
    if not rate > 0:
        raise ConfigError(f"lambda must be > 0: this run needs hits, got a total rate {rate}")


@lru_cache(maxsize=1)
def _initial_hybrid(cfg: MeasurementConfig) -> _Start:
    """The spin (x) pointer state as rows (up, down) of one (2, N) array."""
    grid = _grid(cfg)
    left, right = _packet_pair(grid, cfg.pointer_separation, cfg.pointer_sigma,
                               cfg.pointer_n_nucleons)
    amps = np.stack([cfg.c_up * left.amps, cfg.c_down * right.amps])
    return _Start.of(grid, amps / np.sqrt(np.sum(_branch_weights(amps, grid))))


def _branch_weights(amps: np.ndarray, grid: Grid1D) -> np.ndarray:
    return np.sum(np.abs(amps) ** 2, axis=-1) * grid.dx


def born_trials(cfg: MeasurementConfig, params: CollapseParams, rngs) -> list[str]:
    """Measurement trials drawing from rngs, run together; each ends "up"
    or "down".  A hit multiplies both branch rows by L(a), a drawn from their
    summed density.  Free evolution keeps each branch's weight, so a trial's
    weights are checked at t = 0 and after each hit, up to hits_budget / rate,
    until one falls below decision_epsilon."""
    start = _initial_hybrid(cfg)
    rate = params.total_rate_internal(cfg.pointer_n_nucleons)
    evolution = start.flight(cfg.pointer_n_nucleons, len(rngs))
    t_end = cfg.hits_budget / rate
    eps = cfg.decision_epsilon
    up = np.zeros(len(rngs), dtype=int)
    for rnd in grw_process(evolution, rate, params.r_c, t_end, rngs):
        weights = _branch_weights(evolution.amps, start.grid)  # (up, down)
        decided = (weights < eps).any(axis=1)
        if rnd.centers is None:  # a hit at t = 0 comes before the check at 0
            decided &= rnd.t_next > 0
        timeout = np.flatnonzero(~decided & (rnd.t_next > t_end))
        if len(timeout):
            raise DecisionTimeoutError(
                f"no outcome after {cfg.hits_budget} expected hits "
                f"(weights {weights[timeout[0]].tolist()}); "
                "pointer too slow for this budget"
            )
        up[rnd.rows[decided]] = weights[decided, 1] < eps
        rnd.t_next[decided] = np.inf
    return ["up" if u else "down" for u in up]


def _born_worker(job, rngs) -> int:
    """The block's up count."""
    return sum(o == "up" for o in born_trials(*job, rngs))


def born_ensemble(
    cfg: MeasurementConfig,
    params: CollapseParams,
    n_trajectories: int,
    master_seed: int,
    threads: int = 1,
) -> Report:
    with as_config_error(r_c="rc", sigma="pointer_sigma", x0="pointer_separation"):
        _needs_hits(params.hit_rate(_grid(cfg), cfg.pointer_n_nucleons))
        _initial_hybrid(cfg)  # built before any pool forks
    [n_up] = map_trajectories(
        _born_worker, [((cfg, params), None, range(n_trajectories))], master_seed, threads,
        width=_pass_width(2 * cfg.grid_n),  # rows (up, down)
    )
    n = n_trajectories
    freq = n_up / n
    stderr = float(np.sqrt(max(freq * (1 - freq), 1e-12) / n))
    p_up = abs(cfg.c_up) ** 2
    expected = np.array([p_up * n, (1 - p_up) * n])
    observed = np.array([n_up, n - n_up])
    if 0 < p_up < 1:
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        p_value = math.erfc(math.sqrt(chi2 / 2.0))  # chi-square sf, 1 dof
    else:
        chi2, p_value = 0.0, 1.0
    report = Report(
        n_trajectories=n,
        outcome_counts={"up": n_up, "down": n - n_up},
        estimate=freq,
        stderr=stderr,
        fit_diagnostics={"p_up_expected": p_up, "chi2": chi2, "p_value": p_value},
        seed=master_seed,
    )
    report.table = (["outcome", "count"], (["down", "up"], [n - n_up, n_up]))
    return report


# ---------------------------------------------------------------------------
# Decoherence-rate scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecoherenceConfig:
    """Two narrow packets at +-d/2 on a heavy, almost frozen coordinate."""

    packet_sigma_over_rc: float = 0.05
    mass: float = 1e6
    grid_n: int = 1024
    grid_extent: float = 32.0
    hit_resolution: float = 0.05  # Lambda * dt: sets only the sample grid
    n_efoldings: float = 2.0
    n_samples: int = 16

    def __post_init__(self):
        require_positive(packet_sigma_over_rc=self.packet_sigma_over_rc, mass=self.mass,
                         hit_resolution=self.hit_resolution, n_efoldings=self.n_efoldings)
        _require_counts(self, "n_samples")
        _grid(self)


def _decoherence_grid(cfg: DecoherenceConfig, params, d) -> list[float]:
    """The sample times of a run over n_efoldings of Gamma(d): steps of
    hit_resolution / rate, every (steps // n_samples)-th and the last."""
    rate = params.total_rate_internal(cfg.mass)
    gamma = DEFAULT_UNITS.rate_to_internal(effective_reduction_rate(d, params, cfg.mass))
    t_total = cfg.n_efoldings / (gamma if gamma > 0 else rate)
    dt = cfg.hit_resolution / rate
    n_steps = max(1, int(round(t_total / dt)))
    return sample_times(dt, n_steps, max(1, n_steps // cfg.n_samples))


@dataclass(frozen=True, eq=False)
class _DecoherenceSetup:
    """What every trajectory of one separation shares.

    table[s] is the (2, N) matrix of conj(fft(phi_L)) and conj(fft(phi_R))
    times dx / N and times drift_phase(t_s) at sample time t_s.  A state
    whose spectrum at t_s is drift_phase(t_s) * chi (chi: its anchor's
    spectrum drifted back to t = 0, FreeFlight.origin_spectrum) then has
    the overlaps (<phi_L|psi(t_s)>, <phi_R|psi(t_s)>) = table[s] @ chi by
    Parseval: no FFT and no exponential per sample.  chi crosses a hit in
    one multiply, with no exponential either.
    """

    start: _Start
    times: np.ndarray  # (S,)
    table: np.ndarray  # (S, 2, N)


@lru_cache(maxsize=1)  # separations run one after another
def _decoherence_setup(cfg: DecoherenceConfig, params, d: float) -> _DecoherenceSetup:
    grid = _grid(cfg)
    phi_l, phi_r = _packet_pair(grid, d, cfg.packet_sigma_over_rc * params.r_c, cfg.mass)
    psi = superpose(phi_l, phi_r, 1.0, 1.0)
    times = np.array(_decoherence_grid(cfg, params, d))
    phases = drift_phase(grid, times, cfg.mass)
    spectra = np.fft.fft(np.stack([phi_l.amps, phi_r.amps]))
    packets = np.conj(spectra) * (grid.dx / grid.n_points)
    return _DecoherenceSetup(_Start.of(grid, psi.amps[None]), _frozen(times),
                             _frozen(phases[:, None, :] * packets))


def _coherence_samples(job, rngs) -> np.ndarray:
    """The trajectories drawing from rngs, run as one pass; returns
    a_L * conj(a_R) at the sample times, one row per trajectory.

    Between hits the spectrum drifts by a phase, so each sample's overlaps
    are one product of the set-up's table with the anchor's spectrum
    drifted back to t = 0 (FreeFlight.origin_spectrum): the start spectrum
    in round 0, and after a hit the hit's read phase carried over in one
    multiply, so a hit round takes one exponential, the drift to the hit.
    """
    cfg, params, d = job
    setup = _decoherence_setup(cfg, params, d)
    times = setup.times
    rate = params.total_rate_internal(cfg.mass)
    evolution = setup.start.flight(cfg.mass, len(rngs))
    out = np.empty((len(rngs), len(times)), dtype=np.complex128)
    for rnd in grw_process(evolution, rate, params.r_c, times[-1], rngs):
        lo, hi = rnd.samples(times)
        chi = evolution.origin_spectrum()[:, 0]
        for s in range(lo.min(), hi.max()):
            due = (lo <= s) & (s < hi)
            # one (2, N) @ (N, 1) product per row, never a GEMM over rows: a
            # row's bits stay those of the row alone, and no BLAS threads start
            a_l, a_r = np.matmul(setup.table[s], chi[due][:, :, None])[:, :, 0].T
            out[rnd.rows[due], s] = a_l * np.conj(a_r)
    return out


def _coherence_terms(job, rngs):
    """The block's sums of each trajectory's coherence trace c, of
    x = |c_last| - |c_0| and of x^2.  Every trajectory has the same c_0, so
    the sums of x and x^2 give the spread of |c_last| for the flat-coherence
    estimate without the cancellation of raw sums."""
    return total([(c, x, x * x) for c in _coherence_samples(job, rngs)
                  for x in [abs(c[-1]) - abs(c[0])]])


def decoherence_scan(
    separations: list[float],
    params: CollapseParams,
    ensemble_size: int,
    cfg: DecoherenceConfig,
    master_seed: int,
    threads: int = 1,
) -> list[Report]:
    """Fit exp(-Gamma t) to ensemble-averaged branch coherence per separation.

    All separations run in one process pool; separation j draws from stream
    tag j.
    """
    grid = _grid(cfg)
    with as_config_error(r_c="rc", separation="separations_over_rc",
                         sigma="packet_sigma_over_rc", x0="separations_over_rc"):
        _needs_hits(params.hit_rate(grid, cfg.mass))
        times = []
        for d in separations:
            _packet_pair(grid, d, cfg.packet_sigma_over_rc * params.r_c, cfg.mass)
            times.append(np.array(_decoherence_grid(cfg, params, d)))
    n = ensemble_size
    runs = [((cfg, params, float(d)), j, range(n)) for j, d in enumerate(separations)]
    scans = map_trajectories(_coherence_terms, runs, master_seed, threads,
                             width=_pass_width(cfg.grid_n))
    reports = []
    for d, t, (sum_c, sum_x, sum_x2) in zip(separations, times, scans):
        mean_c = np.abs(sum_c / n)
        gamma_analytic = DEFAULT_UNITS.rate_to_internal(
            effective_reduction_rate(d, params, cfg.mass))
        if gamma_analytic > 0:
            slope, intercept, r2, slope_err = _linear_fit(t, np.log(mean_c))
            gamma_fit, gamma_err = -slope, slope_err
        else:
            # flat-coherence case: report the direct drift estimate
            drift = (mean_c[-1] - mean_c[0]) / (t[-1] - t[0]) / mean_c[0]
            var_last = max(sum_x2 - sum_x * sum_x / n, 0.0) / (n - 1)
            sem = float(np.sqrt(var_last / n))
            gamma_fit, gamma_err, r2 = -drift, sem / mean_c[0] / (t[-1] - t[0]), 1.0
        reports.append(Report(
            n_trajectories=ensemble_size,
            outcome_counts={},
            estimate=float(gamma_fit),
            stderr=float(gamma_err),
            fit_diagnostics={
                "separation": float(d),
                "gamma_analytic_internal": float(gamma_analytic),
                "gamma_fit_internal": float(gamma_fit),
                "r2": float(r2),
                "coherence_initial": float(mean_c[0]),
                "coherence_final": float(mean_c[-1]),
            },
            seed=master_seed,
        ))
    return reports


def _linear_fit(x: np.ndarray, y: np.ndarray):
    """OLS slope, intercept, R^2 and slope standard error.

    Computed from the biased covariance matrix, as scipy.stats.linregress
    does, with the same bits.
    """
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    r = ssxym / np.sqrt(ssxm * ssym) if ssym != 0.0 else np.nan
    r = min(max(r, -1.0), 1.0)
    slope = ssxym / ssxm
    intercept = np.mean(y) - slope * np.mean(x)
    df = len(x) - 2
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / df) if df > 0 else 0.0
    return slope, intercept, r**2, stderr


# ---------------------------------------------------------------------------
# Fringe visibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VisibilityConfig:
    """Far-field interferometry: two packets held at separation d while the
    hit process acts, then read out on a momentum-space (far-field) screen.

    The fringes at period 2 pi / d in momentum sample the coherence at
    branch separation exactly d, which decays at exactly Gamma(d); a
    position-space screen would mix shorter separations and decay slower.
    The heavy mass freezes dispersion during the exposure.
    """

    sigma0: float = 1.0
    mass: float = 1e6
    grid_n: int = 1024
    grid_extent: float = 128.0
    n_batches: int = 10
    n_fringes: int = 5

    def __post_init__(self):
        require_positive(sigma0=self.sigma0, mass=self.mass)
        _require_counts(self, "n_batches", "n_fringes")
        _grid(self)


# Zero-padding the screen's transform SCREEN_PAD-fold samples it on a p grid that
# many times finer: exact interpolation for a state supported inside the box.
SCREEN_PAD = 8


def momentum_screen(amps: np.ndarray, grid: Grid1D) -> np.ndarray:
    """|fft(psi, 2N)|^2 dx^2 / 2 pi, unshifted, one row of 2N reals per state
    in amps (N,) or (W, N).

    It is the transform of psi's autocorrelation, whose 2N - 1 lags it holds
    without aliasing, so it fixes the far-field intensity at any finer p
    spacing: padded_screen gives it on screen_axis(grid).
    """
    phi = np.fft.fft(amps, n=2 * grid.n_points)
    return np.abs(phi) ** 2 * grid.dx**2 / (2.0 * np.pi)


def padded_screen(screen: np.ndarray) -> np.ndarray:
    """Far-field intensity |psi(p)|^2 on screen_axis, from a momentum_screen
    (2N,) or a stack (B, 2N) of them, or a sum of them.

    Lags 0 .. N-1 and -(N-1) .. -1 of the inverse transform go into a
    zero-padded SCREEN_PAD * N array, without lag N, which holds only
    rounding; one transform of that is the screen.  Where the intensity is
    below about 1e-16 of its peak it is rounding noise of either sign, and
    an intensity is not negative, so it is clipped at 0.
    """
    n = screen.shape[-1] // 2
    lags = np.fft.ifft(screen)
    padded = np.zeros((*screen.shape[:-1], SCREEN_PAD * n), dtype=np.complex128)
    padded[..., :n] = lags[..., :n]
    padded[..., SCREEN_PAD * n - n + 1:] = lags[..., n + 1:]
    return np.fft.fftshift(np.maximum(np.fft.fft(padded).real, 0.0), axes=-1)


def screen_axis(grid: Grid1D) -> np.ndarray:
    """The p axis of padded_screen, in ascending order."""
    return np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(SCREEN_PAD * grid.n_points, grid.dx))


@lru_cache(maxsize=1)
def _two_arms(cfg: VisibilityConfig, d: float) -> _Start:
    grid = _grid(cfg)
    psi0 = superpose(*_packet_pair(grid, d, cfg.sigma0, cfg.mass), 1.0, 1.0)
    return _Start.of(grid, psi0.amps[None])


@lru_cache(maxsize=1)
def _unhit_screen(cfg: VisibilityConfig, d: float, t_flight: float) -> np.ndarray:
    """The momentum_screen of every trajectory without a hit, which is
    also the no-collapse control: the arms drifted to t_flight."""
    start = _two_arms(cfg, d)
    arms = start.flight(cfg.mass, 1).at(t_flight)
    return _frozen(momentum_screen(arms[:, 0], start.grid)[0])


def _screen_worker(job, rngs) -> np.ndarray:
    """The block's summed momentum_screens, each read from one drift of
    its trajectory's last anchor to t_flight; a trajectory without a hit
    adds _unhit_screen."""
    cfg, params, d, t_flight = job
    start = _two_arms(cfg, d)
    rate = params.total_rate_internal(cfg.mass)
    evolution = start.flight(cfg.mass, len(rngs))
    out = [None] * len(rngs)
    for rnd in grw_process(evolution, rate, params.r_c, t_flight, rngs):
        done = rnd.t_next > t_flight
        if rnd.centers is None:  # rows that leave unhit
            for w in rnd.rows[done]:
                out[w] = _unhit_screen(cfg, d, t_flight)
        elif done.any():
            amps = evolution.at(t_flight, done)[:, 0]
            for w, screen in zip(rnd.rows[done], momentum_screen(amps, start.grid)):
                out[w] = screen
    return total(out)


def fringe_contrast(
    intensity: np.ndarray, axis: np.ndarray, fringe_spacing: float,
    n_fringes: float = 5.0,
) -> float:
    """Fringe contrast by lock-in demodulation at the known fringe period.

    For I(x) = E(x) (1 + V cos(2 pi x / spacing)) with a slowly varying
    envelope, projecting onto the quadratures over an integer number of
    fringes returns V.  Linear in I, so it stays unbiased when applied to a
    noisy ensemble mean (an extremum-picking estimator would not).
    """
    x = axis
    window = np.abs(x) <= 0.5 * n_fringes * fringe_spacing
    if not np.any(window):
        raise StatisticsError("empty fringe window")
    xi, yi = x[window], intensity[window]
    total = float(yi.sum())
    if total <= 0.0:
        raise StatisticsError("no intensity in the fringe window")
    phase = 2.0 * np.pi * xi / fringe_spacing
    c = float((yi * np.cos(phase)).sum())
    s = float((yi * np.sin(phase)).sum())
    return 2.0 * np.hypot(c, s) / total


def visibility_experiment(
    d: float,
    params: CollapseParams,
    t_flight: float,
    ensemble_size: int,
    cfg: VisibilityConfig,
    master_seed: int,
    threads: int = 1,
) -> Report:
    """Ensemble-averaged far-field pattern vs the no-collapse control.

    The far-field fringe period is 2 pi / d; its contrast tracks the
    coherence between the two arms at separation exactly d.
    """
    require_positive(t_flight=t_flight)
    if d < 12.0 * cfg.sigma0:
        raise ConfigError(
            f"d_internal must be >= 12 sigma0 = {12 * cfg.sigma0:g} for well "
            f"separated arms, got {d:g}"
        )
    with as_config_error(r_c="rc", sigma="sigma0", x0="d_internal"):
        params.hit_rate(_grid(cfg), cfg.mass)
        start = _two_arms(cfg, d)
    # the arms fit the box, d <= extent - 12 sigma0, so a fringe spans > SCREEN_PAD points
    fringe_spacing = 2.0 * np.pi / d
    p_axis = screen_axis(start.grid)

    ideal = padded_screen(_unhit_screen(cfg, d, t_flight))  # the no-collapse control
    v_ideal = fringe_contrast(ideal, p_axis, fringe_spacing, cfg.n_fringes)

    # the batch-means batches are the ensemble's runs: one summed screen each
    job = (cfg, params, d, t_flight)
    batches = block_ranges(ensemble_size, cfg.n_batches)
    sums = [padded_screen(s) for s in map_trajectories(
        _screen_worker, [(job, None, b) for b in batches], master_seed, threads,
        width=_pass_width(2 * cfg.grid_n))]  # 2N-point screens
    mean_intensity = total(sums) / ensemble_size
    v_measured = fringe_contrast(mean_intensity, p_axis, fringe_spacing, cfg.n_fringes)

    # batch-means error bar on the contrast ratio
    ratios = []
    for batch_sum, batch in zip(sums, batches):
        try:
            v_b = fringe_contrast(batch_sum / len(batch), p_axis, fringe_spacing,
                                  cfg.n_fringes)
        except StatisticsError:
            v_b = 0.0
        ratios.append(v_b / v_ideal)
    ratios = np.asarray(ratios)
    stderr = float(np.std(ratios, ddof=1) / np.sqrt(len(ratios))) if len(ratios) > 1 else 0.0

    t_si = DEFAULT_UNITS.time_to_si(t_flight)
    report = Report(
        V_measured=float(v_measured),
        V_ideal=float(v_ideal),
        ratio=float(v_measured / v_ideal),
        ratio_stderr=stderr,
        V_analytic=visibility_analytic(d, params, t_si, cfg.mass),
        fringe_spacing=float(fringe_spacing),
        n_trajectories=ensemble_size,
        seed=master_seed,
    )
    report.table = (["p", "intensity_mean", "intensity_ideal"],
                    (p_axis, mean_intensity, ideal))
    return report


# ---------------------------------------------------------------------------
# Heating and momentum diffusion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatingConfig:
    sigma0: float = 2.0
    mass: float = 1.0
    grid_n: int = 512
    grid_extent: float = 128.0

    def __post_init__(self):
        require_positive(sigma0=self.sigma0, mass=self.mass)
        _grid(self)


HEATING_SAMPLES = 20  # heating samples at t_total * s / HEATING_SAMPLES, s = 0 .. 20


@lru_cache(maxsize=1)
def _one_packet(cfg: HeatingConfig) -> _Start:
    grid = _grid(cfg)
    return _Start.of(grid, gaussian_packet(grid, 0.0, 0.0, cfg.sigma0, cfg.mass).amps[None])


def _heating_worker(job, rngs):
    """The block's summed (energy, <p^2>, hit count) at the job's times.

    Free drift keeps |fft(psi)|^2, so <p^2> and the energy <p^2>/2m at a
    sample are those of the anchor then held, read once per anchor from its
    spectrum: the state is never rebuilt at a sample.
    """
    cfg, params, times = job
    start = _one_packet(cfg)
    rate = params.total_rate_internal(cfg.mass)
    evolution = start.flight(cfg.mass, len(rngs))
    p2 = np.empty((len(rngs), len(times)))
    hits = [0] * len(rngs)
    for r, rnd in enumerate(grw_process(evolution, rate, params.r_c, times[-1], rngs)):
        anchor_p2 = momentum_moments(evolution.spectrum()[:, 0], start.grid)[1]
        for w, value, a, b in zip(rnd.rows, anchor_p2, *rnd.samples(times)):
            p2[w, a:b] = value
            hits[w] = r
    return total([(p / (2.0 * cfg.mass), p, h) for p, h in zip(p2, hits)])


def heating_experiment(
    params: CollapseParams,
    t_total: float,
    ensemble_size: int,
    cfg: HeatingConfig,
    master_seed: int,
    threads: int = 1,
) -> Report:
    """Linear fit of ensemble-mean energy and <p^2> growth vs time."""
    require_positive(t_total=t_total)
    with as_config_error(r_c="rc", sigma="sigma0"):
        rate = params.hit_rate(_grid(cfg), cfg.mass)
        _one_packet(cfg)  # built before any pool forks
    if rate * t_total < 5.0:
        raise ConfigError(
            f"expected hits {rate * t_total:.2f} < 5; increase t_total or lambda"
        )
    t = np.array(sample_times(t_total / HEATING_SAMPLES, HEATING_SAMPLES, 1))
    job = (cfg, params, t)
    [(sum_e, sum_p2, hits)] = map_trajectories(
        _heating_worker, [(job, None, range(ensemble_size))], master_seed, threads,
        width=_pass_width(cfg.grid_n),
    )
    energy = sum_e / ensemble_size
    p2 = sum_p2 / ensemble_size

    slope_e, _, r2_e, err_e = _linear_fit(t, energy)
    slope_p2, _, r2_p2, err_p2 = _linear_fit(t, p2)
    report = Report(
        slope_energy=float(slope_e),
        slope_energy_stderr=float(err_e),
        slope_energy_analytic=heating_rate(rate, cfg.mass, params.r_c),
        slope_p2=float(slope_p2),
        slope_p2_stderr=float(err_p2),
        slope_p2_analytic=momentum_diffusion_rate(rate, params.r_c),
        r2_energy=float(r2_e),
        r2_p2=float(r2_p2),
        mean_hits=hits / ensemble_size,
        n_trajectories=ensemble_size,
        seed=master_seed,
    )
    report.table = (["t", "mean_energy", "mean_p2"], (t, energy, p2))
    return report
