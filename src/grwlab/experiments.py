"""Ensemble harnesses: Born-rule measurement trials, decoherence-rate
scans, fringe-visibility runs, and heating / momentum-diffusion runs.

Every harness is reproducible from (config, master_seed) and independent
of thread count; see ensemble.map_trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from functools import lru_cache

import numpy as np

from .collapse import (
    CollapseParams,
    effective_reduction_rate,
    grw_process,
    sample_times,
    step_count,
)
from .ensemble import map_trajectories
from .errors import ConfigError, DecisionTimeoutError, DomainError, StatisticsError
from .propagator import Potential, drift_phase, flight
from .qstate import Grid1D, WaveFunction, gaussian_packet, momentum_moments, superpose
from .rates import heating_rate, momentum_diffusion_rate, visibility_analytic
from .rngstream import trajectory_rng
from .units import DEFAULT_UNITS, UnitSystem


@dataclass
class EnsembleReport:
    n_trajectories: int
    outcome_counts: dict[str, int]
    estimate: float
    stderr: float
    fit_diagnostics: dict[str, float]
    seed: int

    def __post_init__(self):
        total = sum(self.outcome_counts.values())
        if self.outcome_counts and total != self.n_trajectories:
            raise DomainError(
                f"outcome counts sum to {total}, expected {self.n_trajectories}"
            )

    def to_json_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Per-ensemble set-up
#
# The initial rows of every trajectory of an ensemble, and what follows from
# them alone, are built once per process on first use (lru_cache, keyed on
# the frozen config) and shared read-only, so no trajectory can change them.
# ---------------------------------------------------------------------------

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

    def flight(self, dt: float, mass: float):
        """Free evolution of the rows from t = 0, starting from their FFT."""
        return flight(self.grid, Potential.free(), dt, mass, self.rows,
                      _spectrum=self.spectrum)


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
    hit_resolution: float = 0.1  # Lambda * dt

    def __post_init__(self):
        w = abs(self.c_up) ** 2 + abs(self.c_down) ** 2
        if abs(w - 1.0) > 1e-9:
            raise ConfigError(f"|c_up|^2 + |c_down|^2 = {w}, must be 1")
        if not (0 < self.decision_epsilon < 1):
            raise ConfigError("decision_epsilon must be in (0, 1)")
        _require_positive(self, "hits_budget", "hit_resolution")
        if self.pointer_separation <= 4.0 * self.pointer_sigma:
            raise ConfigError(
                "pointer_separation must exceed 4 * pointer_sigma "
                f"({self.pointer_separation} <= {4 * self.pointer_sigma})"
            )


def _require_positive(cfg, *names: str) -> None:
    for name in names:
        _check_positive(name, getattr(cfg, name))


def _check_positive(name: str, value: float) -> None:
    if not value > 0:
        raise ConfigError(f"{name} must be > 0, got {value}")


@lru_cache(maxsize=1)
def _initial_hybrid(cfg: MeasurementConfig) -> _Start:
    """The spin (x) pointer state as rows (up, down) of one (2, N) array."""
    grid = Grid1D.centered(cfg.grid_n, cfg.grid_extent)
    left, right = _packet_pair(grid, cfg.pointer_separation, cfg.pointer_sigma,
                               cfg.pointer_n_nucleons)
    amps = np.stack([cfg.c_up * left.amps, cfg.c_down * right.amps])
    return _Start.of(grid, amps / np.sqrt(np.sum(_branch_weights(amps, grid))))


def _branch_weights(amps: np.ndarray, grid: Grid1D) -> np.ndarray:
    return np.sum(np.abs(amps) ** 2, axis=1) * grid.dx


def born_trial(
    cfg: MeasurementConfig,
    params: CollapseParams,
    rng: np.random.Generator,
    units: UnitSystem = DEFAULT_UNITS,
) -> str:
    """One measurement trial; returns "up" or "down".

    Hits are applied jointly: the center is drawn from the branch-weighted
    total position density and L(a) multiplies both branch wavefunctions.
    Free evolution keeps each branch's weight, so the weights are checked at
    t = 0 and after each hit, up to hits_budget / rate.
    """
    start = _initial_hybrid(cfg)
    grid, amps = start.grid, start.rows
    rate = params.total_rate_internal(units)
    if rate <= 0:
        raise ConfigError("born_trial needs a positive total collapse rate")
    dt = cfg.hit_resolution / rate
    n_max = int(round(cfg.hits_budget / cfg.hit_resolution))
    evolution = start.flight(dt, cfg.pointer_n_nucleons)
    process = grw_process(evolution, rate, params.r_c, n_max * dt, [0.0], rng)
    for t, evolution, _ in process:
        amps = evolution.at(t)
        w_up, w_down = _branch_weights(amps, grid)
        if w_down < cfg.decision_epsilon:
            return "up"
        if w_up < cfg.decision_epsilon:
            return "down"
    raise DecisionTimeoutError(
        f"no outcome after {cfg.hits_budget} expected hits "
        f"(weights {_branch_weights(amps, grid).tolist()}); "
        "pointer too slow for this budget"
    )


def _born_worker(job, master_seed: int, index: int) -> str:
    cfg, params = job
    return born_trial(cfg, params, trajectory_rng(master_seed, index))


def born_ensemble(
    cfg: MeasurementConfig,
    params: CollapseParams,
    n_trajectories: int,
    master_seed: int,
    threads: int = 1,
) -> EnsembleReport:
    outcomes = map_trajectories(
        _born_worker, (cfg, params), n_trajectories, master_seed, threads
    )
    n_up = sum(1 for o in outcomes if o == "up")
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
    return EnsembleReport(
        n_trajectories=n,
        outcome_counts={"up": n_up, "down": n - n_up},
        estimate=freq,
        stderr=stderr,
        fit_diagnostics={"p_up_expected": p_up, "chi2": chi2, "p_value": p_value},
        seed=master_seed,
    )


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
    hit_resolution: float = 0.05  # Lambda * dt
    n_efoldings: float = 2.0
    n_samples: int = 16

    def __post_init__(self):
        _require_positive(self, "hit_resolution", "n_efoldings", "n_samples")


def _decoherence_grid(cfg: DecoherenceConfig, params, d, units):
    """(dt, sample times) of a run over n_efoldings of Gamma(d): steps of dt,
    sampled every (steps // n_samples)-th step and at the last."""
    rate = params.total_rate_internal(units)
    gamma = units.rate_to_internal(effective_reduction_rate(d, params))
    t_total = cfg.n_efoldings / (gamma if gamma > 0 else rate)
    dt = cfg.hit_resolution / rate
    n_steps = max(1, int(round(t_total / dt)))
    return dt, sample_times(dt, n_steps, max(1, n_steps // cfg.n_samples))


@dataclass(frozen=True, eq=False)
class _DecoherenceSetup:
    """What every trajectory of one separation shares.

    phases[s] is drift_phase(t_s) at sample time t_s, and packets holds
    conj(fft(phi_L)) and conj(fft(phi_R)) times dx / N.  A state whose
    spectrum at time t_s is phases[s] * chi then has the overlaps
    (<phi_L|psi(t_s)>, <phi_R|psi(t_s)>) = packets @ (phases[s] * chi)
    by Parseval: no FFT and no exponential per sample.
    """

    start: _Start
    dt: float
    times: tuple[float, ...]
    phases: np.ndarray  # (S, N)
    packets: np.ndarray  # (2, N)


@lru_cache(maxsize=1)  # separations run one after another
def _decoherence_setup(cfg: DecoherenceConfig, params, d: float, units) -> _DecoherenceSetup:
    grid = Grid1D.centered(cfg.grid_n, cfg.grid_extent)
    phi_l, phi_r = _packet_pair(grid, d, cfg.packet_sigma_over_rc * params.r_c, cfg.mass)
    psi = superpose(phi_l, phi_r, 1.0, 1.0)
    dt, times = _decoherence_grid(cfg, params, d, units)
    phases = np.stack([drift_phase(grid, t, cfg.mass) for t in times])
    spectra = np.fft.fft(np.stack([phi_l.amps, phi_r.amps]))
    packets = np.conj(spectra) * (grid.dx / grid.n_points)
    return _DecoherenceSetup(_Start.of(grid, psi.amps[None]), dt, tuple(times),
                             _frozen(phases), _frozen(packets))


def _coherence_samples(job, master_seed: int, index: int) -> np.ndarray:
    """One trajectory; returns a_L * conj(a_R) at the sample times.

    Between hits the spectrum drifts by a phase, so each sample's overlaps
    are read in k space from the anchor's spectrum drifted back to t = 0
    (FreeFlight.origin_spectrum, one per anchor) and the set-up's tables.
    """
    cfg, params, d, units, stream = job
    rng = trajectory_rng(master_seed, index, stream)
    setup = _decoherence_setup(cfg, params, d, units)
    rate = params.total_rate_internal(units)
    evolution = setup.start.flight(setup.dt, cfg.mass)
    out = []
    process = grw_process(evolution, rate, params.r_c, setup.times[-1], setup.times, rng)
    for _, evolution, event in process:
        if event is None:
            chi = evolution.origin_spectrum()[0]
            a_l, a_r = setup.packets @ (setup.phases[len(out)] * chi)
            out.append(a_l * np.conj(a_r))
    return np.asarray(out, dtype=np.complex128)


def decoherence_scan(
    separations: list[float],
    params: CollapseParams,
    ensemble_size: int,
    cfg: DecoherenceConfig,
    master_seed: int,
    threads: int = 1,
    units: UnitSystem = DEFAULT_UNITS,
) -> list[EnsembleReport]:
    """Fit exp(-Gamma t) to ensemble-averaged branch coherence per separation."""
    reports = []
    for j, d in enumerate(separations):
        job = (cfg, params, float(d), units, j)  # stream tag j per separation
        traces = map_trajectories(
            _coherence_samples, job, ensemble_size, master_seed, threads, stream=j
        )
        t = np.array(_decoherence_grid(cfg, params, d, units)[1])
        mean_c = np.abs(np.mean(np.stack(traces), axis=0))
        gamma_analytic = units.rate_to_internal(effective_reduction_rate(d, params))
        if gamma_analytic > 0:
            slope, intercept, r2, slope_err = _linear_fit(t, np.log(mean_c))
            gamma_fit, gamma_err = -slope, slope_err
        else:
            # flat-coherence case: report the direct drift estimate
            drift = (mean_c[-1] - mean_c[0]) / (t[-1] - t[0]) / mean_c[0]
            sem = float(np.std(np.abs(np.stack(traces))[:, -1], ddof=1)
                        / np.sqrt(ensemble_size))
            gamma_fit, gamma_err, r2 = -drift, sem / mean_c[0] / (t[-1] - t[0]), 1.0
        reports.append(EnsembleReport(
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
    hit_resolution: float = 1e-3  # Lambda * dt
    n_batches: int = 10
    n_fringes: float = 5.0

    def __post_init__(self):
        _require_positive(self, "hit_resolution", "n_batches")


def momentum_screen(psi: WaveFunction, pad: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Far-field intensity: (p axis, |psi(p)|^2), both in ascending p order.

    Zero-padding by `pad` evaluates the transform on a p grid `pad` times
    finer; this is exact interpolation for a state supported inside the box.
    """
    n = psi.grid.n_points * pad
    phi = np.fft.fftshift(np.fft.fft(psi.amps, n=n))
    p_axis = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(n, d=psi.grid.dx))
    intensity = np.abs(phi) ** 2 * psi.grid.dx**2 / (2.0 * np.pi)
    return p_axis, intensity


@lru_cache(maxsize=1)
def _two_arms(cfg: VisibilityConfig, d: float) -> _Start:
    grid = Grid1D.centered(cfg.grid_n, cfg.grid_extent)
    psi0 = superpose(*_packet_pair(grid, d, cfg.sigma0, cfg.mass), 1.0, 1.0)
    return _Start.of(grid, psi0.amps[None])


def _screen_worker(job, master_seed: int, index: int) -> np.ndarray:
    cfg, params, d, t_flight, units = job
    rng = trajectory_rng(master_seed, index)
    start = _two_arms(cfg, d)
    rate = params.total_rate_internal(units, cfg.mass)
    dt = cfg.hit_resolution / rate if rate > 0 else t_flight / 1000.0
    t_end = step_count(t_flight, dt) * dt
    evolution = start.flight(dt, cfg.mass)
    process = grw_process(evolution, rate, params.r_c, t_end, [t_end], rng)
    for t, evolution, event in process:
        if event is None:
            amps = evolution.at(t)
    return momentum_screen(WaveFunction(start.grid, amps[0], cfg.mass))[1]


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
    units: UnitSystem = DEFAULT_UNITS,
    keep_screen: bool = False,
) -> dict:
    """Ensemble-averaged far-field pattern vs the no-collapse control.

    The far-field fringe period is 2 pi / d; its contrast tracks the
    coherence between the two arms at separation exactly d.
    """
    _check_positive("t_flight", t_flight)
    if d < 12.0 * cfg.sigma0:
        raise ConfigError(
            f"arms are not well separated: d = {d:g} < 12 sigma0 = "
            f"{12 * cfg.sigma0:g}"
        )
    if d + 12.0 * cfg.sigma0 > cfg.grid_extent:
        raise ConfigError(
            f"arms do not fit the box: d + 12 sigma0 = "
            f"{d + 12 * cfg.sigma0:g} > extent = {cfg.grid_extent:g}"
        )
    fringe_spacing = 2.0 * np.pi / d
    grid = Grid1D.centered(cfg.grid_n, cfg.grid_extent)
    pad = 8
    p_axis = momentum_screen(
        gaussian_packet(grid, 0.0, 0.0, cfg.sigma0, cfg.mass), pad
    )[0]
    if pad * cfg.grid_extent / d < 8.0:
        raise ConfigError(
            f"far-field sampling too coarse: {pad * cfg.grid_extent / d:.1f} "
            "points per fringe (need >= 8)"
        )

    # no-collapse control is deterministic: a single trajectory suffices
    control_params = CollapseParams(0.0, params.r_c, params.n_nucleons)
    job0 = (cfg, control_params, d, t_flight, units)
    ideal = _screen_worker(job0, master_seed, 0)
    v_ideal = fringe_contrast(ideal, p_axis, fringe_spacing, cfg.n_fringes)

    job = (cfg, params, d, t_flight, units)
    densities = map_trajectories(_screen_worker, job, ensemble_size, master_seed, threads)
    stack = np.stack(densities)
    mean_intensity = stack.mean(axis=0)
    v_measured = fringe_contrast(mean_intensity, p_axis, fringe_spacing, cfg.n_fringes)

    # batch-means error bar on the contrast ratio
    batches = np.array_split(stack, cfg.n_batches)
    ratios = []
    for batch in batches:
        if len(batch) == 0:
            continue
        try:
            v_b = fringe_contrast(batch.mean(axis=0), p_axis, fringe_spacing, cfg.n_fringes)
        except StatisticsError:
            v_b = 0.0
        ratios.append(v_b / v_ideal)
    ratios = np.asarray(ratios)
    stderr = float(np.std(ratios, ddof=1) / np.sqrt(len(ratios))) if len(ratios) > 1 else 0.0

    v_analytic = visibility_analytic(d, params, units.time_to_si(t_flight))
    result = {
        "V_measured": float(v_measured),
        "V_ideal": float(v_ideal),
        "ratio": float(v_measured / v_ideal),
        "ratio_stderr": stderr,
        "V_analytic": v_analytic,
        "fringe_spacing": float(fringe_spacing),
        "n_trajectories": ensemble_size,
        "seed": master_seed,
    }
    if keep_screen:
        result["screen"] = {"p": p_axis, "mean": mean_intensity, "ideal": ideal}
    return result


# ---------------------------------------------------------------------------
# Heating and momentum diffusion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatingConfig:
    sigma0: float = 2.0
    mass: float = 1.0
    grid_n: int = 512
    grid_extent: float = 128.0
    dt_internal: float = 0.025
    sample_every: int = 10

    def __post_init__(self):
        _require_positive(self, "dt_internal", "sample_every")


@lru_cache(maxsize=1)
def _one_packet(cfg: HeatingConfig) -> _Start:
    grid = Grid1D.centered(cfg.grid_n, cfg.grid_extent)
    return _Start.of(grid, gaussian_packet(grid, 0.0, 0.0, cfg.sigma0, cfg.mass).amps[None])


def _heating_worker(job, master_seed: int, index: int):
    """One trajectory; returns (sample times, energy, <p^2>, hit count).

    The samples fall every sample_every steps of dt_internal and at t_total.
    Free drift keeps |fft(psi)|^2, so <p^2> and the energy <p^2>/2m are
    read from the spectrum of the anchor (the state after the last hit),
    and the state itself is never rebuilt at a sample.
    """
    cfg, params, t_total, units = job
    rng = trajectory_rng(master_seed, index)
    start = _one_packet(cfg)
    dt = cfg.dt_internal
    times = sample_times(dt, step_count(t_total, dt), cfg.sample_every)
    rate = params.total_rate_internal(units, cfg.mass)
    evolution = start.flight(dt, cfg.mass)
    p2, hits = [], 0
    process = grw_process(evolution, rate, params.r_c, times[-1], times, rng)
    for _, evolution, event in process:
        if event is None:
            p2.append(momentum_moments(evolution.spectrum()[0], start.grid)[1])
        else:
            hits += 1
    p2 = np.array(p2)
    return np.array(times), p2 / (2.0 * cfg.mass), p2, hits


def heating_experiment(
    params: CollapseParams,
    t_total: float,
    ensemble_size: int,
    cfg: HeatingConfig,
    master_seed: int,
    threads: int = 1,
    units: UnitSystem = DEFAULT_UNITS,
    keep_curves: bool = False,
) -> dict:
    """Linear fit of ensemble-mean energy and <p^2> growth vs time."""
    _check_positive("t_total", t_total)
    rate = params.total_rate_internal(units, cfg.mass)
    if rate * t_total < 5.0:
        raise StatisticsError(
            f"expected hits {rate * t_total:.2f} < 5; increase t_total or lambda"
        )
    job = (cfg, params, t_total, units)
    results = map_trajectories(_heating_worker, job, ensemble_size, master_seed, threads)
    t = results[0][0]
    energy = np.stack([r[1] for r in results]).mean(axis=0)
    p2 = np.stack([r[2] for r in results]).mean(axis=0)
    hits = float(np.mean([r[3] for r in results]))

    slope_e, _, r2_e, err_e = _linear_fit(t, energy)
    slope_p2, _, r2_p2, err_p2 = _linear_fit(t, p2)
    result = {
        "slope_energy": float(slope_e),
        "slope_energy_stderr": float(err_e),
        "slope_energy_analytic": heating_rate(rate, cfg.mass, params.r_c),
        "slope_p2": float(slope_p2),
        "slope_p2_stderr": float(err_p2),
        "slope_p2_analytic": momentum_diffusion_rate(rate, params.r_c),
        "r2_energy": float(r2_e),
        "r2_p2": float(r2_p2),
        "mean_hits": hits,
        "n_trajectories": ensemble_size,
        "seed": master_seed,
    }
    if keep_curves:
        result["curves"] = {"t": t, "energy": energy, "p2": p2}
    return result
