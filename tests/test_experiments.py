"""Small-ensemble smoke checks; the full-size gates live in test_acceptance."""

import numpy as np
import pytest

from grwlab import experiments
from grwlab.collapse import CollapseParams, grw_process, grw_trajectory
from grwlab.errors import ConfigError, StatisticsError
from grwlab.experiments import (
    DecoherenceConfig,
    EnsembleReport,
    HeatingConfig,
    MeasurementConfig,
    VisibilityConfig,
    born_ensemble,
    _heating_worker,
    born_trial,
    decoherence_scan,
    fringe_contrast,
    heating_experiment,
    momentum_screen,
    visibility_experiment,
)
from grwlab.propagator import Potential, flight
from grwlab.qstate import Grid1D, gaussian_packet, superpose
from grwlab.rngstream import trajectory_rng
from grwlab.units import DEFAULT_UNITS, convert_rate_to_si

THREADS = 2


def _params(lambda_internal, r_c, **kw):
    return CollapseParams(convert_rate_to_si(lambda_internal), r_c, **kw)


def test_born_trial_decides():
    cfg = MeasurementConfig(c_up=np.sqrt(0.5), c_down=np.sqrt(0.5))
    params = _params(1.0, 1.0, n_nucleons=cfg.pointer_n_nucleons)
    outcome = born_trial(cfg, params, trajectory_rng(0, 0))
    assert outcome in ("up", "down")


def test_born_degenerate_amplitudes():
    cfg = MeasurementConfig(c_up=1.0, c_down=0.0)
    params = _params(1.0, 1.0, n_nucleons=cfg.pointer_n_nucleons)
    report = born_ensemble(cfg, params, 20, master_seed=1, threads=THREADS)
    assert report.outcome_counts == {"up": 20, "down": 0}
    assert report.fit_diagnostics["p_value"] == 1.0


def test_born_small_ensemble_tracks_weights():
    cfg = MeasurementConfig(c_up=np.sqrt(0.8), c_down=np.sqrt(0.2))
    params = _params(1.0, 1.0, n_nucleons=cfg.pointer_n_nucleons)
    report = born_ensemble(cfg, params, 200, master_seed=2, threads=THREADS)
    # 5 sigma guard band at this small n
    assert abs(report.estimate - 0.8) < 5 * np.sqrt(0.8 * 0.2 / 200)


def test_born_normalization_enforced():
    with pytest.raises(ConfigError):
        MeasurementConfig(c_up=1.0, c_down=1.0)


def test_decoherence_zero_separation_keeps_coherence():
    params = _params(2.0, 1.0)
    cfg = DecoherenceConfig(n_samples=8)
    (report,) = decoherence_scan([0.0], params, 40, cfg, master_seed=3,
                                 threads=THREADS)
    assert report.fit_diagnostics["gamma_analytic_internal"] == 0.0
    assert report.fit_diagnostics["coherence_final"] == pytest.approx(
        report.fit_diagnostics["coherence_initial"], rel=0.05
    )


def test_decoherence_fit_tracks_analytic_small_n():
    params = _params(2.0, 1.0)
    cfg = DecoherenceConfig(n_samples=8)
    (report,) = decoherence_scan([2.0], params, 150, cfg, master_seed=4,
                                 threads=THREADS)
    gamma = report.fit_diagnostics["gamma_analytic_internal"]
    assert report.estimate == pytest.approx(gamma, rel=0.25)
    assert report.fit_diagnostics["r2"] > 0.9


def test_fringe_contrast_synthetic():
    x = np.linspace(-3.0, 3.0, 4001)
    spacing = 0.5
    for v in (1.0, 0.5, 0.1):
        pattern = np.exp(-0.1 * x**2) * (1 + v * np.cos(2 * np.pi * x / spacing))
        assert fringe_contrast(pattern, x, spacing, 6.0) == pytest.approx(v, rel=0.02)
    flat = np.exp(-0.1 * x**2)
    assert fringe_contrast(flat, x, spacing, 6.0) < 0.01


def test_momentum_screen_of_two_packets_has_fringes():
    grid = Grid1D.centered(1024, 128.0)
    d = 64.0
    psi = superpose(
        gaussian_packet(grid, -d / 2, 0.0, 1.0, 1e6),
        gaussian_packet(grid, +d / 2, 0.0, 1.0, 1e6),
        1.0, 1.0,
    )
    p, intensity = momentum_screen(psi)
    assert fringe_contrast(intensity, p, 2 * np.pi / d, 5.0) == pytest.approx(
        1.0, abs=0.02
    )


def test_visibility_separation_preconditions():
    cfg = VisibilityConfig()
    with pytest.raises(ConfigError):
        visibility_experiment(4.0, _params(1.0, 1.0), 1.0, 4, cfg, 0)
    with pytest.raises(ConfigError):
        visibility_experiment(200.0, _params(1.0, 1.0), 1.0, 4, cfg, 0)


def test_visibility_zero_rate_control():
    cfg = VisibilityConfig()
    res = visibility_experiment(64.0, CollapseParams(0.0, 4.0), 1.0, 8, cfg, 5,
                                threads=THREADS)
    assert res["ratio"] == pytest.approx(1.0, abs=1e-9)
    assert res["V_analytic"] == 1.0


def test_heating_needs_enough_hits():
    cfg = HeatingConfig()
    with pytest.raises(StatisticsError):
        heating_experiment(_params(0.1, 1.0), 1.0, 4, cfg, 0)


def test_heating_small_ensemble_sane():
    cfg = HeatingConfig()
    res = heating_experiment(_params(4.0, 1.0), 5.0, 200, cfg, master_seed=6,
                             threads=THREADS)
    assert res["slope_energy_analytic"] == pytest.approx(1.0)
    assert res["slope_p2_analytic"] == pytest.approx(2.0)
    # generous band: the tight 5% gate runs at n = 1e4 in the acceptance suite
    assert res["slope_energy"] == pytest.approx(res["slope_energy_analytic"], rel=0.3)
    assert res["slope_p2"] == pytest.approx(res["slope_p2_analytic"], rel=0.3)
    assert res["mean_hits"] == pytest.approx(20.0, rel=0.1)


def test_heating_samples_from_anchor_spectrum_match_observables():
    # heating reads <p^2> and the energy from the anchor's spectrum; the
    # full x-space observables of the same trajectory must agree
    cfg, params, t_total = HeatingConfig(), _params(4.0, 1.0), 5.0
    t, energy, p2, hits = _heating_worker((cfg, params, t_total, DEFAULT_UNITS), 3, 0)
    psi0 = gaussian_packet(Grid1D.centered(cfg.grid_n, cfg.grid_extent), 0.0, 0.0,
                           cfg.sigma0, cfg.mass)
    rec = grw_trajectory(psi0, Potential.free(), params, t_total, cfg.dt_internal,
                         cfg.sample_every, trajectory_rng(3, 0))
    assert hits == rec.n_hits() >= 10
    assert list(t) == rec.sample_times
    obs = rec.observables_at_samples
    np.testing.assert_allclose(p2, [o["mean_p2"] for o in obs], rtol=1e-12, atol=0)
    np.testing.assert_allclose(energy, [o["energy"] for o in obs], rtol=1e-12, atol=0)


def test_report_rejects_bad_counts():
    with pytest.raises(Exception):
        EnsembleReport(
            n_trajectories=10,
            outcome_counts={"up": 4, "down": 4},  # does not sum to n
            estimate=0.4,
            stderr=0.1,
            fit_diagnostics={},
            seed=0,
        )


def _small_scan(separations, master_seed):
    cfg = DecoherenceConfig(grid_n=512, n_efoldings=1.0, n_samples=4)
    return decoherence_scan(separations, _params(2.0, 1.0), 6, cfg,
                            master_seed=master_seed)


def test_decoherence_separations_do_not_share_streams():
    # separation 1 of seed 5 must not replay separation 0 of seed 6
    shifted = _small_scan([10.0, 2.0], master_seed=5)[1]
    base = _small_scan([2.0], master_seed=6)[0]
    assert shifted.fit_diagnostics != base.fit_diagnostics
    assert shifted.seed == 5


def test_decoherence_scan_accepts_largest_seed():
    reports = _small_scan([10.0, 2.0], master_seed=2**64 - 1)
    assert [r.seed for r in reports] == [2**64 - 1] * 2


def _decohere_job(d, stream=0):
    return (DecoherenceConfig(), _params(2.0, 1.0), d, DEFAULT_UNITS, stream)


def _x_space_coherence(job, master_seed, index):
    """_coherence_samples the direct way: rebuild psi(t) at each sample and
    take both overlaps in x space.  Returns (samples, hit count)."""
    cfg, params, d, units, stream = job
    grid = Grid1D.centered(cfg.grid_n, cfg.grid_extent)
    sigma = cfg.packet_sigma_over_rc * params.r_c
    phi_l = gaussian_packet(grid, -d / 2.0, 0.0, sigma, cfg.mass)
    phi_r = gaussian_packet(grid, +d / 2.0, 0.0, sigma, cfg.mass)
    psi = superpose(phi_l, phi_r, 1.0, 1.0)
    dt, times = experiments._decoherence_grid(cfg, params, d, units)
    evolution = flight(grid, Potential.free(), dt, cfg.mass, psi.amps[None])
    rng = trajectory_rng(master_seed, index, stream)
    out, hits = [], 0
    for t, evolution, event in grw_process(
        evolution, params.total_rate_internal(units), params.r_c, times[-1], times, rng
    ):
        if event is None:
            psi_t = psi.with_amps(evolution.at(t)[0])
            out.append(phi_l.overlap(psi_t) * np.conj(phi_r.overlap(psi_t)))
        else:
            hits += 1
    return np.array(out), hits


@pytest.mark.parametrize("d", [0.5, 2.0, 10.0])
def test_decohere_k_space_samples_match_x_space_overlaps(d):
    job = _decohere_job(d)
    fast = experiments._coherence_samples(job, 8, 1)
    slow, hits = _x_space_coherence(job, 8, 1)
    assert hits >= 1 and len(fast) == len(slow) >= 17
    # relative to the initial coherence: after a hit at d = 10 r_c the
    # coherence itself is ~1e-22, far below the round-off of either sum
    np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12 * abs(slow[0]))


def test_decohere_samples_take_no_inverse_fft(monkeypatch):
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(*args, _real=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    real_process, at_samples = experiments.grw_process, []

    def watched(*args):
        for item in real_process(*args):
            before = len(calls)
            yield item
            if item[2] is None:
                at_samples.append(calls[before:])

    monkeypatch.setattr(experiments, "grw_process", watched)
    job = _decohere_job(2.0)
    experiments._coherence_samples(job, 1, 0)  # builds the set-up
    calls.clear()
    at_samples.clear()
    samples = experiments._coherence_samples(job, 1, 0)
    hits = calls.count("irfft")  # one density convolution per hit
    assert hits >= 1 and len(at_samples) == len(samples) >= 17
    # a sample reads the anchor's spectrum, taken once per anchor and reused
    # by the next hit; it takes no inverse FFT
    assert sum(at_samples, []) == ["fft"] * hits
    assert sorted(calls) == sorted(["fft", "ifft", "rfft", "irfft"] * hits)


def test_ensemble_set_up_is_read_only():
    job = _decohere_job(2.0)
    setup = experiments._decoherence_setup(*job[:4])
    arrays = [setup.start.rows, setup.start.spectrum, setup.phases, setup.packets]
    before = [a.copy() for a in arrays]
    experiments._coherence_samples(job, 2, 0)
    for a, b in zip(arrays, before):
        assert a.tobytes() == b.tobytes()
        with pytest.raises(ValueError):
            a[..., 0] = 0.0
    cfg = MeasurementConfig(c_up=np.sqrt(0.5), c_down=np.sqrt(0.5))
    start = experiments._initial_hybrid(cfg)
    assert not (start.rows.flags.writeable or start.spectrum.flags.writeable)
