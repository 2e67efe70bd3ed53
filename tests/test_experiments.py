"""Small-ensemble smoke checks; the full-size gates live in test_acceptance."""

import json

import numpy as np
import pytest

from grwlab import experiments
from grwlab.collapse import CollapseParams, grw_process, grw_trajectory, sample_times
from grwlab.errors import ConfigError, DecisionTimeoutError, DomainError
from grwlab.experiments import (
    HEATING_SAMPLES,
    DecoherenceConfig,
    HeatingConfig,
    MeasurementConfig,
    VisibilityConfig,
    born_ensemble,
    _heating_worker,
    born_trials,
    decoherence_scan,
    fringe_contrast,
    heating_experiment,
    momentum_screen,
    padded_screen,
    screen_axis,
    visibility_experiment,
)
from grwlab.propagator import FreeFlight, Potential, drift_phase
from grwlab.qstate import Grid1D, gaussian_packet, superpose
from grwlab.rngstream import exponential_variate, trajectory_rng
from grwlab.units import convert_rate_to_si

THREADS = 2


def _params(lambda_internal, r_c, **kw):
    return CollapseParams(convert_rate_to_si(lambda_internal), r_c, **kw)


def test_born_trial_decides():
    cfg = MeasurementConfig(c_up=np.sqrt(0.5), c_down=np.sqrt(0.5))
    params = _params(1.0, 1.0, n_nucleons=cfg.pointer_n_nucleons)
    [outcome] = born_trials(cfg, params, [trajectory_rng(0, 0)])
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


def test_born_budget_is_hits_budget_over_rate():
    # a budget of 0.4 expected hits: the trial runs for exactly 0.4 / rate,
    # and one hit decides it, so it decides exactly when its first waiting
    # time falls within the budget
    cfg = MeasurementConfig(c_up=np.sqrt(0.5), c_down=np.sqrt(0.5),
                            hits_budget=0.4)
    params = _params(1.0, 1.0, n_nucleons=cfg.pointer_n_nucleons)
    rate = params.total_rate_internal()
    decided = []
    for i in range(30):
        try:
            born_trials(cfg, params, [trajectory_rng(4, i)])
            decided.append(True)
        except DecisionTimeoutError:
            decided.append(False)
    first_hit = [exponential_variate(trajectory_rng(4, i), rate) for i in range(30)]
    assert decided == [t <= cfg.hits_budget / rate for t in first_hit]
    assert 0 < sum(decided) < 30


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
    p, intensity = screen_axis(grid), padded_screen(momentum_screen(psi.amps, grid))
    assert fringe_contrast(intensity, p, 2 * np.pi / d, 5.0) == pytest.approx(
        1.0, abs=0.02
    )


def test_visibility_separation_preconditions():
    cfg = VisibilityConfig()
    with pytest.raises(ConfigError):
        visibility_experiment(4.0, _params(1.0, 1.0), 1.0, 4, cfg, 0)
    with pytest.raises(ConfigError):
        visibility_experiment(200.0, _params(1.0, 1.0), 1.0, 4, cfg, 0)


@pytest.mark.parametrize("t_flight", [0.9, 1.1])
def test_visibility_flies_t_flight_exactly(t_flight):
    # the arms fly t_flight, and a hit on either arm (d = 16 r_c) erases its
    # fringes, so the contrast ratio is the share of trajectories unhit by t_flight
    cfg = VisibilityConfig()
    params = _params(1.0, 4.0)
    res = visibility_experiment(64.0, params, t_flight, 200, cfg, 3, threads=THREADS)
    rate = params.total_rate_internal(cfg.mass)
    unhit = np.mean([exponential_variate(trajectory_rng(3, i), rate) > t_flight
                     for i in range(200)])
    assert res["V_analytic"] == pytest.approx(np.exp(-t_flight), rel=1e-12)
    assert res["ratio"] == pytest.approx(unhit, abs=0.02)


@pytest.mark.parametrize("n_fringes", [0, -1, 2.5])
def test_visibility_fringe_count_is_a_whole_positive_number(n_fringes):
    with pytest.raises(ConfigError):
        VisibilityConfig(n_fringes=n_fringes)


@pytest.mark.parametrize("config, key", [
    (VisibilityConfig, "n_batches"),
    (DecoherenceConfig, "n_samples"),
    (VisibilityConfig, "grid_n"),
])
def test_counts_must_be_whole_numbers(config, key):
    # a fractional count would fail later inside range(); the config names it
    with pytest.raises(ConfigError, match=f"^{key} must be "):
        config(**{key: 2.5})


def test_unhit_screen_is_the_screen_a_pass_reads_for_an_unhit_row():
    # the cached 2N-point screen stands for every row that leaves a pass
    # unhit, and a block of unhit rows sums it once per row
    cfg, d, t_flight = VisibilityConfig(), 64.0, 1.0
    start = experiments._two_arms(cfg, d)
    evolution = start.flight(cfg.mass, 5)
    amps = evolution.at(t_flight, np.array([True, False, True, True, False]))
    unhit = experiments._unhit_screen(cfg, d, t_flight)
    assert unhit.shape == (2 * cfg.grid_n,)
    for screen in momentum_screen(amps[:, 0], start.grid):
        assert screen.tobytes() == unhit.tobytes()
    job = (cfg, CollapseParams(0.0, 4.0), d, t_flight)
    block = experiments._screen_worker(job, [trajectory_rng(3, i) for i in range(4)])
    assert block.tobytes() == (unhit + unhit + unhit + unhit).tobytes()


def _direct_screen(amps: np.ndarray, grid: Grid1D) -> np.ndarray:
    """The far-field screen from one zero-padded 8N-point transform per row."""
    phi = np.fft.fftshift(np.fft.fft(amps, n=8 * grid.n_points), axes=-1)
    return np.abs(phi) ** 2 * grid.dx**2 / (2.0 * np.pi)


def _hit_arms():
    """Rows of visibility's two-arm state at t_flight after one pass of hits."""
    cfg, d, t_flight = VisibilityConfig(grid_n=512), 64.0, 1.0
    start = experiments._two_arms(cfg, d)
    rngs = [trajectory_rng(1, i) for i in range(6)]
    evolution = start.flight(cfg.mass, len(rngs))
    rate = _params(4.0, 4.0).total_rate_internal(cfg.mass)
    for _ in grw_process(evolution, rate, 4.0, t_flight, rngs):
        pass
    return evolution.at(t_flight)[:, 0], start.grid


def _random_rows(n: int):
    rng = np.random.default_rng(n)
    return rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n)), Grid1D.centered(n, 64.0)


@pytest.mark.parametrize("state", ["unhit", "hit", "random-512", "random-1024"])
def test_padded_screen_is_the_direct_8n_point_screen(state):
    # the 2N-point screen fixes the 8N-point one; they differ by FFT rounding
    # over about 13 radix levels, far below 1e-14 of the peak
    if state == "unhit":
        cfg = VisibilityConfig()
        start = experiments._two_arms(cfg, 64.0)
        amps, grid = start.flight(cfg.mass, 1).at(1.0)[:, 0], start.grid
    elif state == "hit":
        amps, grid = _hit_arms()
        assert not np.allclose(amps[0], amps[1])
    else:
        amps, grid = _random_rows(int(state.split("-")[1]))
    direct = _direct_screen(amps, grid)
    screen = padded_screen(momentum_screen(amps, grid))
    assert screen.shape == direct.shape == (len(amps), 8 * grid.n_points)
    assert np.all(screen >= 0.0)
    for row, ref in zip(screen, direct):
        assert np.max(np.abs(row - ref)) <= 1e-14 * ref.max()
    summed = padded_screen(momentum_screen(amps, grid).sum(axis=0))
    assert np.max(np.abs(summed - direct.sum(axis=0))) <= 1e-14 * direct.sum(axis=0).max()


def test_visibility_zero_rate_control():
    cfg = VisibilityConfig()
    res = visibility_experiment(64.0, CollapseParams(0.0, 4.0), 1.0, 8, cfg, 5,
                                threads=THREADS)
    assert res["ratio"] == pytest.approx(1.0, abs=1e-9)
    assert res["V_analytic"] == 1.0


def test_report_equality_ignores_its_table():
    cfg = VisibilityConfig()
    a, b = (visibility_experiment(64.0, _params(1.0, 4.0), 1.0, 6, cfg, 5)
            for _ in range(2))
    header, (p, mean, ideal) = a.table
    assert header == ["p", "intensity_mean", "intensity_ideal"]
    assert len(p) == len(mean) == len(ideal) == 8 * cfg.grid_n
    assert a == b and a.ratio == a["ratio"]
    b.table = None  # a screen-less report of the same fields
    assert a == b
    with pytest.raises(AttributeError):
        a.screen


def test_heating_needs_enough_hits():
    # the expected hit count follows from the config alone
    cfg = HeatingConfig()
    with pytest.raises(ConfigError, match="expected hits 0.10 < 5"):
        heating_experiment(_params(0.1, 1.0), 1.0, 4, cfg, 0)


def test_heating_samples_equal_intervals_of_t_total():
    # HEATING_SAMPLES = 20 intervals; at t_total = 5 they have the bits of
    # every 10th step of 0.025, the grid heating sampled on before
    for t_total in (3.0, 5.0):
        t = heating_experiment(_params(4.0, 1.0), t_total, 2, HeatingConfig(), 0).table[1][0]
        assert len(t) == HEATING_SAMPLES + 1 and t[0] == 0.0 and t[-1] == t_total
        np.testing.assert_allclose(np.diff(t), t_total / HEATING_SAMPLES, rtol=1e-12)
    assert list(t) == [b * 0.025 for b in range(0, 201, 10)]


def test_rc_is_checked_against_the_grid_for_runs_that_hit(monkeypatch):
    # 512 points over 128: 2 dx = 0.5 <= r_c <= extent / 8 = 16
    grid = Grid1D.centered(512, 128.0)
    for r_c in (0.5, 16.0):
        assert _params(4.0, r_c).hit_rate(grid) > 0
    for r_c in (0.49, 16.5):
        with pytest.raises(DomainError, match=r"^r_c must be in \[0.5, 16\]"):
            _params(4.0, r_c).hit_rate(grid)
        assert _params(0.0, r_c).hit_rate(grid) == 0  # never hits
        # an experiment checks it before any trajectory and names the key
        monkeypatch.setattr(experiments, "map_trajectories", None)
        with pytest.raises(ConfigError, match=r"^rc must be in \[0.5, 16\]"):
            heating_experiment(_params(4.0, r_c), 5.0, 2, HeatingConfig(), 0)


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
    dt = t_total / HEATING_SAMPLES
    t = sample_times(dt, HEATING_SAMPLES, 1)
    energy, p2, hits = _heating_worker((cfg, params, np.array(t)), [trajectory_rng(3, 0)])
    psi0 = gaussian_packet(Grid1D.centered(cfg.grid_n, cfg.grid_extent), 0.0, 0.0,
                           cfg.sigma0, cfg.mass)
    rec = grw_trajectory(psi0, Potential.free(), params, t_total, dt, 1,
                         trajectory_rng(3, 0))
    assert hits == rec.n_hits() >= 10
    assert list(t) == rec.sample_times
    obs = rec.observables_at_samples
    np.testing.assert_allclose(p2, [o["mean_p2"] for o in obs], rtol=1e-12, atol=0)
    np.testing.assert_allclose(energy, [o["energy"] for o in obs], rtol=1e-12, atol=0)


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


def _decohere_job(d):
    return (DecoherenceConfig(), _params(2.0, 1.0), d)


def _x_space_coherence(job, rng):
    """_coherence_samples the direct way: rebuild psi(t) at each sample and
    take both overlaps in x space.  Returns (samples, hit count)."""
    cfg, params, d = job
    grid = Grid1D.centered(cfg.grid_n, cfg.grid_extent)
    sigma = cfg.packet_sigma_over_rc * params.r_c
    phi_l = gaussian_packet(grid, -d / 2.0, 0.0, sigma, cfg.mass)
    phi_r = gaussian_packet(grid, +d / 2.0, 0.0, sigma, cfg.mass)
    psi = superpose(phi_l, phi_r, 1.0, 1.0)
    times = experiments._decoherence_grid(cfg, params, d)
    evolution = FreeFlight(grid, cfg.mass, psi.amps[None, None])
    out, hits = [], 0
    for rnd in grw_process(
        evolution, params.total_rate_internal(), params.r_c, times[-1], [rng]
    ):
        hits += rnd.centers is not None
        [lo], [hi] = rnd.samples(times)
        for t in times[lo:hi]:
            psi_t = psi.with_amps(evolution.at(t)[0, 0])
            out.append(phi_l.overlap(psi_t) * np.conj(phi_r.overlap(psi_t)))
    return np.array(out), hits


@pytest.mark.parametrize("d", [0.5, 2.0, 10.0])
def test_decohere_k_space_samples_match_x_space_overlaps(d):
    job = _decohere_job(d)
    [fast] = experiments._coherence_samples(job, [trajectory_rng(8, 1)])
    slow, hits = _x_space_coherence(job, trajectory_rng(8, 1))
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
        for rnd in real_process(*args):
            before = len(calls)
            yield rnd
            at_samples.append(calls[before:])

    monkeypatch.setattr(experiments, "grw_process", watched)
    job = _decohere_job(2.0)
    experiments._coherence_samples(job, [trajectory_rng(1, 0)])  # builds the set-up
    calls.clear()
    at_samples.clear()
    [samples] = experiments._coherence_samples(job, [trajectory_rng(1, 0)])
    hits = len(at_samples) - 1  # round 0 has no hit
    assert hits >= 1 and len(samples) >= 17
    # a sample reads the anchor's spectrum, taken once per anchor and reused
    # by the next hit; it takes no inverse FFT.  A hit takes one inverse FFT
    # (the drift to its time) and no other transform: its center is drawn
    # without a density convolution
    assert sum(at_samples, []) == ["fft"] * hits
    assert sorted(calls) == sorted(["fft", "ifft"] * hits)


GRID1K = Grid1D.centered(1024, 64.0)


def _carried_chi(grid, mass, rows, waits, centers, n_hits):
    """Run (W, 1, N) rows through read -> hit -> anchor cycles as
    grw_process does, carrying each anchor's back-phase as decohere's
    worker does (experiments._chi_across_hits): row w takes n_hits[w]
    hits, the c-th waits[w, c] after the last, centered at centers[w, c]
    (r_c = 1), and leaves after its last.  Yields each hit's row ids, their
    anchors, times and chi, the anchors' spectra drifted back to t = 0."""
    flight = FreeFlight(grid, mass, rows)
    ids, t, back = np.arange(len(rows)), np.zeros(len(rows)), None
    for c in range(n_hits.max()):
        going = n_hits[ids] > c
        kept, ids = np.flatnonzero(going), ids[going]
        t = t[going] + waits[ids, c]
        if going.all():
            going = slice(None)
        g = np.exp(-0.5 * (grid.x - centers[ids, c][:, None, None]) ** 2)
        amps = g * flight.at(t, going)
        amps /= np.sqrt(np.sum(np.abs(amps) ** 2, axis=(1, 2), keepdims=True) * grid.dx)
        flight.anchor(amps, t)
        back, chi = experiments._chi_across_hits(back, kept, flight.phase,
                                                 flight.spectrum()[:, 0], flight.buffers)
        yield ids, amps, t, chi


def _hit_schedule(n_rows, seed=0):
    """Rows, waits, centers and hit counts for _carried_chi: one row leaves
    after every fifth cycle, and row 0's fourth hit comes with no wait."""
    rng = np.random.default_rng(seed)
    x0 = np.linspace(-8.0, 8.0, n_rows)
    waits = rng.uniform(0.0, 0.2, (n_rows, 24))
    waits[0, 3] = 0.0  # read at its anchor time: the read is the anchor itself
    centers = x0[:, None] + rng.normal(0.0, 0.5, (n_rows, 24))
    n_hits = np.full(n_rows, 24)
    n_hits[:4] = [5, 10, 15, 20]
    rows = np.stack([gaussian_packet(GRID1K, x, 0.1 * i, 1.0, 5.0).amps
                     for i, x in enumerate(x0)])[:, None]
    return rows, waits, centers, n_hits


def test_decohere_chi_carried_across_hits_matches_a_fresh_exponential():
    # after each hit chi is the read's phase carried over in one multiply
    # per hit; it must stay drift_phase(-t) * fft(anchor) up to rounding.
    # An angle theta = k^2 t / 2m is formed to 1.5 eps relative in either
    # form (t - t_a, * k^2, / m; the carried angles add up to theta); exp
    # and each complex multiply add about one eps per factor.  So row w
    # after n hits stays within eps (4 theta + 3 n + 6) |fft(anchor)|.
    mass, eps = 5.0, np.finfo(float).eps
    k2 = GRID1K.k ** 2
    cycles = 0
    for n, (ids, amps, t, chi) in enumerate(
            _carried_chi(GRID1K, mass, *_hit_schedule(18)), 1):
        spectrum = np.fft.fft(amps)[:, 0]
        fresh = drift_phase(GRID1K, -t, mass) * spectrum
        theta = k2 * t[:, None] / (2.0 * mass)
        assert np.all(np.abs(chi - fresh) <= eps * (4 * theta + 3 * n + 6) * np.abs(spectrum))
        cycles += 1
    assert cycles == 24 and theta.max() > 100.0


def test_decohere_chi_rows_carried_together_match_rows_carried_alone_bitwise():
    # 18 rows of 1024 points make the carried products >= 256 kB, large
    # enough for a * to swap its operands, as in test_propagator's
    # test_free_flight_rows_read_together_match_rows_read_alone_bitwise.
    # Decohere's mass of 1e6 keeps its drift phases so close to 1 that such
    # a swap left test_lockstep's block sums unchanged: a mass of 5 here.
    rows, waits, centers, n_hits = _hit_schedule(18)
    together = {}
    for ids, _, _, chi in _carried_chi(GRID1K, 5.0, rows, waits, centers, n_hits):
        for w, row in zip(ids, chi):
            together.setdefault(w, []).append(row.tobytes())
    for w in range(len(rows)):
        alone = [chi[0].tobytes() for *_, chi in _carried_chi(
            GRID1K, 5.0, rows[w:w + 1], waits[w:w + 1], centers[w:w + 1], n_hits[w:w + 1])]
        assert len(alone) == n_hits[w]
        assert together[w] == alone


def test_ensemble_set_up_is_read_only():
    job = _decohere_job(2.0)
    setup = experiments._decoherence_setup(*job)
    arrays = [setup.start.rows, setup.start.spectrum, setup.table]
    before = [a.copy() for a in arrays]
    experiments._coherence_samples(job, [trajectory_rng(2, 0)])
    for a, b in zip(arrays, before):
        assert a.tobytes() == b.tobytes()
        with pytest.raises(ValueError):
            a[..., 0] = 0.0
    cfg = MeasurementConfig(c_up=np.sqrt(0.5), c_down=np.sqrt(0.5))
    start = experiments._initial_hybrid(cfg)
    assert not (start.rows.flags.writeable or start.spectrum.flags.writeable)


def test_mass_scaled_visibility_matches_the_same_rate_by_nucleon_count():
    # with mass_scaling the rate is mass * lambda: the closed form needs the
    # mass too, and the run equals one at n_nucleons = mass
    cfg = VisibilityConfig()
    scaled = _params(1e-6, 4.0, mass_scaling=True)
    counted = _params(1e-6, 4.0, n_nucleons=cfg.mass)
    res = visibility_experiment(64.0, scaled, 1.0, 4, cfg, 9)
    assert res == visibility_experiment(64.0, counted, 1.0, 4, cfg, 9)
    assert res["V_analytic"] < 1.0


def test_mass_scaled_decoherence_matches_the_same_rate_by_nucleon_count():
    # the run, its sample grid and the closed form all take the packets' mass
    cfg = DecoherenceConfig(grid_n=512, n_efoldings=1.0, n_samples=4)
    scaled = _params(2e-6, 1.0, mass_scaling=True)
    counted = _params(2e-6, 1.0, n_nucleons=cfg.mass)
    res = decoherence_scan([0.5, 10.0], scaled, 6, cfg, 9)
    assert json.dumps(res) == json.dumps(decoherence_scan([0.5, 10.0], counted, 6, cfg, 9))
    assert res[1].fit_diagnostics["gamma_analytic_internal"] > 1.9


def test_mass_scaled_born_matches_the_same_rate_by_nucleon_count():
    # the pointer's mass is its nucleon count
    cfg = MeasurementConfig(c_up=np.sqrt(0.3), c_down=np.sqrt(0.7))
    scaled = _params(1.0, 1.0, mass_scaling=True)
    counted = _params(1.0, 1.0, n_nucleons=cfg.pointer_n_nucleons)
    res = born_ensemble(cfg, scaled, 12, 9)
    assert json.dumps(res) == json.dumps(born_ensemble(cfg, counted, 12, 9))
    assert res.table == born_ensemble(cfg, counted, 12, 9).table
