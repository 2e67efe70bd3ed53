import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grwlab.errors import DomainError, StepSizeError
from grwlab.propagator import (
    FreeFlight,
    Potential,
    Stepper,
    drift_phase,
    split_step,
    spread_analytic,
)
from grwlab.qstate import Grid1D, gaussian_packet, observables

GRID = Grid1D.centered(512, 64.0)
GRID1K = Grid1D.centered(1024, 64.0)
# smaller box for harmonic runs: keeps dt max|V| under the step guard
HGRID = Grid1D.centered(64, 16.0)


def test_free_spreading_matches_closed_form():
    psi = gaussian_packet(GRID, 0.0, 0.0, sigma=1.0, mass=1.0)
    out = split_step(psi, Potential.free(), dt=0.004, n_steps=1000)  # t = 4
    var = observables(out)["var_x"]
    expected = spread_analytic(1.0, 1.0, 4.0) ** 2
    assert expected == pytest.approx(5.0)  # sigma^2 (1 + (t / 2 m sigma^2)^2)
    assert var == pytest.approx(expected, rel=1e-4)


def test_free_drift_velocity():
    psi = gaussian_packet(GRID, -5.0, 2.0, sigma=1.0, mass=1.0)
    out = split_step(psi, Potential.free(), dt=0.004, n_steps=500)
    assert observables(out)["mean_x"] == pytest.approx(-5.0 + 2.0 * 2.0, rel=1e-6)


def test_harmonic_period_revival():
    # coherent state returns to itself after one period T = 2 pi / omega
    omega = 1.0
    psi = gaussian_packet(HGRID, 2.0, 0.0, sigma=np.sqrt(0.5), mass=1.0)
    n = 4000
    out = split_step(psi, Potential.harmonic(omega), dt=2 * np.pi / n, n_steps=n)
    fidelity = abs(np.vdot(psi.amps, out.amps) * HGRID.dx) ** 2
    assert fidelity == pytest.approx(1.0, abs=1e-6)


def test_strang_convergence_order():
    # splitting is exact for the free case, so measure on a harmonic trap
    psi = gaussian_packet(HGRID, 1.5, 0.0, sigma=1.0, mass=1.0)
    v = Potential.harmonic(1.0)
    t = 1.0
    ref = split_step(psi, v, dt=t / 16384, n_steps=16384)
    dts, errs = [], []
    for n in (100, 200, 400, 800, 1000):
        out = split_step(psi, v, dt=t / n, n_steps=n)
        err = np.linalg.norm(out.amps - ref.amps) * np.sqrt(HGRID.dx)
        dts.append(t / n)
        errs.append(err)
    order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert order == pytest.approx(2.0, abs=0.2)


def test_norm_drift():
    psi = gaussian_packet(HGRID, 0.0, 1.0, sigma=1.0, mass=1.0)
    out = split_step(psi, Potential.harmonic(0.5), dt=0.005, n_steps=10_000)
    assert abs(out.norm2() - 1.0) < 1e-10


def test_step_size_guards():
    psi = gaussian_packet(GRID, 0.0, 0.0, sigma=1.0, mass=1.0)
    with pytest.raises(StepSizeError):
        # dt max|V| too large at the box edge
        split_step(psi, Potential.harmonic(10.0), dt=0.05, n_steps=1)
    with pytest.raises(DomainError):
        split_step(psi, Potential.free(), dt=0.004, n_steps=-1)


def test_zero_steps_is_identity():
    psi = gaussian_packet(GRID, 1.0, -1.0, sigma=1.0, mass=1.0)
    out = split_step(psi, Potential.free(), dt=0.004, n_steps=0)
    np.testing.assert_array_equal(out.amps, psi.amps)


def test_stepper_matches_split_step():
    # split_step still steps when there is a potential
    psi = gaussian_packet(HGRID, 0.0, 1.0, sigma=1.0, mass=1.0)
    v = Potential.harmonic(1.0)
    stepper = Stepper(HGRID, v, 0.004, 1.0)
    amps = psi.amps
    for _ in range(50):
        amps = stepper.step(amps)
    out = split_step(psi, v, dt=0.004, n_steps=50)
    np.testing.assert_array_equal(amps, out.amps)


def test_free_split_step_is_one_exact_drift():
    psi = gaussian_packet(GRID, 0.0, 1.0, sigma=1.0, mass=1.0)
    out = split_step(psi, Potential.free(), dt=0.004, n_steps=50)
    drift = np.fft.ifft(drift_phase(GRID, 50 * 0.004, 1.0) * np.fft.fft(psi.amps))
    assert out.amps.tobytes() == drift.tobytes()
    # free Strang steps are exact too, up to round-off
    stepper = Stepper(GRID, Potential.free(), 0.004, 1.0)
    amps = psi.amps
    for _ in range(50):
        amps = stepper.step(amps)
    np.testing.assert_allclose(out.amps, amps, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [512, 1024])
def test_drift_phase_matches_full_spectrum_bitwise(n):
    # drift_phase takes exp on the n/2 + 1 distinct k^2 only and mirrors it
    grid = Grid1D.centered(n, 64.0)
    rng = np.random.default_rng(n)
    for mass in (1.0, 3.0, 1e6, 1e8):
        for tau in rng.uniform(-50.0, 50.0, 200):
            full = np.exp(-0.5j * tau * grid.k**2 / mass)
            assert drift_phase(grid, tau, mass).tobytes() == full.tobytes()


def test_free_flight_matches_free_steps_across_hits():
    # the same hits (times on the step grid, fixed centers) applied between
    # exact drifts and between free Strang steps give the same state
    dt, mass, r_c = 0.01, 5.0, 1.0
    psi = gaussian_packet(GRID, -2.0, 0.5, sigma=2.0, mass=mass)
    hits = [(37, -1.0), (38, 0.5), (140, 2.0), (300, -0.5)]
    stepper = Stepper(GRID, Potential.free(), dt, mass)
    stepped, flight, b = psi.amps, FreeFlight(GRID, mass, psi.amps[None, None]), 0
    for b_hit, a in hits:
        for _ in range(b_hit - b):
            stepped = stepper.step(stepped)
        b = b_hit
        g = np.exp(-((GRID.x - a) ** 2) / (2 * r_c**2))
        stepped = g * stepped / np.sqrt(np.sum(np.abs(g * stepped) ** 2) * GRID.dx)
        exact = g * flight.at(b_hit * dt)
        flight.anchor(exact / np.sqrt(np.sum(np.abs(exact) ** 2) * GRID.dx),
                      np.array([b_hit * dt]))
    for _ in range(400 - b):
        stepped = stepper.step(stepped)
    np.testing.assert_allclose(flight.at(400 * dt)[0, 0], stepped, rtol=0, atol=1e-10)


def test_free_flight_rows_read_together_match_rows_read_alone_bitwise():
    # 17 of 18 rows of 1024 points: the selected spectra form a 278 kB
    # temporary, large enough for NumPy to reuse it as the output of a *
    # product, which swaps the operands and changes the rows' last bits
    grid = Grid1D.centered(1024, 64.0)
    rows = np.stack([gaussian_packet(grid, -8.0 + i, 0.3 * i, 1.0, 1.0).amps
                     for i in range(18)])[:, None]
    t = np.linspace(0.0, 0.1, 18)
    together = FreeFlight(grid, 1.0, rows)
    together.anchor(rows, t)
    read = together.at(0.7, np.arange(18) > 0)
    for w in range(1, 18):
        alone = FreeFlight(grid, 1.0, rows[w:w + 1])
        alone.anchor(rows[w:w + 1], t[w:w + 1])
        assert read[w - 1].tobytes() == alone.at(0.7).tobytes()


def _hit_cycles(grid, mass, rows, waits, centers, n_hits):
    """Run (W, 1, N) rows through read -> hit -> anchor cycles as
    grw_process does: row w takes n_hits[w] hits, the c-th waits[w, c] after
    the last, centered at centers[w, c] (r_c = 1), and leaves after its
    last.  origin_spectrum is read in every round.  Yields each hit's row
    ids, their anchors, times and origin_spectrum."""
    flight = FreeFlight(grid, mass, rows)
    ids, t = np.arange(len(rows)), np.zeros(len(rows))
    for c in range(n_hits.max()):
        flight.origin_spectrum()
        going = n_hits[ids] > c
        ids = ids[going]
        t = t[going] + waits[ids, c]
        if going.all():
            going = slice(None)
        g = np.exp(-0.5 * (grid.x - centers[ids, c][:, None, None]) ** 2)
        amps = g * flight.at(t, going)
        amps /= np.sqrt(np.sum(np.abs(amps) ** 2, axis=(1, 2), keepdims=True) * grid.dx)
        flight.anchor(amps, t)
        yield ids, amps, t, flight.origin_spectrum()


def _hit_schedule(n_rows, seed=0):
    """Rows, waits, centers and hit counts for _hit_cycles: one row leaves
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


def test_origin_spectrum_carried_across_hits_matches_a_fresh_exponential():
    # after each hit origin_spectrum is the read's phase carried over in one
    # multiply per hit; it must stay drift_phase(-t) * fft(anchor) up to
    # rounding.  An angle theta = k^2 t / 2m is formed to 1.5 eps relative in
    # either form (t - t_a, * k^2, / m; the carried angles add up to theta);
    # exp and each complex multiply add about one eps per factor.  So row w
    # after n hits stays within eps (4 theta + 3 n + 6) |fft(anchor)|.
    mass, eps = 5.0, np.finfo(float).eps
    schedule = _hit_schedule(18)
    k2 = GRID1K.k ** 2
    cycles = 0
    for n, (ids, amps, t, chi) in enumerate(_hit_cycles(GRID1K, mass, *schedule), 1):
        spectrum = np.fft.fft(amps)
        fresh = drift_phase(GRID1K, -t, mass)[:, None, :] * spectrum
        theta = k2 * t[:, None, None] / (2.0 * mass)
        assert np.all(np.abs(chi - fresh) <= eps * (4 * theta + 3 * n + 6) * np.abs(spectrum))
        cycles += 1
    assert cycles == 24 and theta.max() > 100.0


def test_origin_spectrum_rows_carried_together_match_rows_carried_alone_bitwise():
    # 18 rows of 1024 points make the carried products >= 256 kB, large
    # enough for a * to swap its operands, as in
    # test_free_flight_rows_read_together_match_rows_read_alone_bitwise
    rows, waits, centers, n_hits = _hit_schedule(18)
    together = {}
    for ids, _, _, chi in _hit_cycles(GRID1K, 5.0, rows, waits, centers, n_hits):
        for w, row in zip(ids, chi):
            together.setdefault(w, []).append(row.tobytes())
    for w in range(len(rows)):
        alone = [chi[0].tobytes() for *_, chi in _hit_cycles(
            GRID1K, 5.0, rows[w:w + 1], waits[w:w + 1], centers[w:w + 1], n_hits[w:w + 1])]
        assert len(alone) == n_hits[w]
        assert together[w] == alone


def test_origin_spectrum_falls_back_to_an_exponential():
    # anchors that are not the last read's rows at its times take
    # drift_phase(-t); anchors at t = 0 are their spectrum
    rows = _hit_schedule(18)[0][:3]
    flight = FreeFlight(GRID1K, 5.0, rows)
    assert flight.origin_spectrum().tobytes() == np.fft.fft(rows).tobytes()
    read = flight.at(0.5)
    for t in (np.full(3, 0.25), np.full(3, 0.5)):
        flight.anchor(read, t)
        fresh = drift_phase(GRID1K, -t, 5.0)[:, None, :] * np.fft.fft(read)
        # the second anchor's read is not the last read: origin_spectrum took none
        assert flight.origin_spectrum().tobytes() == fresh.tobytes()


def test_free_flight_fails_a_state_that_wraps_the_box():
    # the windows are cyclic: a packet across the seam leaves most of the
    # box empty, and so does one half of a flat state
    psi = gaussian_packet(GRID, 0.0, 0.0, sigma=2.0, mass=1.0)
    seam = np.roll(psi.amps, GRID.n_points // 2)
    FreeFlight(GRID, 1.0, seam[None, None]).at(0.0)
    halves = np.stack([GRID.x < 0, GRID.x >= 0]).astype(complex)[None]
    FreeFlight(GRID, 1.0, halves[:, :1]).at(0.0)
    # a state's branch rows are summed: the two halves fill the box
    with pytest.raises(DomainError, match="wraps the periodic box"):
        FreeFlight(GRID, 1.0, halves).at(0.0)
    # an empty window of N/32 = 16 points astride two of the 32 disjoint
    # windows is found; one of 15 points leaves 1/497 of the mass in every window
    gap = np.ones(GRID.n_points, dtype=complex)
    gap[8:24] = 0.0
    FreeFlight(GRID, 1.0, gap[None, None]).at(0.0)
    gap[8] = 1.0
    with pytest.raises(DomainError, match="wraps the periodic box"):
        FreeFlight(GRID, 1.0, gap[None, None]).at(0.0)


@pytest.mark.parametrize("n", [512, 1024])
def test_stepper_rows_match_single_steps_bitwise(n):
    # the driver steps all rows in one call; each row must come out
    # exactly as if evolved alone, or multi-branch runs would lose their bytes
    grid = Grid1D.centered(n, 64.0)
    rows = np.stack([
        gaussian_packet(grid, -8.0, 1.0, 1.0, 3.0).amps,
        0.5j * gaussian_packet(grid, 8.0, -2.0, 2.0, 3.0).amps,
    ])
    stepper = Stepper(grid, Potential.harmonic(0.05), 0.004, 3.0)
    both, single = rows, [rows[0], rows[1]]
    for _ in range(20):
        both = stepper.step(both)
        single = [stepper.step(r) for r in single]
    for k in range(2):
        assert both[k].tobytes() == single[k].tobytes()


@given(
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=-1.5, max_value=1.5),
    st.integers(min_value=1, max_value=40),
)
def test_unitarity(x0, p0, n_steps):
    psi = gaussian_packet(HGRID, x0, p0, sigma=1.0, mass=1.0)
    out = split_step(psi, Potential.harmonic(1.0), dt=0.004, n_steps=n_steps)
    assert out.norm2() == pytest.approx(psi.norm2(), rel=1e-12)


@given(st.floats(min_value=0.0, max_value=20.0))
def test_spread_analytic_monotone(t):
    assert spread_analytic(1.0, 1.0, t) >= 1.0
    assert spread_analytic(1.0, 1.0, t + 0.1) > spread_analytic(1.0, 1.0, t)
