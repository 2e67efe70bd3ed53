import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grwlab.collapse import (
    CollapseParams,
    Round,
    apply_hit,
    effective_reduction_rate,
    grw_process,
    grw_trajectory,
    kernel_bounds,
    localization_amplitude,
    sample_hit_center,
)
from grwlab.errors import DomainError
from grwlab.propagator import Potential, flight, split_step
from grwlab.qstate import Grid1D, WaveFunction, gaussian_packet, superpose
from grwlab.rngstream import exponential_variate, trajectory_rng
from grwlab.units import convert_rate_to_si

GRID = Grid1D.centered(512, 64.0)


def _params(lambda_internal: float, r_c: float, **kw) -> CollapseParams:
    return CollapseParams(convert_rate_to_si(lambda_internal), r_c, **kw)


def test_params_validation():
    with pytest.raises(DomainError):
        CollapseParams(-1e-16, 1.0)
    with pytest.raises(DomainError):
        CollapseParams(1e-16, 0.0)
    with pytest.raises(DomainError):
        CollapseParams(1e-16, 1.0, n_nucleons=0.5)


def test_total_rate_amplification():
    p = CollapseParams(1e-16, 1.0, n_nucleons=2)
    assert p.total_rate_si() == pytest.approx(2e-16)
    csl = CollapseParams(1e-16, 1.0, mass_scaling=True)
    assert csl.total_rate_si(mass_in_mN=1e8) == pytest.approx(1e-8)
    with pytest.raises(DomainError):
        csl.total_rate_si()  # mass scaling needs the state mass


def test_waiting_times_exponential(rng):
    rate = 2.0
    taus = np.array([exponential_variate(rng, rate) for _ in range(20_000)])
    assert taus.mean() == pytest.approx(1.0 / rate, rel=0.03)
    assert taus.std() == pytest.approx(1.0 / rate, rel=0.03)
    # at rate zero the process draws no waiting time and makes no hit
    psi = gaussian_packet(GRID, 0.0, 0.0, 1.0, 1.0)
    evolution = flight(GRID, Potential.free(), 0.004, 1.0, psi.amps[None, None])
    state = rng.bit_generator.state
    [only] = grw_process(evolution, 0.0, 1.0, 2.0, [rng])
    assert only.centers is None and only.t_next.tolist() == [np.inf]
    assert rng.bit_generator.state == state


def test_localization_amplitude_shape():
    r_c = 2.0
    g = localization_amplitude(GRID, 0.0, r_c)
    peak = (np.pi * r_c**2) ** -0.25
    assert g.max() == pytest.approx(peak, rel=1e-12)
    # Gaussian in the displacement with width r_c (of the amplitude)
    x = GRID.x
    expected = peak * np.exp(-(x**2) / (2 * r_c**2))
    np.testing.assert_allclose(g, expected, rtol=1e-10)


def test_localization_uses_minimum_image():
    g = localization_amplitude(GRID, GRID.x_min, 1.0)
    # the point one cell inside the opposite edge is close on the ring
    assert g[-1] > 0.5 * g.max()


def test_hit_suppresses_far_branch():
    a = gaussian_packet(GRID, -10.0, 0.0, 1.0, 1.0)
    b = gaussian_packet(GRID, +10.0, 0.0, 1.0, 1.0)
    psi = superpose(a, b, 1.0, 1.0)
    hit, weight = apply_hit(psi.amps, GRID, -10.0, r_c=1.0)
    # half the weight sits in the left branch; the Gaussian overlap integral
    # of kernel (var 1/2) against density (var 1) contributes 1/sqrt(3 pi)
    assert weight == pytest.approx(0.5 / np.sqrt(3 * np.pi), rel=1e-3)
    rho = np.abs(hit) ** 2
    left = rho[GRID.x < 0].sum()
    right = rho[GRID.x > 0].sum()
    assert right / left < 1e-20


def test_per_hit_momentum_kick_is_exact():
    # <p^2> grows by exactly hbar^2 / (2 r_c^2) on average, any state
    from grwlab.qstate import observables

    r_c = 1.5
    rng = trajectory_rng(7, 0)
    psi = gaussian_packet(GRID, 0.0, 0.5, 1.0, 1.0)
    before = observables(psi)["mean_p2"]
    deltas = []
    for _ in range(400):
        a = sample_hit_center(psi.amps, GRID, r_c, rng.random(3))
        hit, _ = apply_hit(psi.amps, GRID, a, r_c)
        deltas.append(observables(psi.with_amps(hit))["mean_p2"] - before)
    assert np.mean(deltas) == pytest.approx(1.0 / (2 * r_c**2), rel=0.02)


def test_hit_density_needs_jointly_normalized_rows():
    from grwlab.experiments import MeasurementConfig, _initial_hybrid

    a = gaussian_packet(GRID, -10.0, 0.0, 1.0, 1.0)
    b = gaussian_packet(GRID, +10.0, 0.0, 1.0, 1.0)
    u = [0.5, 0.5, 0.5]
    with pytest.raises(DomainError, match="jointly normalized"):
        sample_hit_center(np.stack([a.amps, b.amps]), GRID, 1.0, u)  # norm^2 = 2
    with pytest.raises(DomainError, match="jointly normalized"):
        sample_hit_center(np.zeros((2, GRID.n_points)), GRID, 1.0, u)  # no mass
    rows = np.stack([a.amps, b.amps]) / np.sqrt(2.0)
    assert GRID.x_min <= sample_hit_center(rows, GRID, 1.0, u) < GRID.x_max
    # born's branch rows, as every trial starts from them
    start = _initial_hybrid(MeasurementConfig(c_up=np.sqrt(0.2), c_down=np.sqrt(0.8)))
    sample_hit_center(start.rows, start.grid, 1.0, u)


def test_hit_center_distribution(rng):
    r_c = 1.0
    psi = gaussian_packet(GRID, 0.5, 0.0, 1.0, 1.0)
    centers = np.array([sample_hit_center(psi.amps, GRID, r_c, u)
                        for u in rng.random((20_000, 3))])
    # density is |psi|^2 convolved with a Gaussian of variance r_c^2 / 2
    assert centers.mean() == pytest.approx(0.5, abs=0.03)
    assert centers.var() == pytest.approx(1.0 + r_c**2 / 2, rel=0.05)


def test_hit_density_normalized():
    # p(a) = ||L(a) psi||^2, the weight of a hit at a, integrates to 1
    psi = gaussian_packet(GRID, -3.0, 1.0, 2.0, 1.0)
    rows = np.broadcast_to(psi.amps, (GRID.n_points, 1, GRID.n_points))
    _, p = apply_hit(rows, GRID, GRID.x, 1.0)
    assert p.sum() * GRID.dx == pytest.approx(1.0, rel=1e-9)
    assert (p >= 0).all()


def test_kernel_resolution_guards():
    # a hit takes 2 dx <= r_c <= extent / 8 (kernel_bounds), both edges included
    psi = gaussian_packet(GRID, 0.0, 0.0, 1.0, 1.0)
    low, high = kernel_bounds(GRID)
    assert (low, high) == (2 * GRID.dx, GRID.extent / 8)
    for r_c in (low, high):
        sample_hit_center(psi.amps, GRID, r_c, [0.5, 0.5, 0.5])
        apply_hit(psi.amps, GRID, 0.0, r_c)
    for r_c in (0.1, np.nextafter(low, 0.0), np.nextafter(high, np.inf), 10.0):
        message = f"^r_c must be in .*, got {re.escape(str(r_c))}$"
        with pytest.raises(DomainError, match=message):
            sample_hit_center(psi.amps, GRID, r_c, [0.5, 0.5, 0.5])
        with pytest.raises(DomainError, match=message):
            apply_hit(psi.amps, GRID, 0.0, r_c)


def test_effective_reduction_rate_limits():
    params = CollapseParams(1e-16, 1.0, n_nucleons=2)
    lam = params.total_rate_si()
    assert effective_reduction_rate(0.0, params) == 0.0
    assert effective_reduction_rate(2.0, params) == pytest.approx(
        lam * (1 - np.exp(-1.0)), rel=1e-12
    )
    assert effective_reduction_rate(1e4, params) == pytest.approx(lam, rel=1e-12)


def test_zero_rate_trajectory_is_schrodinger():
    psi = gaussian_packet(GRID, 0.0, 1.0, 1.0, 1.0)
    params = CollapseParams(0.0, 1.0)
    rec = grw_trajectory(
        psi, Potential.free(), params, 2.0, 0.004, 100, trajectory_rng(0, 0)
    )
    ref = split_step(psi, Potential.free(), 0.004, 500)
    np.testing.assert_array_equal(rec.final_state.amps, ref.amps)
    assert rec.events == []


def test_trajectory_seed_determinism():
    psi = gaussian_packet(GRID, 0.0, 0.0, 1.0, 200.0)
    params = _params(2.0, 1.0)
    runs = [
        grw_trajectory(
            psi, Potential.free(), params, 2.0, 0.004, 100,
            trajectory_rng(42, 3), seed=42,
        )
        for _ in range(2)
    ]
    np.testing.assert_array_equal(runs[0].final_state.amps, runs[1].final_state.amps)
    assert [e.t for e in runs[0].events] == [e.t for e in runs[1].events]


def test_two_packet_reduction_is_one_sided():
    # after Lambda t >> 1 the surviving density is (almost) all on one side
    psi = superpose(
        gaussian_packet(GRID, -8.0, 0.0, 1.0, 200.0),
        gaussian_packet(GRID, +8.0, 0.0, 1.0, 200.0),
        1.0, 1.0,
    )
    params = _params(2.5, 1.0)
    fractions = []
    for i in range(40):
        rec = grw_trajectory(
            psi, Potential.free(), params, 2.0, 0.004, 10**9,
            trajectory_rng(11, i), seed=11,
        )
        rho = np.abs(rec.final_state.amps) ** 2
        side = max(rho[GRID.x < 0].sum(), rho[GRID.x > 0].sum()) * GRID.dx
        fractions.append(side)
    assert np.median(fractions) > 0.99


def test_record_serializes():
    psi = gaussian_packet(GRID, 0.0, 0.0, 1.0, 200.0)
    rec = grw_trajectory(
        psi, Potential.free(), _params(3.0, 1.0), 1.0, 0.004, 50,
        trajectory_rng(5, 0), seed=5,
    )
    d = rec.to_json_dict()
    assert len(d["events"]) == rec.n_hits()
    assert len(d["sample_times"]) == len(d["observables_at_samples"])
    import json

    json.dumps(d)  # must be JSON-clean


@given(st.floats(min_value=0.3, max_value=3.0), st.floats(min_value=-8, max_value=8))
def test_povm_completeness(r_c, shift):
    # summing L(a)^2 over all hit centers resolves the identity
    g2 = np.array(
        [localization_amplitude(GRID, a + shift, r_c) ** 2 for a in GRID.x]
    )
    total = g2.sum(axis=0) * GRID.dx
    np.testing.assert_allclose(total, 1.0, rtol=1e-8)


@given(st.floats(min_value=0.0, max_value=50.0))
def test_reduction_rate_monotone_in_separation(d):
    params = CollapseParams(1e-16, 1.5, n_nucleons=10)
    g1 = effective_reduction_rate(d, params)
    g2 = effective_reduction_rate(d + 0.5, params)
    assert 0.0 <= g1 <= g2 <= params.total_rate_si()


def _seam_packet(grid):
    """A packet of width 1 centred on the periodic seam of grid."""
    u = (grid.x - grid.x_min + 0.5 * grid.extent) % grid.extent - 0.5 * grid.extent
    return WaveFunction(grid, np.exp(-(u**2) / 4.0), 1.0).normalized()


def test_hits_across_periodic_seam_stay_on_grid():
    # a packet centred on the seam: its density has mass on both edges, and
    # a center drawn past either edge must wrap into the box
    grid = Grid1D.centered(256, 32.0)
    psi = _seam_packet(grid)
    centers = [sample_hit_center(psi.amps, grid, 1.0, u)
               for u in trajectory_rng(3, 0).random((2000, 3))]
    for a in centers:
        assert grid.x_min <= a < grid.x_max
        apply_hit(psi.amps, grid, a, 1.0)
    near_top = np.mean(np.array(centers) > 0.0)
    assert 0.4 < near_top < 0.6


def _draw_reference(rows, grid, r_c, u):
    """One draw by searchsorted and textbook Box-Muller, row by row."""
    cdf = np.cumsum(np.sum(np.abs(rows) ** 2, axis=0))
    j = min(int(np.searchsorted(cdf, u[0] * cdf[-1], side="right")), grid.n_points - 1)
    xi = r_c / np.sqrt(2.0) * np.sqrt(-2.0 * np.log(1.0 - u[1])) * np.cos(2 * np.pi * u[2])
    return grid.x_min + (grid.x[j] - grid.x_min + xi) % grid.extent


def test_a_round_of_draws_has_the_bits_of_draws_row_by_row():
    # states of two branch rows with empty cells, a third of them with
    # their mass on the seam
    rs = np.random.default_rng(4)
    rows = rs.random((33, 2, GRID.n_points)) ** 4 + 0j
    rows[:, :, rs.random(GRID.n_points) < 0.5] = 0.0
    rows[::3, :, 1:-1] = 0.0
    rows[::3, :, [0, -1]] = [1.0, 2.0]
    rows /= np.sqrt(np.sum(np.abs(rows) ** 2, axis=(1, 2), keepdims=True) * GRID.dx)
    u = rs.random((33, 3))
    centers = sample_hit_center(rows, GRID, 1.0, u)
    alone = [sample_hit_center(r, GRID, 1.0, v) for r, v in zip(rows, u)]
    assert all(type(a) is float for a in alone)
    assert centers.tobytes() == np.array(alone).tobytes()
    expected = [_draw_reference(r, GRID, 1.0, v) for r, v in zip(rows, u)]
    # equal on the ring: a center on the seam may come out at either edge
    gap = (centers - expected + GRID.extent / 2) % GRID.extent - GRID.extent / 2
    np.testing.assert_allclose(gap, 0.0, atol=1e-12)


def _ks_statistic(centers, rho, grid, r_c):
    """sqrt(n) D of centers against the closed-form p(a): the mixture of
    normals of variance r_c^2 / 2 at the grid points, weighted by rho and
    wrapped into the box (images one box either side)."""
    ndtr = pytest.importorskip("scipy.special").ndtr
    w = rho / rho.sum()
    keep = w > 1e-16
    x, w = grid.x[keep], w[keep]
    a = np.sort(centers)
    s = r_c / np.sqrt(2.0)
    cdf = np.zeros_like(a)
    for shift in (-grid.extent, 0.0, grid.extent):
        z = (a[:, None] - x - shift) / s
        z0 = (grid.x_min - x - shift) / s
        cdf += (ndtr(z) - ndtr(z0)) @ w
    n = len(a)
    d = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    return np.sqrt(n) * d


def _many_centers(rows, grid, r_c, rng, n=20_000, chunk=500):
    """n centers drawn from the state rows, chunk states at a time."""
    states = np.broadcast_to(rows, (chunk,) + np.shape(rows))
    return np.concatenate([sample_hit_center(states, grid, r_c, rng.random((chunk, 3)))
                           for _ in range(n // chunk)])


def test_hit_centers_of_born_state_pass_ks_test():
    from grwlab.experiments import MeasurementConfig, _initial_hybrid

    start = _initial_hybrid(MeasurementConfig(c_up=np.sqrt(0.2), c_down=np.sqrt(0.8)))
    centers = _many_centers(start.rows, start.grid, 1.0, trajectory_rng(21, 0))
    rho = np.sum(np.abs(start.rows) ** 2, axis=0)
    # Kolmogorov distribution: P(sqrt(n) D > 1.95) = 0.001
    assert _ks_statistic(centers, rho, start.grid, 1.0) < 1.95


def test_hit_centers_across_the_seam_pass_ks_test():
    grid = Grid1D.centered(256, 32.0)
    psi = _seam_packet(grid)
    centers = _many_centers(psi.amps, grid, 2.0, trajectory_rng(22, 0))
    assert _ks_statistic(centers, np.abs(psi.amps) ** 2, grid, 2.0) < 1.95


@pytest.mark.parametrize("r_c", [1.0, 1.5, 8.0])
def test_localization_amplitude_is_the_minimum_image_gaussian(r_c):
    # dyadic centers, so that x - a and its wrap are exact: on grid points,
    # mid-cell, and within dx/2 of the seam on either side.  At r_c = 8
    # (extent / 8) the point half a box away still carries e^-8 of the
    # peak, so the far-seam point must take the right image.
    dx, e = GRID.dx, GRID.extent
    a = np.array([0.0, GRID.x_min, GRID.x[7], GRID.x[300] + dx / 2,
                  GRID.x_min + dx / 8, GRID.x_max - dx / 4, GRID.x_max - dx / 2])
    u = np.remainder(GRID.x - a[:, None] + e / 2, e) - e / 2
    peak = (np.pi * r_c**2) ** -0.25
    expected = peak * np.exp(-(u**2) / (2 * r_c**2))
    for got in (localization_amplitude(GRID, a, r_c),
                localization_amplitude(GRID, a[:, None], r_c),
                np.array([localization_amplitude(GRID, float(c), r_c) for c in a])):
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15 * peak)


def test_heating_factor_has_no_subnormal_value():
    # heating's grid: beyond ~37 r_c the factor is exactly 0, never a
    # subnormal that slows the exp and every product of the hit
    grid = Grid1D.centered(512, 128.0)
    a = np.concatenate([trajectory_rng(23, 0).uniform(grid.x_min, grid.x_max, 64),
                        [grid.x_min, grid.x_max - grid.dx / 3]])
    g = localization_amplitude(grid, a, 1.0)
    assert not np.any((g != 0) & (g < np.finfo(float).tiny))
    u = np.remainder(grid.x - a[:, None] + grid.extent / 2, grid.extent) - grid.extent / 2
    assert np.all(g[u**2 / 2 > 700.5] == 0) and np.all(g[u**2 / 2 < 699.5] > 0)


def _process_items(rows, t_end, times, rng):
    """A one-row pass of grw_process as (t, rows at t, hit center or None),
    hits and samples in time order, a hit first at the time of a sample."""
    evolution = flight(GRID, Potential.free(), 0.01, 50.0, rows[None])
    items = []
    for rnd in grw_process(evolution, 4.0, 1.0, t_end, [rng]):
        # a read is the flight's until its next read, an anchor until the next hit
        if rnd.centers is not None:
            items.append((evolution.t[0], evolution.amps[0].copy(), rnd.centers[0]))
        [lo], [hi] = rnd.samples(times)
        items += [(t, evolution.at(t)[0].copy(), None) for t in times[lo:hi]]
    return items


def test_round_samples_put_a_hit_before_the_sample_at_its_time():
    times = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    rnd = Round(np.arange(3), np.array([0.0, 0.5, 0.7]),
                np.array([0.5, 1.2, np.inf]), None, None)
    lo, hi = rnd.samples(times)
    # row 0's next hit falls on sample 1, which the row's next anchor serves
    assert lo.tolist() == [0, 1, 2] and hi.tolist() == [1, 3, 5]


def test_grw_process_identical_rows_follow_one_state():
    # two equal branch rows carry the same density as the state they split,
    # so they draw the same hits and each row stays that state / sqrt(2)
    psi = superpose(
        gaussian_packet(GRID, -6.0, 0.0, 1.0, 50.0),
        gaussian_packet(GRID, +6.0, 0.0, 1.0, 50.0),
        1.0, 1.0,
    )
    times = [b * 0.01 for b in range(201)]
    runs = []
    for rows in (psi.amps[None], np.stack([psi.amps, psi.amps]) / np.sqrt(2.0)):
        out = _process_items(rows, 2.0, times, trajectory_rng(8, 0))
        runs.append(([c for _, _, c in out if c is not None], [a for _, a, _ in out]))
    (ev1, one), (ev2, two) = runs
    assert len(ev1) > 2
    assert len(one) == len(two) == len(times) + len(ev1)
    np.testing.assert_allclose(ev2, ev1, rtol=0, atol=1e-12)
    for a, b in zip(one, two):
        for row in b:
            np.testing.assert_allclose(row, a[0] / np.sqrt(2.0), rtol=0, atol=1e-12)


def test_grw_process_hit_is_draw_and_apply():
    # a hit of the process is sample_hit_center and apply_hit on the rows at
    # the hit time, drawing four uniforms from the same stream: three for
    # the center and one for the next wait
    rows = np.stack([gaussian_packet(GRID, x, 0.0, 1.0, 50.0).amps
                     for x in (-6.0, 6.0)]) / np.sqrt(2.0)
    evolution = flight(GRID, Potential.free(), 0.01, 50.0, rows[None])
    process = grw_process(evolution, 4.0, 1.0, 2.0, [trajectory_rng(9, 0)])
    first, hit = next(process), next(process)
    t = evolution.t[0]

    rng = trajectory_rng(9, 0)
    t_hit = exponential_variate(rng, 4.0)
    before = flight(GRID, Potential.free(), 0.01, 50.0, rows[None]).at(t_hit)[0]
    u = rng.random(4)
    a = sample_hit_center(before, GRID, 1.0, u[:3])
    after, weight = apply_hit(before, GRID, a, 1.0)
    assert (first.t_next[0], t, hit.centers[0], hit.weights[0]) == (t_hit, t_hit, a, weight)
    assert hit.t_next[0] == t_hit - np.log1p(-u[3]) / 4.0
    assert evolution.at(t)[0].tobytes() == after.tobytes()


def test_a_stepped_trajectory_replays_as_steps_and_hits():
    # in a harmonic trap the rows exist at step boundaries only: each hit
    # falls on the nearest one, and split_step to it, then apply_hit at the
    # recorded center, gives the hit's weight and the final state bit for bit
    dt, v, r_c = 0.005, Potential.harmonic(0.25), 1.0
    psi = gaussian_packet(GRID, 0.0, 0.0, 2.0, 1.0)
    rec = grw_trajectory(psi, v, _params(2.0, r_c), 4.0, dt, 10, trajectory_rng(3, 0), seed=3)
    assert rec.n_hits() >= 5
    b = 0
    for e in rec.events:
        b_hit = round(e.t / dt)
        assert e.t == b_hit * dt
        psi = split_step(psi, v, dt, b_hit - b)
        amps, weight = apply_hit(psi.amps, GRID, e.center, r_c)
        assert weight == e.branch_weight
        psi, b = psi.with_amps(amps), b_hit
    final = split_step(psi, v, dt, round(4.0 / dt) - b)
    assert final.amps.tobytes() == rec.final_state.amps.tobytes()


def test_stream_tags_give_distinct_streams():
    base = trajectory_rng(5, 2).random(4)
    assert np.array_equal(trajectory_rng(5, 2, stream=0).random(4), base)
    tagged = [trajectory_rng(5, 2, stream=j).random(4) for j in (1, 2)]
    assert not np.array_equal(tagged[0], base)
    assert not np.array_equal(tagged[0], tagged[1])
    with pytest.raises(DomainError):
        trajectory_rng(5, 2, stream=-1)


def _hit_trajectory(index, t_total=5.0):
    psi = gaussian_packet(GRID, 0.0, 0.0, 1.0, 200.0)
    params = _params(4.0, 1.0)
    rec = grw_trajectory(psi, Potential.free(), params, t_total, 0.004, 10**9,
                         trajectory_rng(17, index), seed=17)
    return rec, params.total_rate_internal(psi.mass)


def test_hit_times_are_exact_running_sums_of_waiting_times():
    rec, rate = _hit_trajectory(0)
    assert rec.n_hits() > 5
    # the stream holds the first wait, then four uniforms per hit: three
    # for the center and the next wait
    replay = trajectory_rng(17, 0)
    t, expected = -np.log1p(-replay.random()) / rate, []
    for _ in rec.events:
        expected.append(t)
        t -= np.log1p(-replay.random(4)[3]) / rate
    assert [e.t for e in rec.events] == expected
    # unsnapped: hits do not sit on the step grid of dt = 0.004
    assert not any(float(e.t / 0.004).is_integer() for e in rec.events)


def test_waiting_times_pass_ks_test():
    # the first 5 waiting times of each trajectory: about 20 hits are
    # expected in t_total, so fewer than 6 occur with probability ~1e-4
    waits = []
    for i in range(200):
        rec, rate = _hit_trajectory(i)
        waits.extend(np.diff([0.0] + [e.t for e in rec.events[:5]]))
    x = np.sort(np.asarray(waits))
    assert len(x) == 1000
    cdf = -np.expm1(-rate * x)
    n = len(x)
    d = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    # Kolmogorov distribution: P(sqrt(n) D > 1.95) = 0.001
    assert np.sqrt(n) * d < 1.95
