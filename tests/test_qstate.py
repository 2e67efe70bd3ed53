import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grwlab.errors import DegeneracyError, DomainError, GridMismatchError
from grwlab.qstate import (
    Grid1D,
    WaveFunction,
    gaussian_packet,
    observables,
    superpose,
)

GRID = Grid1D.centered(256, 32.0)


def test_grid_requires_power_of_two():
    with pytest.raises(DomainError):
        Grid1D.centered(300, 32.0)
    with pytest.raises(DomainError):
        Grid1D.centered(0, 32.0)


def test_grid_axes():
    g = Grid1D.centered(8, 8.0)
    assert g.dx == 1.0
    np.testing.assert_allclose(g.x, np.arange(-4.0, 4.0))
    assert g.extent == 8.0
    # Fourier axis matches numpy's convention
    np.testing.assert_allclose(g.k, 2 * np.pi * np.fft.fftfreq(8, d=1.0))


def test_gaussian_packet_moments():
    psi = gaussian_packet(GRID, x0=1.5, p0=0.75, sigma=1.2, mass=1.0)
    obs = observables(psi)
    assert obs["norm2"] == pytest.approx(1.0, abs=1e-12)
    assert obs["mean_x"] == pytest.approx(1.5, abs=1e-9)
    assert obs["var_x"] == pytest.approx(1.2**2, rel=1e-9)
    assert obs["mean_p"] == pytest.approx(0.75, abs=1e-9)
    # minimum-uncertainty packet: Var(p) = 1/(4 sigma^2)
    assert obs["var_p"] == pytest.approx(1.0 / (4 * 1.2**2), rel=1e-9)


def test_gaussian_energy_convention():
    # free packet at rest: E = <p^2>/2m = hbar^2 / (8 m sigma^2)
    psi = gaussian_packet(GRID, 0.0, 0.0, sigma=1.0, mass=1.0)
    assert observables(psi)["energy"] == pytest.approx(0.125, rel=1e-9)


def test_packet_must_fit_grid():
    with pytest.raises(DomainError):
        gaussian_packet(GRID, x0=0.0, p0=0.0, sigma=10.0, mass=1.0)
    with pytest.raises(DomainError):
        gaussian_packet(GRID, x0=15.9, p0=0.0, sigma=1.0, mass=1.0)


def test_superpose_and_mismatch():
    a = gaussian_packet(GRID, -4.0, 0.0, 1.0, 1.0)
    b = gaussian_packet(GRID, 4.0, 0.0, 1.0, 1.0)
    s = superpose(a, b, 1.0, 1.0)
    assert s.norm2() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DegeneracyError):
        superpose(a, a, 1.0, -1.0)  # exact cancellation
    other = gaussian_packet(Grid1D.centered(128, 32.0), 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(GridMismatchError):
        superpose(a, other, 1.0, 1.0)


def test_states_are_immutable():
    psi = gaussian_packet(GRID, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises((ValueError, AttributeError)):
        psi.amps[0] = 1.0  # read-only buffer


@given(st.floats(min_value=0.0, max_value=2 * np.pi))
def test_observables_global_phase_invariant(phase):
    psi = gaussian_packet(GRID, 0.5, -0.25, 1.0, 1.0)
    rotated = psi.with_amps(np.exp(1j * phase) * psi.amps)
    a, b = observables(psi), observables(rotated)
    for key in a:
        assert a[key] == pytest.approx(b[key], rel=1e-12, abs=1e-12)


@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.5, max_value=1.5),
)
def test_parseval(x0, p0, sigma):
    psi = gaussian_packet(GRID, x0, p0, sigma, 1.0)
    norm_x = np.sum(np.abs(psi.amps) ** 2) * GRID.dx
    phi = np.fft.fft(psi.amps) * GRID.dx / np.sqrt(2 * np.pi)
    dk = 2 * np.pi / GRID.extent
    norm_k = np.sum(np.abs(phi) ** 2) * dk
    assert norm_k == pytest.approx(norm_x, rel=1e-12)
