import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grwlab.collapse import CollapseParams
from grwlab.rates import (
    amplified_rate,
    heating_rate,
    momentum_diffusion_rate,
    visibility_analytic,
)

LAMBDA = 1e-16


def test_amplification_examples():
    assert amplified_rate(2, LAMBDA) == 2e-16
    assert amplified_rate(1e23, LAMBDA) == pytest.approx(1e7, rel=1e-12)
    # mean macroscopic collapse time: a tenth of a microsecond
    assert 1.0 / amplified_rate(1e23, LAMBDA) == pytest.approx(1e-7, rel=1e-12)


def test_heating_rate_formula():
    # dE/dt = lambda hbar^2 / (4 m r_c^2), internal units
    assert heating_rate(1.0, 1.0, 1.0) == pytest.approx(0.25)
    assert heating_rate(1.0, 4.0, 1.0) == pytest.approx(0.0625)


def test_momentum_diffusion_is_mass_free():
    assert momentum_diffusion_rate(1.0, 1.0) == pytest.approx(0.5)
    assert momentum_diffusion_rate(1.0, 2.0) == pytest.approx(0.125)


def test_visibility_analytic_limits():
    params = CollapseParams(1e-16, 1.0, n_nucleons=1e10)
    v0 = visibility_analytic(0.0, params, t_flight=10.0)
    assert v0 == 1.0
    v_far = visibility_analytic(1e3, params, t_flight=10.0)
    assert v_far == pytest.approx(np.exp(-1e-6 * 10.0), rel=1e-9)


@given(
    st.floats(min_value=1.0, max_value=1e23),
    st.floats(min_value=1e-18, max_value=1e-6),
)
def test_amplified_rate_linearity(n, lam):
    assert amplified_rate(n, lam) == pytest.approx(n * lam, rel=1e-12)


@given(st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=0.1, max_value=10.0))
def test_heating_scalings(m, rc):
    base = heating_rate(1.0, m, rc)
    assert heating_rate(2.0, m, rc) == pytest.approx(2 * base, rel=1e-12)
    assert heating_rate(1.0, 2 * m, rc) == pytest.approx(base / 2, rel=1e-12)
    assert heating_rate(1.0, m, 2 * rc) == pytest.approx(base / 4, rel=1e-12)
