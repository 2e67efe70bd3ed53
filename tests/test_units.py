import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grwlab.errors import DomainError
from grwlab.units import (
    DEFAULT_UNITS,
    HBAR_SI,
    NUCLEON_MASS_KG,
    UnitSystem,
    convert_rate_to_si,
)


def test_default_time_unit():
    # hbar = 1 fixes the time unit as m L^2 / hbar_SI
    expected = NUCLEON_MASS_KG * (1e-7) ** 2 / HBAR_SI
    assert DEFAULT_UNITS.time_unit_s == pytest.approx(expected, rel=1e-15)
    assert DEFAULT_UNITS.time_unit_s == pytest.approx(1.586067343197357e-07, rel=1e-12)


def test_hbar_is_one_internally():
    # hbar in internal units: hbar_SI * t_unit / (m_unit * L_unit^2)
    u = DEFAULT_UNITS
    hbar = HBAR_SI * u.time_unit_s / (u.mass_unit_kg * u.length_unit_m**2)
    assert hbar == pytest.approx(1.0, rel=1e-15)


def test_rate_conversion_canonical():
    lam = DEFAULT_UNITS.rate_to_internal(1e-16)
    assert lam == pytest.approx(1e-16 * DEFAULT_UNITS.time_unit_s, rel=1e-15)
    assert lam == pytest.approx(1.586067343197357e-23, rel=1e-12)


def test_length_and_mass_converters():
    assert DEFAULT_UNITS.length_to_internal(1e-7) == pytest.approx(1.0)


def test_bad_units_rejected():
    with pytest.raises(DomainError):
        UnitSystem(length_unit_m=-1e-7, mass_unit_kg=NUCLEON_MASS_KG)
    with pytest.raises(DomainError):
        UnitSystem(length_unit_m=1e-7, mass_unit_kg=0.0)


@given(st.floats(min_value=1e-30, max_value=1e30))
def test_rate_round_trip(rate_si):
    assert convert_rate_to_si(DEFAULT_UNITS.rate_to_internal(rate_si)) == pytest.approx(
        rate_si, rel=1e-12
    )


@given(
    st.floats(min_value=1e-12, max_value=1e-3),
    st.floats(min_value=1e-30, max_value=1e-20),
)
def test_time_round_trip_any_units(length_m, mass_kg):
    u = UnitSystem(length_unit_m=length_m, mass_unit_kg=mass_kg)
    t = u.time_to_internal(3.5)
    assert u.time_to_si(t) == pytest.approx(3.5, rel=1e-12)
    assert math.isfinite(u.time_unit_s) and u.time_unit_s > 0
