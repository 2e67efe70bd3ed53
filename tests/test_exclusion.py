import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grwlab.errors import BoundsParseError, ConfigError, DomainError
from grwlab.exclusion import (
    BoundCurve,
    BoundKind,
    allowed_region,
    default_bounds_path,
    load_bounds,
)


def _default():
    return load_bounds(default_bounds_path())


def test_default_table_parses():
    curves = {c.name: c for c in _default()}
    upper = curves["current_upper"]
    assert upper.kind is BoundKind.UPPER
    assert upper.lambda_at(1e-7) == pytest.approx(1e-8)
    lower = curves["theory_lower"]
    assert lower.kind is BoundKind.LOWER
    assert lower.lambda_at(1e-7) == pytest.approx(1e-16)
    interference = curves["interference_upper"]
    assert interference.lambda_at(1e-7) == pytest.approx(1e-5)


def test_empty_file_warns_and_returns_nothing():
    with pytest.warns(UserWarning):
        curves = load_bounds(io.StringIO("name,kind,rc_m,lambda_s\n"))
    assert curves == []


def test_parse_errors_carry_row_numbers():
    bad_kind = "name,kind,rc_m,lambda_s\nc,Sideways,1e-7,1e-8\nc,Sideways,1e-6,1e-8\n"
    with pytest.raises(BoundsParseError) as exc:
        load_bounds(io.StringIO(bad_kind))
    assert exc.value.row == 2

    non_monotone = (
        "name,kind,rc_m,lambda_s\n"
        "c,UpperOnLambda,1e-6,1e-8\n"
        "c,UpperOnLambda,1e-7,1e-8\n"
    )
    with pytest.raises(BoundsParseError):
        load_bounds(io.StringIO(non_monotone))

    negative = "name,kind,rc_m,lambda_s\nc,UpperOnLambda,1e-7,-1e-8\n"
    with pytest.raises(BoundsParseError):
        load_bounds(io.StringIO(negative))


def test_curve_needs_two_points():
    with pytest.raises(DomainError):
        BoundCurve("c", BoundKind.UPPER, ((1e-7, 1e-8),))


def test_loglog_interpolation():
    curve = BoundCurve(
        "c", BoundKind.UPPER, ((1e-8, 1e-10), (1e-6, 1e-6)), source="synthetic"
    )
    # exactly at listed points
    assert curve.lambda_at(1e-8) == pytest.approx(1e-10, rel=1e-12)
    assert curve.lambda_at(1e-6) == pytest.approx(1e-6, rel=1e-12)
    # geometric midpoint in rc lands on the geometric midpoint in lambda
    assert curve.lambda_at(1e-7) == pytest.approx(1e-8, rel=1e-12)
    # constant extrapolation outside
    assert curve.lambda_at(1e-12) == pytest.approx(1e-10, rel=1e-12)
    assert curve.lambda_at(1e-3) == pytest.approx(1e-6, rel=1e-12)


def test_default_region_closed_with_8_decade_span():
    raster = allowed_region(_default())
    assert raster.closed
    assert raster.span_lambda_decades == pytest.approx(8.0, abs=0.2)


@pytest.mark.parametrize("lam, rc", [
    ((-18.0, -4.0), (float("nan"), -5.0)),
    ((-18.0, -4.0), (3.0, 1.0)),
    ((-18.0, -4.0), (-7.0, -7.0)),
    ((-4.0, -18.0), (-9.0, -5.0)),
    ((-18.0, float("inf")), (-9.0, -5.0)),
])
def test_allowed_region_rejects_bad_ranges(lam, rc):
    with pytest.raises(ConfigError):
        allowed_region(_default(), lambda_range_decades=lam, rc_range_decades=rc)


def test_point_classification():
    raster = allowed_region(_default())
    assert raster.is_allowed(1e-12, 1e-7)
    for rc in (1e-8, 1e-7, 1e-6):
        assert not raster.is_allowed(1e-6, rc)
    assert not raster.is_allowed(1e-17, 1e-7)
    assert not raster.is_allowed(1e-7, 1e-7)


def test_upper_bound_only_leaves_region_open_below():
    upper = BoundCurve(
        "only_upper", BoundKind.UPPER, ((1e-9, 1e-8), (1e-5, 1e-8))
    )
    raster = allowed_region([upper])
    assert not raster.closed
    assert raster.open_flags["lower"]


def test_adding_bounds_never_grows_allowed_set():
    base = _default()
    r0 = allowed_region(base)
    extra = BoundCurve(
        "tighter", BoundKind.UPPER, ((1e-9, 1e-10), (1e-5, 1e-10))
    )
    r1 = allowed_region(base + [extra])
    assert not np.any(r1.allowed & ~r0.allowed)


@given(
    st.floats(min_value=-8.5, max_value=-5.5),
    st.floats(min_value=-17.5, max_value=-4.5),
)
def test_raster_matches_pointwise_predicates(log_rc, log_lam):
    curves = _default()
    raster = allowed_region(curves)
    lam, rc = 10.0**log_lam, 10.0**log_rc
    # nearest-cell lookup agrees with direct curve evaluation at cell centers
    i = int(np.argmin(np.abs(raster.log10_lambda_axis - log_lam)))
    j = int(np.argmin(np.abs(raster.log10_rc_axis - log_rc)))
    lam_c = 10.0 ** raster.log10_lambda_axis[i]
    rc_c = 10.0 ** raster.log10_rc_axis[j]
    expected = all(c.allows(lam_c, rc_c) for c in curves)
    assert raster.is_allowed(lam, rc) == expected
