"""The lambda - r_c exclusion diagram.

Bound curves are polylines in (r_c [m], lambda [s^-1]); interpolation is
linear in log10-log10 with constant extrapolation beyond the endpoints.
The allowed region is the pointwise AND of all bound predicates on a
log-log raster.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import BoundsParseError, ConfigError, DomainError


class BoundKind(Enum):
    UPPER = "UpperOnLambda"
    LOWER = "LowerOnLambda"


@dataclass(frozen=True)
class BoundCurve:
    name: str
    kind: BoundKind
    points: tuple[tuple[float, float], ...]  # (rc_m, lambda_s), rc increasing
    source: str = ""

    def __post_init__(self):
        if len(self.points) < 2:
            raise DomainError(f"curve {self.name!r} needs >= 2 points")
        rcs = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(rcs, rcs[1:])):
            raise DomainError(f"curve {self.name!r}: r_c must be strictly increasing")
        if any(rc <= 0 or lam <= 0 for rc, lam in self.points):
            raise DomainError(f"curve {self.name!r}: all values must be positive")

    def lambda_at(self, rc_m: float) -> float:
        """Interpolated bound value at rc_m (log-log, constant beyond ends)."""
        log_rc = np.log10([p[0] for p in self.points])
        log_lam = np.log10([p[1] for p in self.points])
        return float(10.0 ** np.interp(np.log10(rc_m), log_rc, log_lam))

    def allows(self, lambda_s: float, rc_m: float) -> bool:
        bound = self.lambda_at(rc_m)
        if self.kind is BoundKind.UPPER:
            return lambda_s <= bound
        return lambda_s >= bound


def default_bounds_path() -> Path:
    return Path(str(resources.files("grwlab").joinpath("data/default_bounds.csv")))


def load_bounds(csv_source) -> list[BoundCurve]:
    """Parse bound curves from a CSV path or open text file.

    Header: name,kind,rc_m,lambda_s[,source]; rows grouped by name.
    """
    if hasattr(csv_source, "read"):
        return _parse_bounds(csv_source)
    with open(csv_source, newline="") as fh:
        return _parse_bounds(fh)


def _parse_bounds(fh) -> list[BoundCurve]:
    reader = csv.reader(fh)
    rows = [r for r in reader]
    rows = [(i + 1, r) for i, r in enumerate(rows) if any(c.strip() for c in r)]
    if not rows:
        warnings.warn("empty bounds table: exclusion diagram is all-allowed")
        return []
    header_row, header = rows[0]
    header = [c.strip() for c in header]
    if header[:4] != ["name", "kind", "rc_m", "lambda_s"]:
        raise BoundsParseError(
            f"expected header name,kind,rc_m,lambda_s got {','.join(header)}",
            header_row,
        )
    groups: dict[str, dict] = {}
    for lineno, row in rows[1:]:
        if len(row) < 4:
            raise BoundsParseError(f"expected >= 4 columns, got {len(row)}", lineno)
        name = row[0].strip()
        kind_str = row[1].strip()
        try:
            kind = BoundKind(kind_str)
        except ValueError:
            raise BoundsParseError(f"unknown kind {kind_str!r}", lineno) from None
        try:
            rc = float(row[2])
            lam = float(row[3])
        except ValueError as exc:
            raise BoundsParseError(f"bad number: {exc}", lineno) from None
        if rc <= 0 or lam <= 0:
            raise BoundsParseError(
                f"values must be strictly positive, got rc={rc}, lambda={lam}", lineno
            )
        source = row[4].strip() if len(row) > 4 else ""
        g = groups.setdefault(name, {"kind": kind, "points": [], "source": source,
                                     "first_row": lineno})
        if g["kind"] is not kind:
            raise BoundsParseError(f"curve {name!r} mixes kinds", lineno)
        if g["points"] and rc <= g["points"][-1][0]:
            raise BoundsParseError(
                f"curve {name!r}: r_c not strictly increasing ({rc} after "
                f"{g['points'][-1][0]})", lineno
            )
        g["points"].append((rc, lam))
    curves = []
    for name, g in groups.items():
        if len(g["points"]) < 2:
            raise BoundsParseError(
                f"curve {name!r} has fewer than 2 points", g["first_row"]
            )
        curves.append(BoundCurve(name, g["kind"], tuple(g["points"]), g["source"]))
    if not curves:
        warnings.warn("empty bounds table: exclusion diagram is all-allowed")
    return curves


@dataclass
class ExclusionRaster:
    log10_lambda_axis: np.ndarray
    log10_rc_axis: np.ndarray
    allowed: np.ndarray  # bool, shape (n_lambda, n_rc)
    span_lambda_decades: float
    span_rc_decades: float
    open_flags: dict[str, bool]

    @property
    def closed(self) -> bool:
        return not any(self.open_flags.values())

    def is_allowed(self, lambda_s: float, rc_m: float) -> bool:
        """Nearest-cell lookup for a point in SI units."""
        i = int(np.argmin(np.abs(self.log10_lambda_axis - np.log10(lambda_s))))
        j = int(np.argmin(np.abs(self.log10_rc_axis - np.log10(rc_m))))
        return bool(self.allowed[i, j])

    def boundary_polylines(self) -> dict[str, list[tuple[float, float]]]:
        """Lower/upper allowed-region edges as (log10_rc, log10_lambda) lists."""
        lower, upper = [], []
        for j, lrc in enumerate(self.log10_rc_axis):
            col = np.flatnonzero(self.allowed[:, j])
            if len(col):
                lower.append((float(lrc), float(self.log10_lambda_axis[col[0]])))
                upper.append((float(lrc), float(self.log10_lambda_axis[col[-1]])))
        return {"lower": lower, "upper": upper}

    def summary(self) -> dict:
        return {
            "span_lambda_decades": self.span_lambda_decades,
            "span_rc_decades": self.span_rc_decades,
            "closed": self.closed,
            "open_flags": self.open_flags,
            "n_allowed_cells": int(np.count_nonzero(self.allowed)),
            "lambda_axis_log10": [float(self.log10_lambda_axis[0]),
                                  float(self.log10_lambda_axis[-1])],
            "rc_axis_log10": [float(self.log10_rc_axis[0]),
                              float(self.log10_rc_axis[-1])],
        }


DEFAULT_LAMBDA_RANGE = (-18.0, -4.0)
DEFAULT_RC_RANGE = (-9.0, -5.0)
DEFAULT_RESOLUTION = (141, 41)


def allowed_region(
    bounds: list[BoundCurve],
    lambda_range_decades: tuple[float, float] = DEFAULT_LAMBDA_RANGE,
    rc_range_decades: tuple[float, float] = DEFAULT_RC_RANGE,
    resolution: tuple[int, int] = DEFAULT_RESOLUTION,
) -> ExclusionRaster:
    """Rasterize the allowed region of the log-log lambda - r_c plane.

    A cell is allowed iff its lambda lies below every interpolated upper
    bound and above every lower bound at its r_c.  A region is closed iff
    every boundary row and column of the raster is fully excluded.  Each
    range must be finite and strictly increasing, and sampled at 1 point or more.
    """
    n_lambda, n_rc = resolution
    for name, (lo, hi), n in (("lambda", lambda_range_decades, n_lambda),
                              ("rc", rc_range_decades, n_rc)):
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ConfigError(
                f"log10 {name} range must be finite and increasing, got [{lo}, {hi}]"
            )
        if n < 1:
            raise ConfigError(f"n_{name} must be >= 1, got {n}")
    llam = np.linspace(*lambda_range_decades, n_lambda)
    lrc = np.linspace(*rc_range_decades, n_rc)
    has_upper = any(c.kind is BoundKind.UPPER for c in bounds)
    has_lower = any(c.kind is BoundKind.LOWER for c in bounds)

    allowed = np.ones((n_lambda, n_rc), dtype=bool)
    rc_m = 10.0**lrc
    lam_s = 10.0**llam
    for curve in bounds:
        bound_at = np.array([curve.lambda_at(r) for r in rc_m])
        if curve.kind is BoundKind.UPPER:
            mask = lam_s[:, None] <= bound_at[None, :]
        else:
            mask = lam_s[:, None] >= bound_at[None, :]
        allowed &= mask

    idx = np.argwhere(allowed)
    if len(idx):
        span_lambda = float(llam[idx[:, 0].max()] - llam[idx[:, 0].min()])
        span_rc = float(lrc[idx[:, 1].max()] - lrc[idx[:, 1].min()])
    else:
        span_lambda = span_rc = 0.0

    open_flags = {
        "lower": bool(allowed[0, :].any()) or not has_lower,
        "upper": bool(allowed[-1, :].any()) or not has_upper,
        "rc_low": bool(allowed[:, 0].any()),
        "rc_high": bool(allowed[:, -1].any()),
    }
    return ExclusionRaster(
        log10_lambda_axis=llam,
        log10_rc_axis=lrc,
        allowed=allowed,
        span_lambda_decades=span_lambda,
        span_rc_decades=span_rc,
        open_flags=open_flags,
    )
