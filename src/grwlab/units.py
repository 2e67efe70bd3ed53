"""Internal unit system with hbar = 1.

The internal units are chosen so the canonical localization length and the
nucleon mass are both of order one on the grid: length unit 1e-7 m (i.e.
10^-5 cm), mass unit the nucleon mass.  The time unit is then fixed by
hbar = 1:  t_unit = m_unit * L_unit^2 / hbar_SI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError

HBAR_SI = 1.054571817e-34  # J s (CODATA 2018 exact-by-definition value)
NUCLEON_MASS_KG = 1.67262192e-27  # proton mass, kg
CANONICAL_RC_M = 1e-7  # 10^-5 cm


@dataclass(frozen=True)
class UnitSystem:
    """SI anchors of the internal unit system; hbar is always 1 internally."""

    length_unit_m: float = CANONICAL_RC_M
    mass_unit_kg: float = NUCLEON_MASS_KG
    time_unit_s: float = field(init=False, default=0.0)

    def __post_init__(self):
        if not (self.length_unit_m > 0 and self.mass_unit_kg > 0):
            raise DomainError("unit scales must be strictly positive")
        t = self.mass_unit_kg * self.length_unit_m**2 / HBAR_SI
        object.__setattr__(self, "time_unit_s", t)

    # --- rates (s^-1 <-> internal inverse time) -------------------------
    def rate_to_internal(self, rate_si: float) -> float:
        if rate_si < 0:
            raise DomainError(f"rate must be non-negative, got {rate_si}")
        return rate_si * self.time_unit_s

    def rate_to_si(self, rate_internal: float) -> float:
        if rate_internal < 0:
            raise DomainError(f"rate must be non-negative, got {rate_internal}")
        return rate_internal / self.time_unit_s

    # --- lengths and times ---------------------------------------------
    def length_to_internal(self, x_m: float) -> float:
        return x_m / self.length_unit_m

    def time_to_internal(self, t_s: float) -> float:
        return t_s / self.time_unit_s

    def time_to_si(self, t_internal: float) -> float:
        return t_internal * self.time_unit_s


DEFAULT_UNITS = UnitSystem()


def convert_rate_to_si(lambda_internal: float) -> float:
    return DEFAULT_UNITS.rate_to_si(lambda_internal)
