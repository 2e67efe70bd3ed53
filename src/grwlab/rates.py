"""Closed-form rate and energy laws implied by the localization postulate.

These are the analytic oracles the Monte Carlo ensembles are checked
against.  All rates are per second when lambda is given in s^-1; the
heating/diffusion formulas also come in internal-unit form (hbar = 1).
"""

from __future__ import annotations

import numpy as np

from .collapse import CollapseParams, effective_reduction_rate
from .errors import DomainError
from .units import HBAR_SI, NUCLEON_MASS_KG


def amplified_rate(n_nucleons: float, lambda_si: float) -> float:
    """Total collapse rate N * lambda of an entangled N-nucleon composite."""
    if n_nucleons < 0 or lambda_si < 0:
        raise DomainError("inputs must be non-negative")
    return n_nucleons * lambda_si


def mass_rate(mass_in_mN: float, lambda_si: float) -> float:
    """Mass-proportional collapse rate (m / m_N) * lambda."""
    if mass_in_mN <= 0:
        raise DomainError(f"mass must be positive, got {mass_in_mN}")
    return mass_in_mN * lambda_si


def survival_probability(rate_total: float, t: float) -> float:
    """P(no hit by time t) = exp(-rate * t) for a Poisson hit process."""
    if rate_total < 0 or t < 0:
        raise DomainError("rate and t must be non-negative")
    return float(np.exp(-rate_total * t))


def heating_rate(
    lambda_rate: float, mass: float, r_c: float, dims: int = 1, hbar: float = 1.0
) -> float:
    """Mean energy gain rate dE/dt = dims * lambda * hbar^2 / (4 m r_c^2).

    Each hit adds hbar^2/(4 m r_c^2) per dimension on average (exactly,
    state-independently, for the Gaussian localization operator).  Pass SI
    arguments with hbar=HBAR_SI for watts, or internal units with hbar=1.
    """
    if lambda_rate < 0 or mass <= 0 or r_c <= 0:
        raise DomainError("require lambda >= 0, mass > 0, r_c > 0")
    if dims not in (1, 3):
        raise DomainError(f"dims must be 1 or 3, got {dims}")
    return dims * lambda_rate * hbar**2 / (4.0 * mass * r_c**2)


def heating_rate_si_per_nucleon(lambda_si: float, r_c_m: float, dims: int = 1) -> float:
    """Watts gained per nucleon at the given SI collapse rate."""
    return heating_rate(lambda_si, NUCLEON_MASS_KG, r_c_m, dims, hbar=HBAR_SI)


def momentum_diffusion_rate(
    lambda_rate: float, r_c: float, dims: int = 1, hbar: float = 1.0
) -> float:
    """d<p^2>/dt = dims * lambda * hbar^2 / (2 r_c^2); equals 2m * heating."""
    if lambda_rate < 0 or r_c <= 0:
        raise DomainError("require lambda >= 0 and r_c > 0")
    if dims not in (1, 3):
        raise DomainError(f"dims must be 1 or 3, got {dims}")
    return dims * lambda_rate * hbar**2 / (2.0 * r_c**2)


def visibility_analytic(
    d: float, params: CollapseParams, t_flight: float, mass_in_mN: float | None = None
) -> float:
    """Fringe-contrast attenuation exp(-Gamma(d) * t_flight), in [0, 1]."""
    if t_flight < 0:
        raise DomainError(f"t_flight must be >= 0, got {t_flight}")
    gamma = effective_reduction_rate(d, params, mass_in_mN)
    return float(np.exp(-gamma * t_flight))
