"""Closed-form rate and energy laws implied by the localization postulate.

These are the analytic oracles the Monte Carlo ensembles are checked
against.  All rates are per second when lambda is given in s^-1; the
heating/diffusion formulas also come in internal-unit form (hbar = 1).
"""

from __future__ import annotations

import numpy as np

from .collapse import CollapseParams, effective_reduction_rate
from .errors import DomainError


def amplified_rate(n_nucleons: float, lambda_si: float) -> float:
    """Total collapse rate N * lambda of an entangled N-nucleon composite."""
    if not n_nucleons >= 0:
        raise DomainError(f"n_nucleons must be >= 0, got {n_nucleons}")
    if not lambda_si >= 0:
        raise DomainError(f"lambda_si must be >= 0, got {lambda_si}")
    return n_nucleons * lambda_si


def heating_rate(lambda_rate: float, mass: float, r_c: float) -> float:
    """Mean energy gain rate dE/dt = lambda / (4 m r_c^2), internal units.

    Each hit adds hbar^2/(4 m r_c^2) on average (exactly,
    state-independently, for the Gaussian localization operator).
    """
    if lambda_rate < 0 or mass <= 0 or r_c <= 0:
        raise DomainError("require lambda >= 0, mass > 0, r_c > 0")
    return lambda_rate / (4.0 * mass * r_c**2)


def momentum_diffusion_rate(lambda_rate: float, r_c: float) -> float:
    """d<p^2>/dt = lambda / (2 r_c^2), internal units; equals 2m * heating."""
    if lambda_rate < 0 or r_c <= 0:
        raise DomainError("require lambda >= 0 and r_c > 0")
    return lambda_rate / (2.0 * r_c**2)


def visibility_analytic(
    d: float, params: CollapseParams, t_flight: float, mass_in_mN: float | None = None
) -> float:
    """Fringe-contrast attenuation exp(-Gamma(d) * t_flight), in [0, 1]."""
    if t_flight < 0:
        raise DomainError(f"t_flight must be >= 0, got {t_flight}")
    gamma = effective_reduction_rate(d, params, mass_in_mN)
    return float(np.exp(-gamma * t_flight))
