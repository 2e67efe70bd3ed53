"""Reproducible per-trajectory random streams.

Streams are counter-based (Philox 4x64).  Trajectory i of an ensemble with
master seed s gets key s * 2^64 + i, so every stream is independent of
execution order and thread count.  A stream tag t, for runs that need
several ensembles under one seed, starts the counter at t * 2^192: tag 0 is
the plain stream, and streams of different tags lie 2^192 blocks apart.
Only uniform doubles are drawn from numpy; all variates are derived from
them explicitly: an exponential waiting time by inversion,
-log(1 - u) / rate, and the normal offset of a hit center by Box-Muller,
sigma sqrt(-2 log(1 - u1)) cos(2 pi u2).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_U64 = 1 << 64


def trajectory_rng(
    master_seed: int, index: int = 0, stream: int = 0
) -> np.random.Generator:
    if not (0 <= master_seed < _U64):
        raise DomainError(f"master_seed must be a u64, got {master_seed}")
    if index < 0:
        raise DomainError(f"trajectory index must be non-negative, got {index}")
    if not (0 <= stream < _U64):
        raise DomainError(f"stream tag must be a u64, got {stream}")
    key = (master_seed % _U64) * _U64 + index
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, stream]))


def exponential_variate(rng: np.random.Generator, rate: float) -> float:
    """Waiting time with mean 1/rate from one uniform draw."""
    if rate <= 0 or not np.isfinite(rate):
        raise DomainError(f"rate must be positive and finite, got {rate}")
    u = rng.random()
    return -np.log1p(-u) / rate
