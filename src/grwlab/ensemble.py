"""Ordered, reproducible ensemble execution.

Workers are module-level functions fn(cfg, master_seed, index) -> result.
Each index derives its own Philox stream from (master_seed, index), and
results are concatenated in index order, so the outcome is independent of
thread count and scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import ConfigError


def resolve_threads(threads) -> int:
    if threads in (None, "auto"):
        env = os.environ.get("GRWLAB_THREADS")
        if env is not None:
            try:
                return max(1, int(env))
            except ValueError as exc:
                raise ConfigError(f"bad GRWLAB_THREADS value {env!r}") from exc
        return max(1, min(os.cpu_count() or 1, 8))
    t = int(threads)
    if t < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    return t


def _run_chunk(args):
    fn, cfg, master_seed, indices = args
    return [fn(cfg, master_seed, i) for i in indices]


def map_trajectories(fn, cfg, n: int, master_seed: int, threads: int = 1) -> list:
    """Run fn over indices 0..n-1; ordered results, thread-count independent."""
    if n < 1:
        raise ConfigError(f"an ensemble needs at least 1 trajectory, got {n}")
    threads = resolve_threads(threads)
    if threads <= 1 or n <= 1:
        return [fn(cfg, master_seed, i) for i in range(n)]
    n_chunks = min(n, threads * 4)
    chunks = np.array_split(np.arange(n), n_chunks)
    jobs = [(fn, cfg, master_seed, [int(i) for i in c]) for c in chunks if len(c)]
    with ProcessPoolExecutor(max_workers=threads) as ex:
        parts = list(ex.map(_run_chunk, jobs))
    return [r for part in parts for r in part]
