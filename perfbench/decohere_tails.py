"""False-alarm rate of the decohere check under its own model.

    python3 perfbench/decohere_tails.py

check_decohere assumes that the log of the mean coherence behaves like the
log of the surviving fraction of a death process with rate Gamma(d), and
takes normal and scaled chi-square quantiles for its limits.  The log of a
small surviving fraction has heavier tails than those laws.  This script
simulates that death process exactly, at the decohere workload's ensemble
size and on each separation's real time grid (decohere_times), and counts
the ensembles whose fitted rate or fit residual exceeds the check's limits.
The count of surviving trajectories is a binomial chain over the grid, so
no trajectory is drawn one by one.  It takes about a minute.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402

ENSEMBLES = 10**7  # per separation
CHUNK = 100_000


def exceedances(d_over_rc: float, n: int, ensembles: int, rng) -> tuple[int, int, np.ndarray]:
    gamma = W.DECOHERE_LAMBDA * (1.0 - math.exp(-d_over_rc**2 / 4.0))
    t = W.decohere_times(gamma)
    se, limit = W.decohere_limits(t, gamma, n)
    z = W.Estimate("", 0.0, 0.0, 1.0, W.ALPHA_DECOHERE).quantile()
    x = t - t.mean()
    keep = np.exp(-gamma * np.diff(t))
    bad_rate = bad_resid = 0
    done = 0
    while done < ensembles:
        m = min(CHUNK, ensembles - done)
        alive = np.empty((m, len(t)), dtype=np.int64)
        alive[:, 0] = n
        for k, q in enumerate(keep):
            alive[:, k + 1] = rng.binomial(alive[:, k], q)
        with np.errstate(divide="ignore"):
            y = np.log(alive / n)
        slope = (y @ x) / (x @ x)
        resid = y - y.mean(axis=1, keepdims=True) - np.outer(slope, x)
        ss_res = np.sum(resid**2, axis=1)
        finite = np.isfinite(slope) & np.isfinite(ss_res)
        bad_rate += int(np.sum(~finite | (np.abs(-slope - gamma) > z * se)))
        bad_resid += int(np.sum(~finite | (ss_res > limit)))
        done += m
    return bad_rate, bad_resid, t


def main() -> int:
    n = W.WORKLOADS["decohere"].n_traj
    rng = np.random.default_rng(20261017)
    for d in (0.5, 2.0, 10.0):
        bad_rate, bad_resid, t = exceedances(d, n, ENSEMBLES, rng)
        print(f"d = {d:g} r_c: {len(t)} times, n = {n}, {ENSEMBLES} ensembles: "
              f"rate outside its limit {bad_rate}, residual above its limit {bad_resid}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
