"""The four benchmark workloads and the closed-form check of each run's outputs.

Each workload is one `grwlab` subcommand at the physics parameters of one
acceptance criterion (tests/test_acceptance.py), at an ensemble size chosen
so that one run at 2 threads takes over a second on a 2-core machine: below
that, pool start and shutdown make single timings jitter by 10 % or more.
decohere runs one e-folding of Gamma(d) instead of the gate's two, so that
enough trajectories stay coherent for the log-normal model of its check.

Every check compares a run's estimate with its closed form.  The tolerance is
a quantile of the estimate's sampling distribution at a two-sided false-alarm
rate of ALPHA per check, and the standard error behind it comes from the run
itself (the error the report states, or one estimated from the run's output
files) and from a sampling model at the run's ensemble size.  The larger of
the two is used.  No tolerance depends on the seed.

A check returns the run's estimates next to their closed forms, so that a
benchmark run can also pool the estimates of its repetitions (independent
seeds) and check their mean, whose standard error is smaller by the square
root of the number of repetitions.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import stats

# Two-sided false-alarm rate of one check under its sampling model.  A
# benchmark session makes a few thousand checks; the rate is set well below
# their inverse because the models are approximations whose tails can be
# heavier than the normal or chi-square law used for the quantile.
ALPHA = 1e-8
# The log of a surviving fraction has a much heavier lower tail than its
# normal approximation, so decohere's quantiles are taken further out.  Even
# so, in 1e7 simulated ensembles of the death process per separation, at the
# workload's size and on each separation's time grid (decohere_tails.py),
# the fit residual exceeded its limit in 8, 6 and 1 of them (d = 0.5, 2, 10
# r_c), under 1e-6 per separation, and the rate never exceeded its limit.
# The model is exact at d = 10 r_c; partial hits at 0.5 and 2 r_c spread the
# real coherence less than it does.
ALPHA_DECOHERE = 1e-10


@dataclass(frozen=True)
class Estimate:
    """One estimate of a run, its closed form and its standard error."""

    name: str
    value: float
    ref: float
    se: float
    alpha: float = ALPHA
    dof: float | None = None  # of the error estimate; None: the error is known

    def quantile(self) -> float:
        if self.dof is None:
            return float(stats.norm.isf(self.alpha / 2))
        return float(stats.t.isf(self.alpha / 2, self.dof))

    def deviation(self) -> list[str]:
        if not (math.isfinite(self.value) and math.isfinite(self.se)):
            return [f"{self.name}: non-finite estimate {self.value} (se {self.se})"]
        z = self.quantile()
        if abs(self.value - self.ref) > z * self.se:
            return [f"{self.name}: {self.value:.6g} vs closed form {self.ref:.6g}, "
                    f"|diff| > {z:.2f} x se {self.se:.3g}"]
        return []


def pooled(estimates: list[list[Estimate]]) -> list[Estimate]:
    """The mean of each estimate over runs of independent seeds.

    The standard error of the mean is sqrt(sum se_i^2) / R over R runs, and
    the degrees of freedom of estimated errors add up.
    """
    by_name: dict[str, list[Estimate]] = {}
    for run in estimates:
        for e in run:
            by_name.setdefault(e.name, []).append(e)
    result = []
    for name, es in by_name.items():
        r = len(es)
        dof = None if es[0].dof is None else sum(e.dof for e in es)
        result.append(Estimate(
            f"pooled over {r} runs: {name}", sum(e.value for e in es) / r, es[0].ref,
            math.sqrt(sum(e.se**2 for e in es)) / r, es[0].alpha, dof))
    return result


# A check reads one run's output directory and returns the problems found
# in it (files that are missing or malformed) and its estimates.
Check = Callable[[Path, int], tuple[list[str], list[Estimate]]]


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # subcommand and physics flags, without --n-traj
    n_traj: int
    traj_per_traj_unit: int  # trajectories per unit of --n-traj
    check: Check

    def cli_args(self, seed: int, threads: int, out: Path) -> list[str]:
        return list(self.argv) + [
            "--n-traj", str(self.n_traj), "--seed", str(seed),
            "--threads", str(threads), "--out", str(out),
        ]

    @property
    def trajectories(self) -> int:
        return self.n_traj * self.traj_per_traj_unit


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# born: criterion 2 at p_up = 0.2
# ---------------------------------------------------------------------------

def check_born(out: Path, n: int) -> tuple[list[str], list[Estimate]]:
    rep = _read_json(out / "report.json")
    p = 0.2
    counts = rep["outcome_counts"]
    errors = []
    if counts.get("up", 0) + counts.get("down", 0) != n:
        errors.append(f"born: outcome counts {counts} do not sum to {n}")
    # binomial error of the frequency at the expected p, and the report's own
    se = max(math.sqrt(p * (1 - p) / n), float(rep["stderr"]))
    return errors, [Estimate("born frequency", float(rep["estimate"]), p, se)]


# ---------------------------------------------------------------------------
# heating: criterion 4 (lambda = 4, r_c = 1, t = 5)
# ---------------------------------------------------------------------------

def _ols_weights(t: np.ndarray) -> np.ndarray:
    dt = t - t.mean()
    return dt / np.sum(dt**2)


def random_walk_slope_se(t: np.ndarray, y: np.ndarray) -> tuple[float, int]:
    """Standard error of the OLS slope of an ensemble-mean curve y(t).

    y is a sum of independent increments (the hits each trajectory has
    taken so far), so its points are correlated and the OLS residual error
    understates the slope's spread.  The variance rate of y is estimated
    from the run's own increments; the slope variance is then
    v * sum_ij w_i w_j min(t_i, t_j) with OLS weights w.  Returns the error
    and the degrees of freedom of the variance estimate.
    """
    h = np.diff(t)
    dy = np.diff(y)
    drift = (y[-1] - y[0]) / (t[-1] - t[0])
    dof = len(h) - 1
    rate = float(np.sum((dy - drift * h) ** 2 / h) / dof)
    s = t - t[0]
    w = _ols_weights(t)
    var = rate * float(w @ np.minimum.outer(s, s) @ w)
    return math.sqrt(var), dof


def check_heating(out: Path, n: int) -> tuple[list[str], list[Estimate]]:
    rep = _read_json(out / "report.json")
    rows = _read_csv(out / "curves.csv")
    t = np.array([float(r["t"]) for r in rows])
    errors, estimates = [], []
    if int(rep["n_trajectories"]) != n:
        errors.append(f"heating: report has {rep['n_trajectories']} trajectories, not {n}")
    for key, column in (("slope_energy", "mean_energy"), ("slope_p2", "mean_p2")):
        y = np.array([float(r[column]) for r in rows])
        se_rw, dof = random_walk_slope_se(t, y)
        se = max(se_rw, float(rep[f"{key}_stderr"]))
        estimates.append(Estimate(f"heating {key}", float(rep[key]),
                                  float(rep[f"{key}_analytic"]), se, dof=dof))
    return errors, estimates


# ---------------------------------------------------------------------------
# decohere: criterion 3 (d = 0.5, 2, 10 r_c; lambda = 2; r_c = 1)
# ---------------------------------------------------------------------------

DECOHERE_LAMBDA = 2.0
DECOHERE_HIT_RESOLUTION = 0.05
DECOHERE_EFOLDINGS = 1.0
DECOHERE_SAMPLES = 16


def decohere_times(gamma: float) -> np.ndarray:
    """The times at which a decohere run samples and fits the coherence.

    The run steps by dt = hit resolution / lambda over n_efoldings / gamma,
    and samples every (steps // n_samples)-th step and the last one.  So the
    grid is uneven or longer than n_samples + 1 points when the steps do
    not divide evenly: 18 points at d = 0.5 r_c, 17 at 2 r_c, 21 at 10 r_c.
    """
    dt = DECOHERE_HIT_RESOLUTION / DECOHERE_LAMBDA
    n_steps = max(1, round(DECOHERE_EFOLDINGS / gamma / dt))
    every = max(1, n_steps // DECOHERE_SAMPLES)
    steps = [b for b in range(n_steps + 1) if b % every == 0 or b == n_steps]
    return np.array(steps) * dt


def survival_log_cov(t: np.ndarray, gamma: float, n: int) -> np.ndarray:
    """Covariance of log(mean coherence) at times t for n trajectories.

    Model: each trajectory keeps its initial coherence until its first hit
    and loses it at that hit, so the mean is the surviving fraction of a
    death process with rate gamma.  For a survival probability p the log of
    the surviving fraction has variance (1 - p) / (n p), and two times share
    the variance of the earlier one.  A hit at a separation comparable to
    r_c removes only part of the coherence, which spreads the mean less, so
    the model bounds the spread at every separation.
    """
    p = np.exp(-gamma * np.minimum.outer(t, t))
    return (1.0 - p) / (n * p)


def decohere_limits(t: np.ndarray, gamma: float, n: int) -> tuple[float, float]:
    """Limits of the fitted decay rate's error and of the fit's residual.

    Returns the standard error of the OLS rate under the death-process model,
    and the residual sum of squares the fit exceeds with probability
    ALPHA_DECOHERE, taking the residual as a scaled chi-square with the
    model's mean and variance.
    """
    cov = survival_log_cov(t, gamma, n)
    w = _ols_weights(t)
    x = t - t.mean()
    resid = np.eye(len(t)) - np.ones((len(t), len(t))) / len(t) - np.outer(x, x) / (x @ x)
    m = resid @ cov
    mean, var = float(np.trace(m)), 2.0 * float(np.trace(m @ m))
    scale, dof = var / (2.0 * mean), 2.0 * mean**2 / var
    return math.sqrt(float(w @ cov @ w)), scale * float(stats.chi2.isf(ALPHA_DECOHERE, dof))


def check_decohere(out: Path, n: int) -> tuple[list[str], list[Estimate]]:
    rows = _read_csv(out / "scan.csv")
    errors, estimates = [], []
    if [float(r["d_over_rc"]) for r in rows] != [0.5, 2.0, 10.0]:
        errors.append("decohere: unexpected separations in scan.csv")
        return errors, estimates
    for r in rows:
        tag = f"decohere d={r['d_over_rc']} r_c"
        gamma = float(r["gamma_analytic_internal"])
        gamma_fit = float(r["gamma_fit_internal"])
        r2 = float(r["r2"])
        t = decohere_times(gamma)
        se_model, limit = decohere_limits(t, gamma, n)
        se = max(se_model, float(r["gamma_stderr_internal"]))
        estimates.append(Estimate(f"{tag} gamma", gamma_fit, gamma, se, ALPHA_DECOHERE))
        if not 0.0 < r2 <= 1.0:
            errors.append(f"{tag}: r2 = {r2} outside (0, 1]")
            continue
        # the residual sum of squares of the fit, recovered from its r2
        x = t - t.mean()
        ss_res = (1.0 - r2) / r2 * gamma_fit**2 * float(x @ x)
        if ss_res > limit:
            errors.append(f"{tag}: r2 = {r2:.6f}, residual {ss_res:.3g} > limit {limit:.3g}")
    return errors, estimates


# ---------------------------------------------------------------------------
# visibility: criterion 5 (d = 64, r_c = 4, lambda = 1, t = 1/Gamma)
# ---------------------------------------------------------------------------

def check_visibility(out: Path, n: int) -> tuple[list[str], list[Estimate]]:
    rep = _read_json(out / "report.json")
    rows = _read_csv(out / "screen.csv")
    errors = []
    if len(rows) != 8192:
        errors.append(f"visibility: screen.csv has {len(rows)} rows, not 8192")
    v = math.exp(-1.0)
    if abs(float(rep["V_analytic"]) - v) > 1e-9:
        errors.append(f"visibility: V_analytic {rep['V_analytic']} is not e^-1 at t = 1/Gamma")
    # d >> r_c: one hit removes the fringes, so the ratio is the fraction of
    # trajectories without a hit, a binomial frequency with mean e^-1
    se = max(math.sqrt(v * (1 - v) / n), float(rep["ratio_stderr"]))
    return errors, [Estimate("visibility ratio", float(rep["ratio"]), v, se)]


# the reason for each workload is its `why` in BENCHMARK.json
WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "visibility",
            ("visibility", "--d-internal", "64", "--rc-internal", "4",
             "--lambda-internal", "1", "--t-flight-internal", "1", "--grid-n", "1024"),
            96, 1, check_visibility,
        ),
        Workload(
            "heating",
            ("heating", "--lambda-internal", "4", "--rc-internal", "1",
             "--t-total-internal", "5", "--grid-n", "512"),
            384, 1, check_heating,
        ),
        Workload(
            "born",
            ("born", "--c-up2", "0.2", "--lambda-internal", "1", "--rc-internal", "1",
             "--pointer-n-nucleons", "1e8", "--grid-n", "1024"),
            3000, 1, check_born,
        ),
        Workload(
            "decohere",
            ("decohere", "--separations-over-rc", "0.5,2,10",
             "--lambda-internal", str(DECOHERE_LAMBDA), "--rc-internal", "1",
             "--grid-n", "1024", "--hit-resolution", str(DECOHERE_HIT_RESOLUTION),
             "--n-efoldings", str(DECOHERE_EFOLDINGS), "--n-samples", str(DECOHERE_SAMPLES)),
            320, 3, check_decohere,
        ),
    )
}
