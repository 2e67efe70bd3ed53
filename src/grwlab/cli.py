"""Command-line surface: subcommands, config files, run manifests, file I/O.

Config files are INI-style with one section per subcommand; CLI flags
mirror the config keys and override file values.  Every physical input
carries its unit in the key suffix (`_si`, `_m`, `_s`, `_internal`);
giving the same quantity in two units is rejected.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .collapse import CollapseParams, grw_trajectory
from .ensemble import resolve_threads
from .errors import BoundsParseError, ConfigError, GrwError
from .exclusion import allowed_region, default_bounds_path, load_bounds
from .experiments import (
    DecoherenceConfig,
    HeatingConfig,
    MeasurementConfig,
    VisibilityConfig,
    born_ensemble,
    decoherence_scan,
    heating_experiment,
    visibility_experiment,
)
from .propagator import Potential
from .qstate import Grid1D, gaussian_packet, observables
from .rates import amplified_rate
from .rngstream import trajectory_rng
from .snapshot import read_snapshot, write_snapshot
from .units import DEFAULT_UNITS

OBS_COLUMNS = ("norm2", "mean_x", "var_x", "mean_p", "var_p", "mean_p2", "energy")


# ---------------------------------------------------------------------------
# CSV / JSON output helpers
# ---------------------------------------------------------------------------

def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

# config keys per subcommand; CLI flags are the same names with dashes
KEYS: dict[str, list[str]] = {
    "evolve": [
        "grid_n", "grid_extent", "x0", "p0", "sigma0", "mass", "potential",
        "omega", "t_total_internal", "t_total_s", "dt_internal", "sample_every",
    ],
    "trajectory": [
        "grid_n", "grid_extent", "x0", "p0", "sigma0", "mass", "potential",
        "omega", "t_total_internal", "t_total_s", "dt_internal", "sample_every",
        "lambda_si", "lambda_internal", "rc_internal", "rc_m", "n_nucleons",
        "mass_scaling",
    ],
    "born": [
        "c_up2", "n_traj", "lambda_si", "lambda_internal", "rc_internal",
        "rc_m", "pointer_n_nucleons", "pointer_separation", "pointer_sigma",
        "decision_epsilon", "grid_n", "grid_extent", "hits_budget",
        "hit_resolution",
    ],
    "decohere": [
        "separations_over_rc", "lambda_si", "lambda_internal", "rc_internal",
        "rc_m", "n_nucleons", "n_traj", "packet_sigma_over_rc", "mass",
        "grid_n", "grid_extent", "hit_resolution", "n_efoldings", "n_samples",
    ],
    "visibility": [
        "d_internal", "lambda_si", "lambda_internal", "rc_internal", "rc_m",
        "n_nucleons", "t_flight_internal", "t_flight_s", "n_traj", "sigma0",
        "mass", "grid_n", "grid_extent", "hit_resolution", "n_batches",
        "n_fringes",
    ],
    "heating": [
        "lambda_si", "lambda_internal", "rc_internal", "rc_m", "n_nucleons",
        "t_total_internal", "t_total_s", "n_traj", "sigma0", "mass", "grid_n",
        "grid_extent", "dt_internal", "sample_every",
    ],
    "exclusion": [
        "bounds", "log_lambda_min", "log_lambda_max", "log_rc_min",
        "log_rc_max", "n_lambda", "n_rc",
    ],
    "rates": ["n", "lambda_si", "table"],
    "snapshot": ["input", "csv"],
}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


class Settings:
    """Merged string-valued config: file section overridden by CLI flags."""

    def __init__(self, values: dict[str, str]):
        self.values = values

    def get(self, key: str, default=None) -> str | None:
        return self.values.get(key, default)

    def get_float(self, key: str, default: float) -> float:
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"bad numeric value for {key}: {raw!r}") from exc

    def get_int(self, key: str, default: int) -> int:
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return int(float(raw)) if "e" in raw or "." in raw else int(raw)
        except ValueError as exc:
            raise ConfigError(f"bad integer value for {key}: {raw!r}") from exc

    def get_bool(self, key: str, default: bool) -> bool:
        raw = self.values.get(key)
        if raw is None:
            return default
        low = raw.strip().lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"bad boolean value for {key}: {raw!r}")

    def _pick_unit(self, base: str, suffixes: list[str]) -> tuple[str, float] | None:
        present = [s for s in suffixes if f"{base}_{s}" in self.values]
        if len(present) > 1:
            keys = ", ".join(f"{base}_{s}" for s in present)
            raise ConfigError(f"mixed units for {base}: give only one of {keys}")
        if not present:
            return None
        s = present[0]
        return s, self.get_float(f"{base}_{s}", 0.0)

    def rate_si(self, base: str, default_si: float) -> float:
        """A rate quantity, returned in s^-1."""
        pick = self._pick_unit(base, ["si", "internal"])
        if pick is None:
            return default_si
        suffix, v = pick
        return v if suffix == "si" else DEFAULT_UNITS.rate_to_si(v)

    def length_internal(self, base: str, default_internal: float) -> float:
        pick = self._pick_unit(base, ["m", "internal"])
        if pick is None:
            return default_internal
        suffix, v = pick
        return DEFAULT_UNITS.length_to_internal(v) if suffix == "m" else v

    def time_internal(self, base: str, default_internal: float) -> float:
        pick = self._pick_unit(base, ["s", "internal"])
        if pick is None:
            return default_internal
        suffix, v = pick
        return DEFAULT_UNITS.time_to_internal(v) if suffix == "s" else v


def load_settings(subcommand: str, args: argparse.Namespace) -> Settings:
    merged: dict[str, str] = {}
    if args.config is not None:
        parser = configparser.ConfigParser()
        read = parser.read(args.config)
        if not read:
            raise ConfigError(f"config file not found: {args.config}")
        if parser.has_section(subcommand):
            for key, value in parser.items(subcommand):
                if key not in KEYS[subcommand]:
                    raise ConfigError(
                        f"unknown key {key!r} in [{subcommand}] of {args.config}"
                    )
                merged[key] = value
    for key in KEYS[subcommand]:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return Settings(merged)


def _collapse_params(s: Settings, n_nucleons_key: str = "n_nucleons") -> CollapseParams:
    return CollapseParams(
        lambda_si=s.rate_si("lambda", 1e-16),
        r_c=s.length_internal("rc", 1.0),
        n_nucleons=s.get_float(n_nucleons_key, 1.0),
        mass_scaling=s.get_bool("mass_scaling", False),
    )


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns a list of files written into outdir
# ---------------------------------------------------------------------------

def _packet_and_potential(s: Settings):
    grid = Grid1D.centered(s.get_int("grid_n", 512), s.get_float("grid_extent", 64.0))
    psi0 = gaussian_packet(
        grid,
        s.get_float("x0", 0.0),
        s.get_float("p0", 0.0),
        s.get_float("sigma0", 2.0),
        s.get_float("mass", 1.0),
    )
    kind = s.get("potential", "free")
    if kind == "free":
        v = Potential.free()
    elif kind == "harmonic":
        v = Potential.harmonic(s.get_float("omega", 1.0))
    else:
        raise ConfigError(f"unknown potential {kind!r} (free|harmonic)")
    return psi0, v


def _run_single(s: Settings, params: CollapseParams, seed: int, outdir: Path,
                write_record: bool) -> list[str]:
    psi0, v = _packet_and_potential(s)
    t_total = s.time_internal("t_total", 4.0)
    dt = s.get_float("dt_internal", 0.005)
    sample_every = s.get_int("sample_every", 10)
    rec = grw_trajectory(
        psi0, v, params, t_total, dt, sample_every,
        trajectory_rng(seed, 0), seed=seed,
    )
    outputs = []
    write_csv(
        outdir / "samples.csv",
        ["t"] + list(OBS_COLUMNS),
        ([t] + [o[c] for c in OBS_COLUMNS]
         for t, o in zip(rec.sample_times, rec.observables_at_samples)),
    )
    outputs.append("samples.csv")
    write_snapshot(rec.final_state, outdir / "final_state.qsl1", DEFAULT_UNITS)
    outputs.append("final_state.qsl1")
    if write_record:
        write_csv(
            outdir / "events.csv",
            ["t", "center", "branch_weight"],
            ((e.t, e.center, e.branch_weight) for e in rec.events),
        )
        outputs.append("events.csv")
        write_json(outdir / "record.json", rec.to_json_dict())
        outputs.append("record.json")
    return outputs


def cmd_evolve(s: Settings, seed: int, threads: int, outdir: Path) -> list[str]:
    params = CollapseParams(0.0, 1.0)
    return _run_single(s, params, seed, outdir, write_record=False)


def cmd_trajectory(s: Settings, seed: int, threads: int, outdir: Path) -> list[str]:
    return _run_single(s, _collapse_params(s), seed, outdir, write_record=True)


def cmd_born(s: Settings, seed: int, threads: int, outdir: Path) -> list[str]:
    p_up = s.get_float("c_up2", 0.5)
    if not 0.0 <= p_up <= 1.0:
        raise ConfigError(f"c_up2 must be in [0, 1], got {p_up}")
    cfg = MeasurementConfig(
        c_up=np.sqrt(p_up),
        c_down=np.sqrt(1.0 - p_up),
        pointer_n_nucleons=s.get_float("pointer_n_nucleons", 1e8),
        pointer_separation=s.get_float("pointer_separation", 16.0),
        pointer_sigma=s.get_float("pointer_sigma", 1.0),
        decision_epsilon=s.get_float("decision_epsilon", 1e-6),
        grid_n=s.get_int("grid_n", 1024),
        grid_extent=s.get_float("grid_extent", 48.0),
        hits_budget=s.get_float("hits_budget", 20.0),
        hit_resolution=s.get_float("hit_resolution", 0.1),
    )
    params = CollapseParams(
        lambda_si=s.rate_si("lambda", 1e-16),
        r_c=s.length_internal("rc", 1.0),
        n_nucleons=cfg.pointer_n_nucleons,
    )
    report = born_ensemble(cfg, params, s.get_int("n_traj", 1000), seed, threads)
    write_json(outdir / "report.json", report.to_json_dict())
    write_csv(
        outdir / "counts.csv",
        ["outcome", "count"],
        sorted(report.outcome_counts.items()),
    )
    return ["report.json", "counts.csv"]


def cmd_decohere(s: Settings, seed: int, threads: int, outdir: Path) -> list[str]:
    params = _collapse_params(s)
    raw = s.get("separations_over_rc", "0.5,2,10")
    try:
        ratios = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad separations_over_rc list: {raw!r}") from exc
    cfg = DecoherenceConfig(
        packet_sigma_over_rc=s.get_float("packet_sigma_over_rc", 0.05),
        mass=s.get_float("mass", 1e6),
        grid_n=s.get_int("grid_n", 1024),
        grid_extent=s.get_float("grid_extent", 32.0),
        hit_resolution=s.get_float("hit_resolution", 0.05),
        n_efoldings=s.get_float("n_efoldings", 2.0),
        n_samples=s.get_int("n_samples", 16),
    )
    separations = [r * params.r_c for r in ratios]
    reports = decoherence_scan(
        separations, params, s.get_int("n_traj", 300), cfg, seed, threads
    )
    write_csv(
        outdir / "scan.csv",
        ["d_over_rc", "d_internal", "gamma_fit_internal", "gamma_stderr_internal",
         "gamma_analytic_internal", "r2"],
        (
            (r, d, rep.estimate, rep.stderr,
             rep.fit_diagnostics["gamma_analytic_internal"],
             rep.fit_diagnostics["r2"])
            for r, d, rep in zip(ratios, separations, reports)
        ),
    )
    write_json(outdir / "reports.json",
               {"scan": [rep.to_json_dict() for rep in reports]})
    return ["scan.csv", "reports.json"]


def cmd_visibility(s: Settings, seed: int, threads: int, outdir: Path) -> list[str]:
    params = _collapse_params(s)
    cfg = VisibilityConfig(
        sigma0=s.get_float("sigma0", 1.0),
        mass=s.get_float("mass", 1e6),
        grid_n=s.get_int("grid_n", 1024),
        grid_extent=s.get_float("grid_extent", 128.0),
        hit_resolution=s.get_float("hit_resolution", 1e-3),
        n_batches=s.get_int("n_batches", 10),
        n_fringes=s.get_float("n_fringes", 5.0),
    )
    result = visibility_experiment(
        s.get_float("d_internal", 64.0),
        params,
        s.time_internal("t_flight", 1.0),
        s.get_int("n_traj", 400),
        cfg,
        seed,
        threads,
        keep_screen=True,
    )
    screen = result.pop("screen")
    write_csv(
        outdir / "screen.csv",
        ["p", "intensity_mean", "intensity_ideal"],
        zip(screen["p"], screen["mean"], screen["ideal"]),
    )
    write_json(outdir / "report.json", result)
    return ["screen.csv", "report.json"]


def cmd_heating(s: Settings, seed: int, threads: int, outdir: Path) -> list[str]:
    params = _collapse_params(s)
    cfg = HeatingConfig(
        sigma0=s.get_float("sigma0", 2.0),
        mass=s.get_float("mass", 1.0),
        grid_n=s.get_int("grid_n", 512),
        grid_extent=s.get_float("grid_extent", 128.0),
        dt=s.get_float("dt_internal", 0.025),
        sample_every=s.get_int("sample_every", 10),
    )
    result = heating_experiment(
        params,
        s.time_internal("t_total", 5.0),
        s.get_int("n_traj", 1000),
        cfg,
        seed,
        threads,
        keep_curves=True,
    )
    curves = result.pop("curves")
    write_csv(
        outdir / "curves.csv",
        ["t", "mean_energy", "mean_p2"],
        zip(curves["t"], curves["energy"], curves["p2"]),
    )
    write_json(outdir / "report.json", result)
    return ["curves.csv", "report.json"]


def cmd_exclusion(s: Settings, seed: int, threads: int, outdir: Path) -> list[str]:
    source = s.get("bounds", "default")
    path = default_bounds_path() if source == "default" else Path(source)
    bounds = load_bounds(path)
    raster = allowed_region(
        bounds,
        lambda_range_decades=(s.get_float("log_lambda_min", -18.0),
                      s.get_float("log_lambda_max", -4.0)),
        rc_range_decades=(s.get_float("log_rc_min", -9.0),
                  s.get_float("log_rc_max", -5.0)),
        resolution=(s.get_int("n_lambda", 141), s.get_int("n_rc", 41)),
    )
    write_csv(
        outdir / "raster.csv",
        ["log10_rc", "log10_lambda", "allowed"],
        (
            (raster.log10_rc_axis[j], raster.log10_lambda_axis[i], int(raster.allowed[i, j]))
            for i in range(len(raster.log10_lambda_axis))
            for j in range(len(raster.log10_rc_axis))
        ),
    )
    write_csv(
        outdir / "boundary.csv",
        ["curve", "log10_rc", "log10_lambda"],
        (
            (name, rc, lam)
            for name, pts in raster.boundary_polylines().items()
            for rc, lam in pts
        ),
    )
    summary = raster.summary()
    summary["curves"] = [
        {"name": c.name, "kind": c.kind.value, "n_points": len(c.points),
         "source": c.source}
        for c in bounds
    ]
    write_json(outdir / "summary.json", summary)
    return ["raster.csv", "boundary.csv", "summary.json"]


def cmd_rates(s: Settings, seed: int, threads: int, outdir: Path) -> list[str]:
    lam = s.get_float("lambda_si", 1e-16)
    n_raw = s.get("n")
    if n_raw is not None and not s.get_bool("table", False):
        print("%g" % amplified_rate(float(n_raw), lam))
        return []
    rows = []
    for n in (1.0, 2.0, 1e8, 1e23):
        rate = amplified_rate(n, lam)
        rows.append((n, rate, 1.0 / rate if rate > 0 else float("inf")))
    print(f"{'N':>12}  {'rate_si':>12}  {'mean_collapse_time_s':>20}")
    for n, rate, tmean in rows:
        print(f"{n:>12g}  {rate:>12g}  {tmean:>20g}")
    return []


def cmd_snapshot(s: Settings, seed: int, threads: int, outdir: Path) -> list[str]:
    source = s.get("input")
    if source is None:
        raise ConfigError("snapshot needs an input file (positional or input=...)")
    psi, units = read_snapshot(source)
    info = {
        "n_points": psi.grid.n_points,
        "x_min": psi.grid.x_min,
        "dx": psi.grid.dx,
        "mass": psi.mass,
        "length_unit_m": units.length_unit_m,
        "mass_unit_kg": units.mass_unit_kg,
        "observables": observables(psi),
    }
    print(json.dumps(info, indent=2, sort_keys=True))
    csv_path = s.get("csv")
    if csv_path is not None:
        target = outdir / csv_path
        write_csv(
            target,
            ["x", "re", "im"],
            zip(psi.grid.x, psi.amps.real, psi.amps.imag),
        )
        return [str(csv_path)]
    return []


HANDLERS = {
    "evolve": cmd_evolve,
    "trajectory": cmd_trajectory,
    "born": cmd_born,
    "decohere": cmd_decohere,
    "visibility": cmd_visibility,
    "heating": cmd_heating,
    "exclusion": cmd_exclusion,
    "rates": cmd_rates,
    "snapshot": cmd_snapshot,
}


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grwlab",
        description="Stochastic quantum-trajectory simulator of spontaneous "
                    "wavefunction localization.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name in KEYS:
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="PATH", default=None)
        p.add_argument("--seed", type=int, default=0, metavar="U64")
        p.add_argument("--out", metavar="DIR", default=".")
        p.add_argument("--threads", default=None, metavar="N|auto")
        if name == "snapshot":
            p.add_argument("input_pos", nargs="?", default=None, metavar="FILE")
        for key in KEYS[name]:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 1
    if getattr(args, "input_pos", None) is not None and args.input is None:
        args.input = args.input_pos

    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    try:
        settings = load_settings(args.subcommand, args)
        threads = resolve_threads(args.threads)
        seed = int(args.seed)
        if seed < 0 or seed >= 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        outputs = HANDLERS[args.subcommand](settings, seed, threads, outdir)
    except (ConfigError, BoundsParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GrwError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if outputs:
        manifest = {
            "subcommand": args.subcommand,
            "config": dict(sorted(settings.values.items())),
            "master_seed": seed,
            "threads": threads,
            "versions": {
                "grwlab": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
            },
            "outputs": outputs,
            "timing": {
                "started_utc": started,
                "wall_time_s": time.perf_counter() - t0,
            },
        }
        write_json(outdir / "manifest.json", manifest)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
