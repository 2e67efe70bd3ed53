"""Command-line surface: subcommands, config files, run manifests, file I/O.

A subcommand's keys are the fields of its config dataclass plus the extras
listed with it in INPUTS (the collapse constants, the wave packet, the
ensemble size, ...); flags, config-file validation and the handlers all
read that one table, so each default is stated once.  Config files are
INI-style with one section per subcommand; CLI flags mirror the config keys
and override file values.  Every physical input carries its unit in the key
suffix (`_si`, `_m`, `_s`, `_internal`); giving the same quantity in two
units is rejected.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .collapse import CollapseParams, grw_trajectory
from .ensemble import resolve_threads
from .errors import BoundsParseError, ConfigError, GrwError, as_config_error
from .exclusion import (
    DEFAULT_LAMBDA_RANGE,
    DEFAULT_RC_RANGE,
    DEFAULT_RESOLUTION,
    allowed_region,
    default_bounds_path,
    load_bounds,
)
from .experiments import (
    DecoherenceConfig,
    HeatingConfig,
    MeasurementConfig,
    VisibilityConfig,
    born_ensemble,
    decoherence_scan,
    heating_experiment,
    require_positive,
    visibility_experiment,
)
from .propagator import Potential, Stepper
from .qstate import Grid1D, gaussian_packet, observables
from .rates import amplified_rate
from .rngstream import trajectory_rng
from .snapshot import read_snapshot, write_snapshot
from .units import DEFAULT_UNITS

OBS_COLUMNS = ("norm2", "mean_x", "var_x", "mean_p", "var_p", "mean_p2", "energy")


# ---------------------------------------------------------------------------
# CSV / JSON output helpers
# ---------------------------------------------------------------------------

def _cell_format(v) -> str:
    """A cell's %-format: floats with 17 significant digits, bools as 1/0."""
    if isinstance(v, (bool, np.bool_)):
        return "%d"
    if isinstance(v, (float, np.floating)):
        return "%.17g"
    return "%s"


def _columns(*arrays) -> zip:
    """Rows of numpy columns as Python scalars, each column converted once."""
    return zip(*(np.asarray(a).tolist() for a in arrays))


def write_csv(path: Path, header: list[str], rows) -> None:
    """One line per row, formatted by one % of the line format that its
    cells' types give; each distinct row of types builds its format once."""
    formats = {}
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            line = formats.get(kinds)
            if line is None:
                line = formats[kinds] = ",".join(map(_cell_format, row)) + "\n"
            fh.write(line % row)


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_report(outdir: Path, csv_name: str, report) -> list[str]:
    """An experiment's Report: its table as csv_name, its fields as report.json."""
    header, columns = report.table
    write_csv(outdir / csv_name, header, _columns(*columns))
    write_json(outdir / "report.json", report)
    return [csv_name, "report.json"]


# ---------------------------------------------------------------------------
# Inputs: one table per subcommand
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Unit:
    """A quantity given as exactly one of its `<key>_<suffix>` keys; each
    suffix's converter maps the value to the unit of `default`."""

    default: float
    converters: dict[str, Callable[[float], float]]


def _same(value: float) -> float:
    return value


RATE_SI = {"si": _same, "internal": DEFAULT_UNITS.rate_to_si}
LENGTH_INTERNAL = {"m": DEFAULT_UNITS.length_to_internal, "internal": _same}
TIME_INTERNAL = {"s": DEFAULT_UNITS.time_to_internal, "internal": _same}

# the two GRW constants: lambda in s^-1, r_c in internal lengths
GRW = {"lambda": Unit(1e-16, RATE_SI), "rc": Unit(1.0, LENGTH_INTERNAL)}
COLLAPSE = {**GRW, "n_nucleons": CollapseParams.n_nucleons}
PACKET = {
    "grid_n": 512, "grid_extent": 64.0, "x0": 0.0, "p0": 0.0, "sigma0": 2.0,
    "mass": 1.0, "potential": "free", "omega": 1.0,
    "t_total": Unit(4.0, TIME_INTERNAL), "dt_internal": 0.005, "sample_every": 10,
}

# Sources of each subcommand's keys: a config dataclass, whose fields with a
# default are keys parsed by that default's type, or a dict of key -> default.
# A Unit default expands to one key per unit; a type in place of a default
# marks an optional key, None when absent.
INPUTS: dict[str, list] = {
    "evolve": [PACKET],
    "trajectory": [PACKET, COLLAPSE, {"mass_scaling": CollapseParams.mass_scaling}],
    "born": [{"c_up2": 0.5, "n_traj": 1000}, GRW, MeasurementConfig],
    "decohere": [
        {"separations_over_rc": (0.5, 2.0, 10.0)}, COLLAPSE, {"n_traj": 300},
        DecoherenceConfig,
    ],
    "visibility": [
        {"d_internal": 64.0}, COLLAPSE,
        {"t_flight": Unit(1.0, TIME_INTERNAL), "n_traj": 400}, VisibilityConfig,
    ],
    "heating": [
        COLLAPSE, {"t_total": Unit(5.0, TIME_INTERNAL), "n_traj": 1000}, HeatingConfig,
    ],
    "exclusion": [{
        "bounds": "default",
        "log_lambda_min": DEFAULT_LAMBDA_RANGE[0],
        "log_lambda_max": DEFAULT_LAMBDA_RANGE[1],
        "log_rc_min": DEFAULT_RC_RANGE[0],
        "log_rc_max": DEFAULT_RC_RANGE[1],
        "n_lambda": DEFAULT_RESOLUTION[0],
        "n_rc": DEFAULT_RESOLUTION[1],
    }],
    "rates": [{"n": float, "lambda_si": GRW["lambda"].default, "table": False}],
    "snapshot": [{"input": str, "csv": str}],
}


def _defaults(cls) -> dict:
    """The inputs of a config dataclass: its fields that have a default."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def inputs(subcommand: str) -> dict:
    """key -> default (a value, a Unit, or the type of an optional key)."""
    table = {}
    for source in INPUTS[subcommand]:
        table.update(source if isinstance(source, dict) else _defaults(source))
    return table


def config_keys(subcommand: str) -> list[str]:
    """The keys a config file or the flags may give; a Unit gives one per unit."""
    keys = []
    for key, default in inputs(subcommand).items():
        if isinstance(default, Unit):
            keys += [f"{key}_{suffix}" for suffix in default.converters]
        else:
            keys.append(key)
    return keys


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _integer(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        value = float(raw)  # 1e4-style integers
        if not value.is_integer():
            raise
        return int(value)


def _boolean(raw: str) -> bool:
    low = raw.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(raw)


def _numbers(raw: str) -> tuple[float, ...]:
    values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    if not values:
        raise ValueError(raw)
    return values


PARSERS = {
    float: (float, "a number"),
    int: (_integer, "an integer"),
    bool: (_boolean, "a boolean (1/0, true/false, yes/no, on/off)"),
    tuple: (_numbers, "a non-empty comma-separated list of numbers"),
    str: (str, "a string"),
}


def _parse(key: str, kind: type, raw: str):
    parse, what = PARSERS[kind]
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} must be {what}, got {raw!r}") from exc


def load_settings(subcommand: str, args: argparse.Namespace) -> dict[str, str]:
    """Raw config strings: the file's section, overridden by CLI flags."""
    keys = config_keys(subcommand)
    merged: dict[str, str] = {}
    if args.config is not None:
        parser = configparser.ConfigParser()
        read = parser.read(args.config)
        if not read:
            raise ConfigError(f"config file not found: {args.config}")
        if parser.has_section(subcommand):
            for key, value in parser.items(subcommand):
                if key not in keys:
                    raise ConfigError(
                        f"unknown key {key!r} in [{subcommand}] of {args.config}"
                    )
                merged[key] = value
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def resolve(subcommand: str, raw: dict[str, str]) -> dict:
    """Every input of a subcommand as a typed value, a Unit in its default's
    unit; an absent key takes its default, an absent optional key None."""
    values = {}
    for key, default in inputs(subcommand).items():
        if isinstance(default, Unit):
            given = [s for s in default.converters if f"{key}_{s}" in raw]
            if len(given) > 1:
                keys = ", ".join(f"{key}_{s}" for s in given)
                raise ConfigError(f"mixed units for {key}: give only one of {keys}")
            values[key] = default.default
            for s in given:
                value = _parse(f"{key}_{s}", float, raw[f"{key}_{s}"])
                with as_config_error(rate=key):  # the rate conversions refuse a negative rate
                    values[key] = default.converters[s](value)
        elif key in raw:
            kind = default if isinstance(default, type) else type(default)
            values[key] = _parse(key, kind, raw[key])
        else:
            values[key] = None if isinstance(default, type) else default
    return values


def _config(cls, v: dict, **given):
    """A config dataclass from the resolved values of its inputs."""
    return cls(**{name: v[name] for name in _defaults(cls)}, **given)


def _collapse_params(v: dict, **given) -> CollapseParams:
    """CollapseParams from the resolved inputs v, fields in given taking the
    place of v's.  A constant out of its domain is a ConfigError that names
    its key."""
    c = {k: v[k] for k in ("lambda", "rc", "n_nucleons", "mass_scaling") if k in v} | given
    with as_config_error(lambda_si="lambda", r_c="rc"):
        return CollapseParams(c.pop("lambda"), c.pop("rc"), **c)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns a list of files written into outdir
# ---------------------------------------------------------------------------

def _packet_and_potential(v: dict, params: CollapseParams):
    """The start packet and the potential, built as the trajectory will
    use them, so that every rule the config alone decides refuses it here."""
    kind = v["potential"]
    if kind not in ("free", "harmonic"):
        raise ConfigError(f"unknown potential {kind!r} (free|harmonic)")
    with as_config_error(n_points="grid_n", extent="grid_extent", sigma="sigma0",
                         r_c="rc", dt="dt_internal"):
        grid = Grid1D.centered(v["grid_n"], v["grid_extent"])
        psi0 = gaussian_packet(grid, v["x0"], v["p0"], v["sigma0"], v["mass"])
        params.hit_rate(grid, v["mass"])
        if kind == "free":
            return psi0, Potential.free()
        pot = Potential.harmonic(v["omega"])
        Stepper(grid, pot, v["dt_internal"], v["mass"])  # the step guards
        return psi0, pot


def _run_single(v: dict, params: CollapseParams, seed: int, outdir: Path,
                write_record: bool) -> list[str]:
    # grw_trajectory checks these too, but inside the trajectory
    require_positive(t_total=v["t_total"], dt_internal=v["dt_internal"],
                     sample_every=v["sample_every"])
    psi0, pot = _packet_and_potential(v, params)
    rec = grw_trajectory(
        psi0, pot, params, v["t_total"], v["dt_internal"], v["sample_every"],
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


def cmd_evolve(v: dict, seed: int, threads: int, outdir: Path) -> list[str]:
    params = CollapseParams(0.0, GRW["rc"].default)  # no hits, so r_c is unused
    return _run_single(v, params, seed, outdir, write_record=False)


def cmd_trajectory(v: dict, seed: int, threads: int, outdir: Path) -> list[str]:
    return _run_single(v, _collapse_params(v), seed, outdir, write_record=True)


def cmd_born(v: dict, seed: int, threads: int, outdir: Path) -> list[str]:
    p_up = v["c_up2"]
    if not 0.0 <= p_up <= 1.0:
        raise ConfigError(f"c_up2 must be in [0, 1], got {p_up}")
    cfg = _config(MeasurementConfig, v, c_up=np.sqrt(p_up), c_down=np.sqrt(1.0 - p_up))
    params = _collapse_params(v, n_nucleons=cfg.pointer_n_nucleons)
    report = born_ensemble(cfg, params, v["n_traj"], seed, threads)
    return _write_report(outdir, "counts.csv", report)


def cmd_decohere(v: dict, seed: int, threads: int, outdir: Path) -> list[str]:
    params = _collapse_params(v)
    ratios = v["separations_over_rc"]
    cfg = _config(DecoherenceConfig, v)
    separations = [r * params.r_c for r in ratios]
    reports = decoherence_scan(separations, params, v["n_traj"], cfg, seed, threads)
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
    write_json(outdir / "reports.json", {"scan": reports})
    return ["scan.csv", "reports.json"]


def cmd_visibility(v: dict, seed: int, threads: int, outdir: Path) -> list[str]:
    report = visibility_experiment(
        v["d_internal"],
        _collapse_params(v),
        v["t_flight"],
        v["n_traj"],
        _config(VisibilityConfig, v),
        seed,
        threads,
    )
    return _write_report(outdir, "screen.csv", report)


def cmd_heating(v: dict, seed: int, threads: int, outdir: Path) -> list[str]:
    report = heating_experiment(
        _collapse_params(v),
        v["t_total"],
        v["n_traj"],
        _config(HeatingConfig, v),
        seed,
        threads,
    )
    return _write_report(outdir, "curves.csv", report)


def cmd_exclusion(v: dict, seed: int, threads: int, outdir: Path) -> list[str]:
    source = v["bounds"]
    path = default_bounds_path() if source == "default" else Path(source)
    bounds = load_bounds(path)
    raster = allowed_region(
        bounds,
        lambda_range_decades=(v["log_lambda_min"], v["log_lambda_max"]),
        rc_range_decades=(v["log_rc_min"], v["log_rc_max"]),
        resolution=(v["n_lambda"], v["n_rc"]),
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


def cmd_rates(v: dict, seed: int, threads: int, outdir: Path) -> list[str]:
    lam = v["lambda_si"]
    with as_config_error(n_nucleons="n"):
        rate = None if v["n"] is None else amplified_rate(v["n"], lam)
        rows = [(n, amplified_rate(n, lam)) for n in (1.0, 2.0, 1e8, 1e23)]
    if rate is not None and not v["table"]:
        print("%g" % rate)
        return []
    print(f"{'N':>12}  {'rate_si':>12}  {'mean_collapse_time_s':>20}")
    for n, r in rows:
        print(f"{n:>12g}  {r:>12g}  {1.0 / r if r > 0 else float('inf'):>20g}")
    return []


def cmd_snapshot(v: dict, seed: int, threads: int, outdir: Path) -> list[str]:
    source = v["input"]
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
    csv_path = v["csv"]
    if csv_path is not None:
        target = outdir / csv_path
        write_csv(
            target,
            ["x", "re", "im"],
            _columns(psi.grid.x, psi.amps.real, psi.amps.imag),
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
    for name in INPUTS:
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="PATH", default=None)
        p.add_argument("--seed", type=int, default=0, metavar="U64")
        p.add_argument("--out", metavar="DIR", default=".")
        p.add_argument("--threads", default=None, metavar="N|auto")
        if name == "snapshot":
            p.add_argument("input_pos", nargs="?", default=None, metavar="FILE")
        for key in config_keys(name):
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
        raw = load_settings(args.subcommand, args)
        values = resolve(args.subcommand, raw)
        threads = resolve_threads(args.threads)
        seed = int(args.seed)
        if seed < 0 or seed >= 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        outputs = HANDLERS[args.subcommand](values, seed, threads, outdir)
    except (ConfigError, BoundsParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GrwError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if outputs:
        manifest = {
            "subcommand": args.subcommand,
            "config": dict(sorted(raw.items())),
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
