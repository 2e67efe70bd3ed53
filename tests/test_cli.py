import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grwlab.cli import _columns, config_keys, inputs, run, write_csv
from grwlab.collapse import CollapseParams
from grwlab.units import convert_rate_to_si


def _read_manifest(outdir):
    with open(outdir / "manifest.json") as fh:
        return json.load(fh)


@pytest.fixture
def no_trajectory(monkeypatch):
    """A config error comes before any trajectory: starting one fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a trajectory started before the config was refused")

    monkeypatch.setattr("grwlab.experiments.map_trajectories", refuse)
    monkeypatch.setattr("grwlab.cli.grw_trajectory", refuse)


def test_rates_deuteron(capsys):
    assert run(["rates", "--n", "2", "--lambda-si", "1e-16"]) == 0
    assert capsys.readouterr().out.strip() == "2e-16"


def test_rates_table(capsys):
    assert run(["rates"]) == 0
    out = capsys.readouterr().out
    assert "1e+23" in out and "1e-07" in out


def test_unknown_subcommand_fails(capsys):
    assert run(["frobnicate"]) == 1


def test_missing_subcommand_fails():
    assert run([]) == 1


def test_evolve_trajectory_lambda_zero_identical(tmp_path):
    common = [
        "--grid-n", "256", "--grid-extent", "64", "--t-total-internal", "1",
        "--dt-internal", "0.005", "--sigma0", "2",
    ]
    assert run(["evolve", "--out", str(tmp_path / "a")] + common) == 0
    assert run(
        ["trajectory", "--out", str(tmp_path / "b"), "--lambda-si", "0"] + common
    ) == 0
    a = (tmp_path / "a" / "final_state.qsl1").read_bytes()
    b = (tmp_path / "b" / "final_state.qsl1").read_bytes()
    assert a == b


def test_manifest_lists_every_output(tmp_path):
    out = tmp_path / "run"
    assert run([
        "evolve", "--out", str(out), "--grid-n", "256", "--grid-extent", "64",
        "--t-total-internal", "0.5", "--dt-internal", "0.005",
    ]) == 0
    manifest = _read_manifest(out)
    produced = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert set(manifest["outputs"]) == produced
    assert manifest["subcommand"] == "evolve"
    assert "grwlab" in manifest["versions"]
    assert "started_utc" in manifest["timing"]


def test_reproducible_modulo_timing(tmp_path):
    args = [
        "trajectory", "--lambda-internal", "2", "--rc-internal", "1",
        "--mass", "200", "--grid-n", "256", "--grid-extent", "64",
        "--t-total-internal", "1", "--dt-internal", "0.005", "--seed", "9",
    ]
    for name in ("r1", "r2"):
        assert run(args + ["--out", str(tmp_path / name)]) == 0
    for fname in ("final_state.qsl1", "samples.csv", "events.csv", "record.json"):
        a = (tmp_path / "r1" / fname).read_bytes()
        b = (tmp_path / "r2" / fname).read_bytes()
        assert a == b, fname
    m1, m2 = _read_manifest(tmp_path / "r1"), _read_manifest(tmp_path / "r2")
    m1.pop("timing"), m2.pop("timing")
    assert m1 == m2


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\nt_total_internal = 0.5\ngrid_n = 256\n")
    out = tmp_path / "out"
    assert run([
        "evolve", "--config", str(cfg), "--out", str(out),
        "--grid-extent", "64", "--dt-internal", "0.005",
    ]) == 0
    manifest = _read_manifest(out)
    assert manifest["config"]["t_total_internal"] == "0.5"
    assert manifest["config"]["grid_extent"] == "64"


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\nwarp_factor = 9\n")
    assert run(["evolve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1


def test_mixed_units_rejected(tmp_path):
    code = run([
        "trajectory", "--out", str(tmp_path / "x"),
        "--lambda-si", "1e-16", "--lambda-internal", "1",
    ])
    assert code == 1


@pytest.mark.parametrize("argv, key", [
    # the sigma0 = 2 packet cannot fit the 16-wide box anywhere
    # (12 sigma = 24 > extent = 16)
    (["evolve", "--grid-n", "2048", "--grid-extent", "16", "--dt-internal", "0.05"],
     "sigma0"),
    (["heating", "--lambda-internal", "4", "--sigma0", "40", "--n-traj", "2"], "sigma0"),
    # x0 + 6 sigma = 42 > x_max = 32
    (["evolve", "--x0", "30"], "x0"),
    # pairs at +-d/2 fit only if d + 12 sigma <= extent: 44 + 12 > 48, 16 + 12 > 20
    (["born", "--pointer-separation", "44", "--lambda-internal", "1", "--n-traj", "2"],
     "pointer_separation"),
    (["born", "--grid-extent", "20", "--lambda-internal", "1", "--n-traj", "2"],
     "pointer_separation"),
    (["decohere", "--separations-over-rc", "40", "--lambda-internal", "2",
      "--n-traj", "2"], "separations_over_rc"),
    (["decohere", "--separations-over-rc", "inf", "--n-traj", "2"], "separations_over_rc"),
    (["decohere", "--packet-sigma-over-rc", "3", "--lambda-internal", "2",
      "--n-traj", "2"], "packet_sigma_over_rc"),
    (["visibility", "--d-internal", "1e9", "--n-traj", "2"], "d_internal"),
    (["visibility", "--d-internal", "nan", "--n-traj", "2"], "d_internal"),
], ids=["evolve-sigma0", "heating-sigma0", "evolve-x0", "born-separation",
        "born-extent", "decohere-separation", "decohere-inf", "decohere-sigma",
        "visibility-far", "visibility-nan"])
@pytest.mark.usefixtures("no_trajectory")
def test_a_packet_that_cannot_fit_its_box_is_exit_one(tmp_path, capsys, argv, key):
    # the config alone decides it, so it fails before any trajectory runs
    assert run(argv + ["--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must ")


@pytest.mark.parametrize("argv, key", [
    (["--omega", "0"], "omega"),
    # |dt| max|V| = 0.3 * 0.5 * 32^2 > 0.5 at the box edge
    (["--dt-internal", "0.3"], "dt_internal"),
], ids=["omega", "dt"])
@pytest.mark.usefixtures("no_trajectory")
def test_a_harmonic_run_its_config_rules_out_is_exit_one(tmp_path, capsys, argv, key):
    for cmd in ("evolve", "trajectory"):
        assert run([cmd, "--potential", "harmonic", *argv, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must ")


WRAPS = "the state wraps the periodic box"


@pytest.mark.parametrize("argv, error", [
    # the sigma0 = 2 packet spreads to sigma = t / 4 = 100 by t = 400 and
    # fills its 64-wide box
    (["evolve", "--t-total-internal", "400"], WRAPS),
    # at the default lambda the pointer's first hit is ~6e14 time units
    # away, where its packet has spread to sigma ~ 3e6 in a 48-wide box
    (["born", "--n-traj", "2"], f"trajectory 0 of seed 0: {WRAPS}"),
], ids=["evolve", "born"])
def test_a_free_run_that_wraps_its_box_is_exit_two(tmp_path, capsys, argv, error):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {error}")


@pytest.mark.usefixtures("no_trajectory")
def test_heating_with_too_few_expected_hits_is_exit_one(tmp_path, capsys):
    # at the default lambda a run expects far fewer than 5 hits: the config
    # alone rules it out, before any trajectory runs
    assert run(["heating", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: expected hits")


@pytest.mark.parametrize("argv", [
    ["visibility", "--n-traj", "4"],
    # arms at the edges of the 128-wide box: d + 12 sigma0 = extent
    ["visibility", "--n-traj", "4", "--d-internal", "116"],
], ids=["default", "edge"])
def test_visibility_at_the_default_lambda_runs(tmp_path, argv):
    assert run(argv + ["--out", str(tmp_path)]) == 0


def test_exclusion_summary_span(tmp_path):
    out = tmp_path / "excl"
    assert run(["exclusion", "--out", str(out)]) == 0
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["closed"] is True
    assert summary["span_lambda_decades"] == pytest.approx(8.0, abs=0.2)
    names = {c["name"] for c in summary["curves"]}
    assert {"theory_lower", "current_upper", "interference_upper"} <= names
    header = (out / "raster.csv").read_text().splitlines()[0]
    assert header == "log10_rc,log10_lambda,allowed"


def test_snapshot_inspect_and_csv(tmp_path, capsys):
    src = tmp_path / "src"
    assert run([
        "evolve", "--out", str(src), "--grid-n", "256", "--grid-extent", "64",
        "--t-total-internal", "0.5", "--dt-internal", "0.005",
    ]) == 0
    out = tmp_path / "dump"
    code = run([
        "snapshot", str(src / "final_state.qsl1"), "--out", str(out),
        "--csv", "state.csv",
    ])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert info["n_points"] == 256
    lines = (out / "state.csv").read_text().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 257


def test_csv_floats_have_17_significant_digits(tmp_path):
    out = tmp_path / "run"
    assert run([
        "evolve", "--out", str(out), "--grid-n", "256", "--grid-extent", "64",
        "--t-total-internal", "0.5", "--dt-internal", "0.005",
    ]) == 0
    raw = (out / "samples.csv").read_bytes()
    assert b"\r" not in raw  # LF endings only
    a_var = raw.decode().splitlines()[1].split(",")[3]
    assert len(a_var.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_csv_cells_are_pinned(tmp_path):
    path = tmp_path / "cells.csv"
    rows = [
        (True, 3, "up", 0.1, np.float64(2 / 3), np.bool_(False)),
        (False, -7, "x y", 1e-300, np.float64(-1.5e20), np.bool_(True)),
    ]
    columns = _columns(np.array([0.1, 1 / 3]), np.array([2.0, -0.0]),
                       np.array([1, 2]), np.array([1e22, 5e-324]),
                       np.array([True, False]), ["a", "b"])
    write_csv(path, ["b", "i", "s", "f", "f64", "b_"], rows + list(columns))
    assert path.read_bytes() == (
        b"b,i,s,f,f64,b_\n"
        b"1,3,up,0.10000000000000001,0.66666666666666663,0\n"
        b"0,-7,x y,1e-300,-1.5e+20,1\n"
        b"0.10000000000000001,2,1,1e+22,1,a\n"
        b"0.33333333333333331,-0,2,4.9406564584124654e-324,0,b\n"
    )


def test_csv_bytes_of_every_cell_type(tmp_path):
    # the bytes of each cell type and of the float edge cases, as the writer
    # that formatted one cell per call wrote them
    path = tmp_path / "cells.csv"
    rows = [
        (0.1, np.float64(2 / 3), 42, True, np.bool_(False), "up"),
        (-0.0, 0.0, -7, False, np.bool_(True), "x y"),
        (math.inf, -math.inf, math.nan, 5e-324, 1e17, np.float64(-5e-324)),
        (np.float64(math.nan), np.float64(-0.0), np.float64(math.inf), 1e16, -1e17,
         123456789.0),
        ("s", True, 3, np.float32(0.1), np.int64(-2), 1.7976931348623157e308),
    ]
    write_csv(path, ["a", "b", "c", "d", "e", "f"], rows)
    assert path.read_bytes() == (
        b"a,b,c,d,e,f\n"
        b"0.10000000000000001,0.66666666666666663,42,1,0,up\n"
        b"-0,0,-7,0,1,x y\n"
        b"inf,-inf,nan,4.9406564584124654e-324,1e+17,-4.9406564584124654e-324\n"
        b"nan,-0,inf,10000000000000000,-1e+17,123456789\n"
        b"s,1,3,0.10000000149011612,-2,1.7976931348623157e+308\n"
    )


def test_threads_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("GRWLAB_THREADS", "3")
    out = tmp_path / "run"
    assert run([
        "evolve", "--out", str(out), "--grid-n", "256", "--grid-extent", "64",
        "--t-total-internal", "0.5", "--dt-internal", "0.005",
    ]) == 0
    assert _read_manifest(out)["threads"] == 3


_EVOLVE = ["evolve", "--grid-n", "256", "--grid-extent", "64",
           "--t-total-internal", "0.5", "--dt-internal", "0.005"]


@pytest.mark.parametrize("threads", ["x", "1.5", "0", "-2"])
def test_bad_thread_flag_is_exit_one(tmp_path, capsys, threads):
    code = run(_EVOLVE + ["--threads", threads, "--out", str(tmp_path / "x")])
    assert code == 1
    assert "threads" in capsys.readouterr().err


@pytest.mark.parametrize("env", ["0", "-3", "x", "1.5"])
def test_bad_thread_environment_is_exit_one(tmp_path, capsys, monkeypatch, env):
    monkeypatch.setenv("GRWLAB_THREADS", env)
    assert run(_EVOLVE + ["--out", str(tmp_path / "x")]) == 1
    assert "GRWLAB_THREADS" in capsys.readouterr().err


def test_cli_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, grwlab.cli; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    import grwlab

    for name in grwlab.__all__:
        assert hasattr(grwlab, name), name


def _born_report(seed):
    from grwlab.experiments import MeasurementConfig, born_ensemble

    cfg = MeasurementConfig(c_up=np.sqrt(0.3), c_down=np.sqrt(0.7))
    params = CollapseParams(convert_rate_to_si(1.0), 1.0, cfg.pointer_n_nucleons)
    return born_ensemble(cfg, params, 20, seed)


def _heating_report(seed):
    from grwlab.experiments import HeatingConfig, heating_experiment

    return heating_experiment(CollapseParams(convert_rate_to_si(4.0), 1.0), 5.0, 20,
                              HeatingConfig(), seed)


@pytest.mark.parametrize("argv, experiment", [
    (["born", "--c-up2", "0.3", "--lambda-internal", "1", "--n-traj", "20"],
     _born_report),
    (["heating", "--lambda-internal", "4", "--n-traj", "20"], _heating_report),
])
def test_report_json_is_the_dumped_report(tmp_path, argv, experiment):
    assert run(argv + ["--seed", "3", "--threads", "1", "--out", str(tmp_path)]) == 0
    expected = json.dumps(experiment(3), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "report.json").read_text() == expected


@pytest.mark.parametrize("argv", [
    ["decohere", "--n-samples", "0"],
    ["decohere", "--n-efoldings", "0"],
    ["decohere", "--hit-resolution", "0"],
    ["born", "--decision-epsilon", "0"],
    ["born", "--hits-budget", "0"],
    ["visibility", "--grid-extent", "-1", "--lambda-internal", "1", "--rc-internal", "4"],
    ["visibility", "--n-batches", "0", "--lambda-internal", "1", "--rc-internal", "4"],
    ["heating", "--sigma0", "-1", "--lambda-internal", "4"],
    ["heating", "--mass", "-1", "--lambda-internal", "4"],
])
@pytest.mark.usefixtures("no_trajectory")
def test_nonpositive_config_values_are_exit_one(tmp_path, capsys, argv):
    assert run(argv + ["--n-traj", "2", "--out", str(tmp_path / "x")]) == 1
    key = argv[1].removeprefix("--").replace("-", "_")
    assert capsys.readouterr().err.startswith(f"error: {key} must be ")


# (subcommand, key, value): grid, packet and collapse inputs that no run can use
BAD_GRID_AND_PACKET = (
    [(cmd, key, value) for cmd in ("born", "heating", "decohere")
     for key, value in [("grid_n", "0"), ("grid_n", "1000"), ("grid_extent", "0")]]
    + [("born", "pointer_sigma", "0"), ("born", "pointer_n_nucleons", "0.5"),
       ("heating", "mass", "0"), ("heating", "sigma0", "0"),
       ("decohere", "mass", "0"), ("decohere", "packet_sigma_over_rc", "0")]
    + [("visibility", key, value) for key, value in
       [("grid_n", "0"), ("grid_n", "1000"), ("sigma0", "0"), ("mass", "0")]]
    + [(cmd, key, value) for cmd in ("evolve", "trajectory") for key, value in
       [("grid_n", "0"), ("grid_n", "1000"), ("grid_extent", "0"), ("sigma0", "0"),
        ("mass", "0"), ("mass", "-1")]]
    # an r_c the grid cannot hold (2 dx <= r_c <= extent / 8) follows from the
    # config alone, so it is refused before any trajectory runs, even at the
    # default lambda, where a run may end without a hit
    + [("heating", "rc_internal", "0.1"), ("heating", "rc_internal", "20"),
       ("visibility", "rc_internal", "0.01"), ("trajectory", "rc_internal", "0.01"),
       ("born", "rc_internal", "0.01"), ("decohere", "rc_internal", "0.01")]
    + [("decohere", "separations_over_rc", "-1"),
       ("heating", "lambda_si", "-1"), ("heating", "lambda_internal", "-1"),
       ("heating", "rc_internal", "-1"), ("heating", "rc_m", "-1"),
       ("heating", "n_nucleons", "0"), ("born", "lambda_internal", "-1"),
       ("rates", "n", "-1"), ("rates", "lambda_si", "-1"),
       ("exclusion", "n_lambda", "0"), ("exclusion", "n_rc", "-1")]
    # runs that read their result from hits, at a zero rate; a time or a
    # momentum no run can reach; arms closer than 12 sigma0
    + [("born", "lambda_si", "0"), ("decohere", "lambda_si", "0"),
       ("evolve", "t_total_internal", "inf"), ("heating", "t_total_internal", "inf"),
       ("evolve", "p0", "nan"), ("visibility", "d_internal", "10")]
)


@pytest.mark.parametrize("cmd, key, value", BAD_GRID_AND_PACKET,
                         ids=[f"{c}-{k}-{v}" for c, k, v in BAD_GRID_AND_PACKET])
@pytest.mark.usefixtures("no_trajectory")
def test_bad_grid_and_packet_inputs_are_exit_one(tmp_path, capsys, cmd, key, value):
    # refused as a config error naming the key, not blamed on a trajectory;
    # a quantity given in one of its units is named without the unit
    argv = [cmd, f"--{key.replace('_', '-')}", value, "--out", str(tmp_path)]
    if "n_traj" in config_keys(cmd):
        argv += ["--n-traj", "2"]
    assert run(argv) == 1
    name = key if key in inputs(cmd) else key.rsplit("_", 1)[0]
    assert capsys.readouterr().err.startswith(f"error: {name} must be ")


@pytest.mark.parametrize("argv", [
    ["born"],
    ["decohere"],
    ["visibility"],
    ["heating", "--lambda-internal", "4"],
])
def test_empty_ensembles_are_exit_one(tmp_path, argv):
    assert run(argv + ["--n-traj", "0", "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("sep", [",", ""])
@pytest.mark.usefixtures("no_trajectory")
def test_empty_separation_list_is_exit_one(tmp_path, sep):
    assert run([
        "decohere", "--separations-over-rc", sep, "--n-traj", "2",
        "--out", str(tmp_path / "x"),
    ]) == 1


@pytest.mark.usefixtures("no_trajectory")
def test_one_trajectory_at_a_separation_that_does_not_decay_is_exit_one(tmp_path, capsys):
    # Gamma(0) = 0: the flat-coherence estimate's error bar is the spread of
    # the trajectories, which one trajectory does not have (it wrote NaN)
    assert run(["decohere", "--separations-over-rc", "0", "--n-traj", "1",
                "--lambda-internal", "2", "--rc-internal", "1",
                "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith("error: n_traj must be >= 2")


@pytest.mark.parametrize("argv", [
    ["evolve", "--dt-internal", "0"],
    ["trajectory", "--dt-internal", "-0.005"],
    ["evolve", "--t-total-internal", "0"],
    ["trajectory", "--t-total-s", "-1"],
    ["trajectory", "--sample-every", "0"],
    ["heating", "--t-total-internal", "0", "--lambda-internal", "4"],
    ["visibility", "--t-flight-s", "-1", "--lambda-internal", "1", "--rc-internal", "4"],
])
@pytest.mark.usefixtures("no_trajectory")
def test_nonpositive_time_inputs_are_exit_one(tmp_path, argv):
    assert run(argv + ["--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("argv", [
    ["exclusion", "--log-rc-min", "nan"],
    ["exclusion", "--log-rc-min", "3", "--log-rc-max", "1"],
    ["exclusion", "--log-lambda-max", "inf"],
])
def test_bad_exclusion_ranges_are_exit_one(tmp_path, argv):
    assert run(argv + ["--out", str(tmp_path / "x")]) == 1
    assert not (tmp_path / "x" / "raster.csv").exists()


@pytest.mark.parametrize("argv", [
    ["rates", "--n", "abc"],
    ["heating", "--n-traj", "2.7", "--lambda-internal", "4"],
    ["evolve", "--grid-n", "256.5"],
    ["trajectory", "--mass-scaling", "maybe"],
])
@pytest.mark.usefixtures("no_trajectory")
def test_bad_numeric_input_is_exit_one(tmp_path, argv):
    assert run(argv + ["--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("value", ["0", "-1", "2.5"])
@pytest.mark.usefixtures("no_trajectory")
def test_bad_fringe_count_is_exit_one(tmp_path, value):
    assert run(["visibility", "--n-fringes", value, "--lambda-internal", "1",
                "--rc-internal", "4", "--n-traj", "2", "--out", str(tmp_path / "x")]) == 1


def test_fringe_count_from_a_config_file_may_read_5_0(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[visibility]\nn_fringes = 5.0\n")
    argv = ["visibility", "--lambda-internal", "1", "--rc-internal", "4", "--n-traj", "2"]
    assert run(argv + ["--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert run(argv + ["--out", str(tmp_path / "b")]) == 0
    for name in ("report.json", "screen.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_integer_keys_accept_exponent_form(tmp_path):
    assert run(["exclusion", "--out", str(tmp_path / "a")]) == 0
    assert run(["exclusion", "--n-lambda", "1.41e2", "--n-rc", "41.0",
                "--out", str(tmp_path / "b")]) == 0
    for name in ("raster.csv", "boundary.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# The flag set of every subcommand, pinned: the parser is generated from the
# config dataclasses, and perfbench/workloads.py passes some of these flags.
CLI_SURFACE = {
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
    ],
    "decohere": [
        "separations_over_rc", "lambda_si", "lambda_internal", "rc_internal",
        "rc_m", "n_nucleons", "n_traj", "packet_sigma_over_rc", "mass",
        "grid_n", "grid_extent", "hit_resolution", "n_efoldings", "n_samples",
    ],
    "visibility": [
        "d_internal", "lambda_si", "lambda_internal", "rc_internal", "rc_m",
        "n_nucleons", "t_flight_internal", "t_flight_s", "n_traj", "sigma0",
        "mass", "grid_n", "grid_extent", "n_batches", "n_fringes",
    ],
    "heating": [
        "lambda_si", "lambda_internal", "rc_internal", "rc_m", "n_nucleons",
        "t_total_internal", "t_total_s", "n_traj", "sigma0", "mass", "grid_n",
        "grid_extent",
    ],
    "exclusion": [
        "bounds", "log_lambda_min", "log_lambda_max", "log_rc_min",
        "log_rc_max", "n_lambda", "n_rc",
    ],
    "rates": ["n", "lambda_si", "table"],
    "snapshot": ["input", "csv"],
}


def test_cli_surface_is_pinned():
    from grwlab.cli import build_parser

    common = {"--help", "-h", "--config", "--seed", "--out", "--threads"}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(CLI_SURFACE)
    for name, keys in CLI_SURFACE.items():
        flags = {s for a in sub.choices[name]._actions for s in a.option_strings}
        assert flags - common == {"--" + k.replace("_", "-") for k in keys}, name

