"""Ensemble execution: ordering, and failures that name their trajectory."""

import os

import numpy as np
import pytest

from grwlab.cli import run
from grwlab.collapse import CollapseParams
from grwlab.ensemble import map_trajectories
from grwlab.errors import DecisionTimeoutError, GrwError, ZeroSupportError
from grwlab.experiments import MeasurementConfig, born_ensemble
from grwlab.units import convert_rate_to_si


def _index(job, master_seed, index):
    return (job, master_seed, index)


def _fails_at_two(job, master_seed, index):
    if index == 2:
        raise ZeroSupportError("hit on nothing")
    return index


def _dies(job, master_seed, index):
    os._exit(3)


@pytest.mark.parametrize("threads", [1, 2])
def test_results_come_in_index_order(threads):
    assert map_trajectories(_index, "job", 5, 9, threads) == [
        ("job", 9, i) for i in range(5)
    ]


@pytest.mark.parametrize("threads", [1, 2])
def test_worker_error_names_trajectory_seed_and_stream(threads):
    with pytest.raises(ZeroSupportError) as info:
        map_trajectories(_fails_at_two, None, 4, 11, threads, stream=3)
    message = str(info.value)
    assert "trajectory 2" in message and "seed 11" in message
    assert "stream 3" in message and "hit on nothing" in message


def _born_timeout(threads):
    cfg = MeasurementConfig(c_up=np.sqrt(0.5), c_down=np.sqrt(0.5),
                            hits_budget=0.1)
    params = CollapseParams(convert_rate_to_si(1.0), 1.0,
                            n_nucleons=cfg.pointer_n_nucleons)
    return born_ensemble(cfg, params, 3, master_seed=5, threads=threads)


@pytest.mark.parametrize("threads", [1, 2])
def test_born_timeout_names_its_trial(threads):
    with pytest.raises(DecisionTimeoutError) as info:
        _born_timeout(threads)
    message = str(info.value)
    assert "trajectory 0 of seed 5" in message and "stream" not in message
    assert "no outcome after 0.1 expected hits" in message


def test_cli_reports_the_failing_trial(tmp_path, capsys):
    code = run(["born", "--hits-budget", "0.1", "--lambda-internal", "1",
                "--rc-internal", "1", "--n-traj", "2", "--seed", "4",
                "--threads", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "trajectory 0 of seed 4" in capsys.readouterr().err


def test_dead_worker_is_a_grw_error():
    with pytest.raises(GrwError, match="worker process"):
        map_trajectories(_dies, None, 2, 0, threads=2)
