"""Ensemble execution: fixed blocks summed in index order, one pool per
run, and failures that name their trajectory."""

import multiprocessing
import os
import pickle
import tracemalloc

import numpy as np
import pytest

from grwlab import ensemble, experiments
from grwlab.cli import run
from grwlab.collapse import CollapseParams
from grwlab.ensemble import block_ranges, map_trajectories, total
from grwlab.errors import (
    BoundsParseError,
    ConfigError,
    DecisionTimeoutError,
    GrwError,
    SnapshotFormatError,
    ZeroSupportError,
)
from grwlab.experiments import (
    DecoherenceConfig,
    MeasurementConfig,
    VisibilityConfig,
    born_ensemble,
    decoherence_scan,
    visibility_experiment,
)
from grwlab.rngstream import trajectory_rng
from grwlab.units import convert_rate_to_si


def _first_draws(indices, seed=0, stream=0):
    """The first draw of each of the generators trajectory_rng(seed, i, stream)."""
    return [trajectory_rng(seed, i, stream).random() for i in indices]


def _draws(job, rngs):
    # lists add by concatenation, so a run's sum lists every generator's
    # first draw in the order the block sums were added
    return [(job, rng.random()) for rng in rngs]


def _blocks(job, rngs):
    # one list per block, so a run's sum lists its blocks in order
    return [[rng.random() for rng in rngs]]


def _rounding(job, rngs):
    # sums of these depend on the order of the additions in the last bits
    return total([np.array([0.1 * 3.0 ** (40 * u), 1.0 / (7 + 100 * u)]) * job
                  for u in (rng.random() for rng in rngs)])


def _fails_on(job, rngs):
    # job is the first draw of the generator whose trajectory fails
    if job in [rng.random() for rng in rngs]:
        raise ZeroSupportError("hit on nothing")
    return len(rngs)


def _dies(job, rngs):
    os._exit(3)


def _spelled(job, indices, seed, stream=0):
    return [(job, u) for u in _first_draws(indices, seed, stream)]


def _run_blocks(indices, width):
    """The blocks map_trajectories makes of one run: ceil(n / width) of them."""
    return block_ranges(len(indices), -(-len(indices) // width), indices.start)


@pytest.mark.parametrize("threads", [1, 2])
def test_results_come_in_index_order(threads):
    # lists concatenate, so a run's sum lists every generator once, in index
    # order, whatever the blocks and the chunks a pool hands out; a None
    # stream draws from tag 0
    runs = [("job", None, range(3)), ("job", None, range(3, 5))]
    assert map_trajectories(_draws, runs, 9, threads, width=2) == [
        _spelled("job", range(3), 9), _spelled("job", range(3, 5), 9)]
    n = 101  # 26 blocks of 3 and 4 indices
    runs = [("a", 0, range(n)), ("b", 1, range(n))]
    assert map_trajectories(_draws, runs, 9, threads, width=4) == [
        _spelled("a", range(n), 9, 0), _spelled("b", range(n), 9, 1)
    ]


def test_block_ranges_depend_on_n_only():
    assert block_ranges(7, 3) == [range(0, 3), range(3, 5), range(5, 7)]
    assert block_ranges(2, 10) == [range(0, 1), range(1, 2)]
    assert block_ranges(5, 2, start=10) == [range(10, 13), range(13, 15)]
    assert [len(r) for r in block_ranges(96, 10)] == [10] * 6 + [9] * 4
    with pytest.raises(ConfigError, match="at least 1 trajectory, got 0"):
        block_ranges(0, 10)
    # a run falls into the fewest near-equal blocks no wider than width:
    # the benchmark's heating, born and decohere ensembles take full passes
    for n, width, blocks in [(384, 32, 12), (3000, 8, 375), (320, 16, 20)]:
        [layout] = map_trajectories(_blocks, [(None, None, range(n))], 0, width=width)
        assert layout == [_first_draws(r) for r in block_ranges(n, blocks)]
        assert {len(b) for b in layout} == {width}
    for n, lengths in [(100, [25] * 4), (5, [5])]:
        [layout] = map_trajectories(_blocks, [(None, None, range(n))], 0, width=32)
        assert [len(b) for b in layout] == lengths
    # visibility's 10 batches of 96, at 2 screens a block: 5 blocks each
    batches = block_ranges(96, 10)
    layout = map_trajectories(_blocks, [(None, None, b) for b in batches], 0, width=2)
    assert [sum(blocks, []) for blocks in layout] == [_first_draws(b) for b in batches]
    assert [len(r) for b in layout for r in b] == [2] * 30 + [2, 2, 2, 2, 1] * 4


def test_block_layout_is_the_same_for_any_thread_count():
    batches = block_ranges(96, 10)
    runs = [(None, None, b) for b in batches]
    layouts = [map_trajectories(_blocks, runs, 0, t, width=2) for t in (1, 2, 3)]
    expected = [[_first_draws(r) for r in _run_blocks(b, 2)] for b in batches]
    assert layouts == [expected] * 3


def test_block_sums_are_bit_identical_for_any_thread_count():
    n, groups, width = 83, 4, 6  # n is not a multiple of the run or block count
    batches = block_ranges(n, groups)
    runs = [(1.5, None, b) for b in batches]
    sums = {t: map_trajectories(_rounding, runs, 0, t, width=width) for t in (1, 2, 3)}
    for batch, run_sum in zip(batches, sums[1]):
        partials = []
        for r in _run_blocks(batch, width):
            partial = _rounding(1.5, [trajectory_rng(0, r[0])])
            for i in r[1:]:
                partial = partial + _rounding(1.5, [trajectory_rng(0, i)])
            partials.append(partial)
        expected = partials[0]
        for partial in partials[1:]:
            expected = expected + partial
        assert run_sum.tobytes() == expected.tobytes()
    for t in (2, 3):
        assert [s.tobytes() for s in sums[t]] == [s.tobytes() for s in sums[1]]


def test_several_ensembles_share_one_pool(monkeypatch):
    pools = []

    class CountingPool(ensemble.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", CountingPool)
    cfg = DecoherenceConfig(grid_n=512, n_efoldings=1.0, n_samples=4)
    params = CollapseParams(convert_rate_to_si(2.0), 1.0)
    pooled = decoherence_scan([0.5, 2.0, 10.0], params, 5, cfg, 3, threads=2)
    assert len(pools) == 1
    serial = decoherence_scan([0.5, 2.0, 10.0], params, 5, cfg, 3, threads=1)
    assert [r.to_json_dict() for r in pooled] == [r.to_json_dict() for r in serial]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the parent's patch only when forked")
def test_pooled_scan_builds_each_set_up_once_per_worker(monkeypatch, tmp_path):
    # blocks leave the pool in order, so no worker returns to a separation
    real, log = experiments._decoherence_setup, tmp_path / "builds.txt"

    def logged(*args):
        misses = real.cache_info().misses
        setup = real(*args)
        if real.cache_info().misses != misses:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {args[2]}\n")
        return setup

    monkeypatch.setattr(experiments, "_decoherence_setup", logged)
    cfg = DecoherenceConfig(grid_n=512, n_efoldings=1.0, n_samples=4)
    params = CollapseParams(convert_rate_to_si(2.0), 1.0)
    decoherence_scan([0.5, 2.0, 10.0], params, 40, cfg, 3, threads=2)
    builds = log.read_text().splitlines()
    assert len(builds) == len(set(builds)) and {b.split()[1] for b in builds} == {
        "0.5", "2.0", "10.0"}


def test_visibility_memory_does_not_grow_with_n():
    # the parent holds one summed screen per batch, not one per trajectory
    params = CollapseParams(convert_rate_to_si(1.0), 4.0)

    def peak(n):
        tracemalloc.start()
        try:
            visibility_experiment(64.0, params, 1.0, n, VisibilityConfig(), 2, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)  # warm the per-process caches
    assert peak(200) - peak(20) < 1e6


@pytest.mark.parametrize("threads", [1, 2])
def test_error_inside_a_block_names_its_trajectory(threads):
    # only the generator of trajectory 2 of seed 11, stream 3 fails
    fail = trajectory_rng(11, 2, 3).random()
    runs = [(fail, 3, b) for b in block_ranges(6, 2)]
    with pytest.raises(ZeroSupportError) as info:
        map_trajectories(_fails_on, runs, 11, threads, width=3)
    message = str(info.value)
    assert message.startswith("trajectory 2 of seed 11, stream 3: hit on nothing")


@pytest.mark.parametrize("exc, attr", [
    (SnapshotFormatError("bad magic", 3), "offset"),
    (BoundsParseError("lambda is not a number", 7), "row"),
])
def test_errors_with_extra_fields_survive_pickling(exc, attr):
    # what a pool worker's failure goes through, label included
    exc.args = (f"trajectory 2 of seed 11: {exc}",)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) and back.args == exc.args
    assert getattr(back, attr) == getattr(exc, attr)


def _raises_snapshot_error(job, rngs):
    raise SnapshotFormatError("bad magic", 3)


def test_pool_returns_an_error_with_extra_fields_as_itself():
    with pytest.raises(SnapshotFormatError) as info:
        map_trajectories(_raises_snapshot_error, [(None, None, range(2))], 4, threads=2,
                         width=1)
    assert info.value.offset == 3
    assert str(info.value) == "trajectory 0 of seed 4: bad magic (at byte offset 3)"


@pytest.mark.parametrize("threads", [1, 2])
def test_worker_error_names_trajectory_seed_and_stream(threads):
    fail = trajectory_rng(11, 2, 3).random()
    with pytest.raises(ZeroSupportError) as info:
        map_trajectories(_fails_on, [(fail, 3, range(4))], 11, threads, width=2)
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
        map_trajectories(_dies, [(None, None, range(2))], 0, threads=2, width=1)
