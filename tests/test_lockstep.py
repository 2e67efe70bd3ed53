"""The lockstep driver: a block's trajectories advance together in one pass,
yet every block sum has the bits of its trajectories run one at a time, and
a failure names a trajectory whose lone run fails the same way."""

import re

import numpy as np
import pytest

from grwlab import experiments, propagator
from grwlab.collapse import CollapseParams, sample_times
from grwlab.ensemble import total
from grwlab.errors import DecisionTimeoutError, DomainError
from grwlab.experiments import (
    DecoherenceConfig,
    HeatingConfig,
    MeasurementConfig,
    VisibilityConfig,
    born_ensemble,
    born_trials,
    decoherence_scan,
    heating_experiment,
    visibility_experiment,
)
from grwlab.propagator import FreeFlight
from grwlab.rngstream import exponential_variate, trajectory_rng
from grwlab.units import convert_rate_to_si


def _params(lambda_internal, r_c, **kw):
    return CollapseParams(convert_rate_to_si(lambda_internal), r_c, **kw)


# pointers 8 r_c apart: a hit between them leaves both branches weight, so
# a trial decides after one to a few hits
_BORN = MeasurementConfig(c_up=np.sqrt(0.3), c_down=np.sqrt(0.7), pointer_separation=8.0)
_BORN_PARAMS = _params(1.0, 1.0, n_nucleons=_BORN.pointer_n_nucleons)
_VISIBILITY = VisibilityConfig(grid_n=512)
# (worker, job, stream): one ensemble of each experiment at small size
WORKERS = {
    "born": (experiments._born_worker, (_BORN, _BORN_PARAMS), 0),
    "decohere": (experiments._coherence_terms,
                 (DecoherenceConfig(n_samples=6), _params(2.0, 1.0), 2.0), 1),
    "visibility": (experiments._screen_worker,
                   (_VISIBILITY, _params(1.0, 4.0), 64.0, 1.0), 0),
    "heating": (experiments._heating_worker,
                (HeatingConfig(), _params(4.0, 1.0), np.array(sample_times(1.5 / 20, 20, 1))), 0),
}
# the points of each one's widest array per trajectory, which set its width:
# born's (up, down) rows, decohere's and heating's one row, visibility's
# 2N-point screen
POINTS = {"born": 2 * 1024, "decohere": 1024, "visibility": 2 * 512, "heating": 512}


def _rngs(indices, stream, seed=3):
    """The generators of trajectories indices, as map_trajectories builds them."""
    return [trajectory_rng(seed, i, stream) for i in indices]


def _bytes(result):
    """The bits of a block sum: arrays, tuples of them, or numbers."""
    if isinstance(result, tuple):
        return [_bytes(r) for r in result]
    return np.asarray(result).tobytes()


@pytest.mark.parametrize("points", [None, 1024])
@pytest.mark.parametrize("name", list(WORKERS))
def test_block_sum_equals_lone_trajectories(monkeypatch, name, points):
    # a block is one pass, as wide as the pass budget allows: by default 8
    # born trials, 16 decohere rows, 16 visibility screens and 32 heating
    # rows; a budget of 1024 points leaves 2 heating rows and one of the others
    if points:
        monkeypatch.setattr(experiments, "PASS_POINTS", points)
    width = experiments._pass_width(POINTS[name])
    if not points:
        assert width == {"born": 8, "decohere": 16, "visibility": 16, "heating": 32}[name]
    worker, job, stream = WORKERS[name]
    block = range(5, 5 + width)
    lone = [worker(job, _rngs([i], stream)) for i in block]
    assert _bytes(worker(job, _rngs(block, stream))) == _bytes(total(lone))


def test_every_ensemble_takes_blocks_of_one_full_pass(monkeypatch):
    real, widths = experiments.map_trajectories, []

    def recorded(*args, width, **kwargs):
        widths.append(width)
        return real(*args, width=width, **kwargs)

    monkeypatch.setattr(experiments, "map_trajectories", recorded)
    born_ensemble(_BORN, _BORN_PARAMS, 2, 3)
    decoherence_scan([2.0], _params(2.0, 1.0), 2, DecoherenceConfig(n_samples=6), 3)
    visibility_experiment(64.0, _params(1.0, 4.0), 1.0, 2, VisibilityConfig(), 3)
    heating_experiment(_params(4.0, 1.0), 1.5, 2, HeatingConfig(), 3)
    # the benchmark's grids: born and decohere N = 1024, visibility's 2N
    # screen of N = 1024, heating N = 512
    assert widths == [8, 16, 8, 32]


def test_blocks_hold_rows_without_hits_and_rows_that_leave_early(monkeypatch):
    # the running rows of each round of a block's one pass: visibility's
    # block of 20 has rows that leave unhit while others take a hit, and
    # born's has rows that decide while others need more hits
    real, sizes = experiments.grw_process, []

    def watched(*args):
        sizes.append([])
        for rnd in real(*args):
            sizes[-1].append(len(rnd.rows))
            yield rnd

    monkeypatch.setattr(experiments, "grw_process", watched)
    for name in ("visibility", "born"):
        worker, job, stream = WORKERS[name]
        sizes.clear()
        try:
            worker(job, _rngs(range(5, 25), stream))
        except DecisionTimeoutError:
            # about 1 % of these trials never decide, at any budget: a hit
            # between the pointers pulls both branch packets onto one
            # another, and from then on every hit scales both alike.  Such
            # a row runs until the budget ends the pass, after the rounds
            # in which the other rows left.
            assert name == "born"
        assert len(sizes) == 1
        assert any(a > b > 0 for s in sizes for a, b in zip(s, s[1:])), (name, sizes)


def test_each_hit_draws_four_uniforms_from_its_rows_stream():
    # a trajectory's stream holds its first wait, then three uniforms for
    # each hit's center and one for the wait after it, alone and in a block
    worker, job, stream = WORKERS["heating"]
    block = range(5, 11)
    rngs = _rngs(block, stream)
    summed = worker(job, rngs)
    lone = []
    for i, rng in zip(block, rngs):
        alone = _rngs([i], stream)
        lone.append(worker(job, alone))
        hits = lone[-1][2]
        assert hits > 0
        replay = trajectory_rng(3, i, stream)
        replay.random(1 + 4 * hits)
        assert rng.random() == alone[0].random() == replay.random()
    assert _bytes(summed) == _bytes(total(lone))


@pytest.mark.parametrize("name", list(WORKERS))
def test_a_block_takes_one_exponential_per_read(monkeypatch, name):
    # every drift_phase of a block is one FreeFlight.at's: a hit's read, or
    # visibility's read at t_flight.  Decohere's origin_spectrum takes none:
    # it starts from the start spectrum and carries the read's phase
    # across each hit, so decohere takes one per hit round
    worker, job, stream = WORKERS[name]
    block = range(5, 13)
    worker(job, _rngs(block, stream))  # builds the set-up
    calls = {"drift_phase": 0, "at": 0, "hit rounds": 0}

    def counted(key, real):
        def call(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return call

    def watched(*args):
        for rnd in real_process(*args):
            calls["hit rounds"] += rnd.centers is not None
            yield rnd

    real_process = experiments.grw_process
    monkeypatch.setattr(experiments, "grw_process", watched)
    monkeypatch.setattr(propagator, "drift_phase", counted("drift_phase", propagator.drift_phase))
    monkeypatch.setattr(FreeFlight, "at", counted("at", FreeFlight.at))
    worker(job, _rngs(block, stream))
    assert calls["hit rounds"] > 0
    assert calls["drift_phase"] == calls["at"]
    if name != "visibility":
        assert calls["at"] == calls["hit rounds"]


@pytest.mark.parametrize("threads", [1, 2])
def test_pass_failure_names_a_trajectory_whose_lone_run_fails(threads):
    # a budget of 0.4 expected hits: trials whose first hit comes later time
    # out; at n = 96 the blocks hold 8 trials, so a pass of mixed trials
    # raises for one of them
    cfg = MeasurementConfig(c_up=np.sqrt(0.5), c_down=np.sqrt(0.5),
                            hits_budget=0.4)
    params = _params(1.0, 1.0, n_nucleons=cfg.pointer_n_nucleons)
    rate = params.total_rate_internal()
    late = [exponential_variate(trajectory_rng(1, i), rate) > 0.4 / rate
            for i in range(96)]
    i = late.index(True)
    assert not all(late[8 * (i // 8):8 * (i // 8) + 8])
    with pytest.raises(DecisionTimeoutError) as info:
        born_ensemble(cfg, params, 96, master_seed=1, threads=threads)
    with pytest.raises(DecisionTimeoutError) as alone:
        born_trials(cfg, params, [trajectory_rng(1, i)])
    assert str(info.value) == f"trajectory {i} of seed 1: {alone.value}"


def test_pass_failure_names_its_stream(monkeypatch):
    # r_c > extent / 8 fails every row's first hit in the hit's own guard, the
    # backstop of the set-up check switched off here; separation j is stream j
    monkeypatch.setattr(CollapseParams, "hit_rate",
                        lambda self, grid, mass=None: self.total_rate_internal(mass))
    cfg = DecoherenceConfig(grid_n=512, n_samples=4)
    with pytest.raises(DomainError) as info:
        decoherence_scan([2.0, 10.0], _params(2.0, 5.0), 6, cfg, master_seed=3)
    assert str(info.value).startswith("trajectory 0 of seed 3, stream 0: r_c must be in ")
    assert str(info.value).endswith("got 5.0")


def test_pass_failure_in_a_later_separation_names_its_stream():
    # a light packet pair spreads across its box unless a hit comes in time:
    # every trajectory of d = 10 r_c (stream 0) runs through, and the longer
    # run at d = 1 r_c (stream 1) reads one of its 16 in x after it wrapped
    cfg = DecoherenceConfig(grid_n=512, mass=1.0, packet_sigma_over_rc=0.5,
                            n_efoldings=1.0, n_samples=4)
    params = _params(0.5, 1.0)
    with pytest.raises(DomainError) as info:
        decoherence_scan([10.0, 1.0], params, 16, cfg, master_seed=3)
    named = re.match(r"trajectory (\d+) of seed 3, stream 1: ", str(info.value))
    assert named, str(info.value)
    i = int(named.group(1))
    with pytest.raises(DomainError) as alone:
        experiments._coherence_terms((cfg, params, 1.0), [trajectory_rng(3, i, 1)])
    assert str(info.value) == f"trajectory {i} of seed 3, stream 1: {alone.value}"
    assert "wraps the periodic box" in str(alone.value)
