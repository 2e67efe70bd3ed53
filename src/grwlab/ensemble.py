"""Ordered, reproducible ensemble execution, reduced in fixed blocks.

An ensemble is a flat list of runs (job, stream, indices); trajectory i of a
run draws from trajectory_rng(master_seed, i, stream).  Workers are
module-level functions fn(job, rngs) -> the sum of the results of the
trajectories drawing from rngs, one generator each, added in order.  Each
run's indices fall into the fewest near-equal blocks of at most the width
the caller gives (one lockstep pass of its trajectories).  So the block
bounds depend on the runs and the width, never on the thread count; each
block is summed where it runs, and the parent adds a run's block sums in
block order, so the outcome is independent of thread count and scheduling.
A GrwError raised in a block names the first of its trajectories that
raises alone.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import reduce
from itertools import accumulate

from .errors import ConfigError, GrwError, WorkerError
from .rngstream import trajectory_rng

# A block is the unit of arithmetic; how many blocks one pool task carries
# (chunks) is chosen per run and changes no sum.
CHUNKS_PER_WORKER = 4


def resolve_threads(threads) -> int:
    """threads, else GRWLAB_THREADS, else the core count up to 8; a count
    that is not a whole number >= 1 is a ConfigError."""
    source = "threads"
    if threads in (None, "auto"):
        threads = os.environ.get("GRWLAB_THREADS")
        if threads is None:
            return max(1, min(os.cpu_count() or 1, 8))
        source = "GRWLAB_THREADS"
    t = int(threads) if str(threads).strip().isdecimal() else 0
    if t < 1:
        raise ConfigError(f"{source} must be an integer >= 1, got {threads!r}")
    return t


def block_ranges(n: int, blocks: int, start: int = 0) -> list[range]:
    """min(n, blocks) consecutive ranges covering start..start+n-1, n >= 1;
    the first n % blocks are one longer (the sections of np.array_split)."""
    if n < 1:
        raise ConfigError(f"an ensemble needs at least 1 trajectory, got {n}")
    k = min(n, blocks)
    ends = list(accumulate((n // k + (j < n % k) for j in range(k)), initial=start))
    return [range(lo, hi) for lo, hi in zip(ends, ends[1:])]


def _add(a, b):
    """a + b, taken element by element for tuples."""
    if isinstance(a, tuple):
        return tuple(map(_add, a, b))
    return a + b


def total(parts):
    """Sum of partial sums (or of any results) in the order given."""
    return reduce(_add, parts)


def _block_sum(args):
    """fn over one block of indices, one generator each.  On a GrwError they
    are replayed one at a time, and the error of the first that raises is
    re-raised with its index, seed and stream tag put before its message."""
    fn, job, master_seed, stream, indices = args
    tag = stream or 0  # None is the plain stream, left out of messages
    try:
        return fn(job, [trajectory_rng(master_seed, i, tag) for i in indices])
    except GrwError:
        for i in indices:
            try:
                fn(job, [trajectory_rng(master_seed, i, tag)])
            except GrwError as exc:
                label = "" if stream is None else f", stream {stream}"
                exc.args = (f"trajectory {i} of seed {master_seed}{label}: {exc}",)
                raise
        raise


def map_trajectories(fn, runs: list[tuple], master_seed: int, threads: int = 1, *,
                     width: int) -> list:
    """The sum of each run (job, stream, indices), all run in one process
    pool; fn(job, rngs) sums one block of at most width trajectories.

    A run's indices, a range of n >= 1, fall into block_ranges(n,
    ceil(n / width)), and its sum adds their block sums in block order.
    stream is the tag the run's trajectories draw from, or None for tag 0
    unlabelled.  The same bytes come back for any thread count.
    """
    keys, tasks = [], []
    for r, (job, stream, indices) in enumerate(runs):
        n = len(indices)
        for block in block_ranges(n, -(-n // width), indices.start):
            keys.append(r)
            tasks.append((fn, job, master_seed, stream, block))
    sums = [None] * len(runs)

    def combine(parts):
        for r, part in zip(keys, parts):
            sums[r] = part if sums[r] is None else _add(sums[r], part)

    workers = min(resolve_threads(threads), len(tasks))
    if workers <= 1:
        combine(map(_block_sum, tasks))
        return sums
    # tasks leave in submission order, so a worker meets the runs one after
    # another and builds each one's set-up at most once
    chunksize = max(1, len(tasks) // (CHUNKS_PER_WORKER * workers))
    try:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            combine(ex.map(_block_sum, tasks, chunksize=chunksize))
    except BrokenProcessPool as exc:
        raise WorkerError(
            f"a worker process died in the ensemble of seed {master_seed}: {exc}"
        ) from exc
    return sums
