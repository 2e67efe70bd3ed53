"""Ordered, reproducible ensemble execution, reduced in fixed blocks.

Workers are module-level functions fn(cfg, master_seed, indices) -> the sum
of the results of trajectories indices, added in index order.  Each index
derives its own Philox stream from (master_seed, index).  The indices
0..n-1 fall into groups, and each group into the fewest near-equal blocks
of at most the width the caller gives (one lockstep pass of its
trajectories).  So the block bounds depend on n, the group count and the
width, never on the thread count; each block is summed where it runs, and
the parent adds the block sums in block order, so the outcome is
independent of thread count and scheduling.  A GrwError raised in a block
names the first of its trajectories that raises alone.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import reduce
from itertools import accumulate

from .errors import ConfigError, GrwError, WorkerError

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
    """min(n, blocks) consecutive ranges covering start..start+n-1; the first
    n % blocks are one longer (the sections of np.array_split)."""
    k = min(n, blocks)
    ends = list(accumulate((n // k + (j < n % k) for j in range(k)), initial=start))
    return [range(lo, hi) for lo, hi in zip(ends, ends[1:])]


def group_blocks(n: int, groups: int, width: int) -> list[list[range]]:
    """The blocks of each of the groups block_ranges(n, groups): a group of
    m indices falls into ceil(m / width) blocks of near-equal length."""
    return [block_ranges(len(g), -(-len(g) // width), g.start)
            for g in block_ranges(n, groups)]


def _add(a, b):
    """a + b, taken element by element for tuples."""
    if isinstance(a, tuple):
        return tuple(map(_add, a, b))
    return a + b


def total(parts):
    """Sum of partial sums (or of any results) in the order given."""
    return reduce(_add, parts)


def _block_sum(args):
    """fn over one block of indices.  On a GrwError the block's trajectories
    are replayed one at a time, and the error of the first that raises is
    re-raised with its index, seed and stream tag put before its message."""
    fn, cfg, master_seed, stream, indices = args
    try:
        return fn(cfg, master_seed, indices)
    except GrwError:
        for i in indices:
            try:
                fn(cfg, master_seed, range(i, i + 1))
            except GrwError as exc:
                tag = "" if stream is None else f", stream {stream}"
                exc.args = (f"trajectory {i} of seed {master_seed}{tag}: {exc}",)
                raise
        raise


def map_trajectories(
    fn, ensembles: list[tuple], n: int, master_seed: int, threads: int = 1,
    groups: int = 1, *, width: int,
) -> list[list]:
    """Group sums of trajectories 0..n-1 for each (job, stream) in
    ensembles, all run in one process pool; fn(job, master_seed, block)
    sums one block of at most width trajectories.

    The result holds, per ensemble, the sums over the groups
    block_ranges(n, groups) in group order; each group is the sum of its
    group_blocks(n, groups, width) in block order.  stream is the tag the
    job's trajectories draw from, or None; it only labels a failure.  The
    same bytes come back for any thread count.
    """
    if n < 1:
        raise ConfigError(f"an ensemble needs at least 1 trajectory, got {n}")
    layout = group_blocks(n, groups, width)
    keys, tasks = [], []
    for e, (job, tag) in enumerate(ensembles):
        for g, blocks in enumerate(layout):
            for r in blocks:
                keys.append((e, g))
                tasks.append((fn, job, master_seed, tag, r))
    sums = [[None] * len(layout) for _ in ensembles]

    def combine(parts):
        for (e, g), part in zip(keys, parts):
            sums[e][g] = part if sums[e][g] is None else _add(sums[e][g], part)

    workers = min(resolve_threads(threads), len(tasks))
    if workers <= 1:
        combine(map(_block_sum, tasks))
        return sums
    # tasks leave in submission order, so a worker meets the ensembles one
    # after another and builds each one's set-up at most once
    chunksize = max(1, len(tasks) // (CHUNKS_PER_WORKER * workers))
    try:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            combine(ex.map(_block_sum, tasks, chunksize=chunksize))
    except BrokenProcessPool as exc:
        raise WorkerError(
            f"a worker process died in the ensemble of seed {master_seed}: {exc}"
        ) from exc
    return sums
