"""End-to-end benchmark of the grwlab ensemble experiments.

    python3 perfbench/run.py --workload visibility --seed 1 --seconds 20 --trace 0

Run from the repository root; grwlab is imported from ./src.  Each run
drives one workload through `grwlab.cli.run([...])` in this process and
prints, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics.  `--trace 0` reports the end-to-end
metrics and `--trace 1` the per-layer ones; `--workload all` runs every
workload in turn and prints a table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import filecmp
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# outputs of this process's cli.run calls.  They are deleted only when the
# run ends: on a file system mounted with `discard`, deleting a file costs
# tens of milliseconds and would disturb the next timed call.
WORK = Path(__file__).resolve().parent / ".work" / f"run-{os.getpid()}"

MIN_REPS = 3  # untraced repetitions per run, whatever --seconds says
MIN_TRACED_REPS = 2
SETUP_REPEATS = 5

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import grwlab.cli\n"
    "grwlab.cli.build_parser()\n"
    "print(repr(time.monotonic()))\n"
)


def metric_units(key: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def rep_seed(seed: int, rep: int) -> int:
    """The grwlab --seed of repetition rep: a fixed function of the workload seed."""
    import numpy as np

    return int(np.random.SeedSequence([seed, rep]).generate_state(1, np.uint32)[0])


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, q: float) -> float:
    import numpy as np

    return float(np.quantile(xs, q)) if xs else 0.0


def rel_iqr(xs) -> float:
    if len(xs) < 2 or median(xs) == 0:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / abs(median(xs))


# ---------------------------------------------------------------------------
# machine state, read only
# ---------------------------------------------------------------------------

def read_machine() -> dict:
    state = {"monotonic": time.monotonic()}
    try:
        with open("/proc/loadavg") as fh:
            state["loadavg"] = [float(x) for x in fh.read().split()[:3]]
        with open("/proc/stat") as fh:
            cpu = fh.readline().split()
        state["steal_ticks"] = int(cpu[8]) if len(cpu) > 8 else 0
    except OSError:
        pass
    return state


def machine_report(before: dict, after: dict) -> dict:
    import numpy as np
    import scipy

    report = {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_before": before.get("loadavg"),
        "loadavg_after": after.get("loadavg"),
    }
    if "steal_ticks" in before and "steal_ticks" in after:
        ticks = after["steal_ticks"] - before["steal_ticks"]
        elapsed = after["monotonic"] - before["monotonic"]
        hz = os.sysconf("SC_CLK_TCK")
        report["steal_ticks"] = ticks
        report["steal_share"] = ticks / (hz * elapsed * nproc()) if elapsed > 0 else 0.0
    load = max((before.get("loadavg") or [0])[0], (after.get("loadavg") or [0])[0])
    # the benchmark itself keeps up to nproc cores busy; more than that, or
    # any stolen time, means another tenant competed for the cores
    report["noisy"] = bool(report.get("steal_share", 0.0) > 0.01 or load > nproc() + 0.5)
    return report


# ---------------------------------------------------------------------------
# one cli.run
# ---------------------------------------------------------------------------

class Outcome:
    def __init__(self, out: Path):
        self.out = out
        self.code = None
        self.wall = 0.0
        self.cpu = 0.0
        self.errors: list[str] = []
        self.estimates = []

    @property
    def ok(self) -> bool:
        return not self.errors


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def run_cli(run, wl, seed: int, threads: int, out: Path) -> Outcome:
    """One whole cli.run, timed, with its outputs checked against closed forms."""
    res = Outcome(out)
    gc.collect()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        res.code = run(wl.cli_args(seed, threads, out))
    except Exception:  # a crash is a failed run, reported and counted
        res.errors.append(f"cli.run raised:\n{traceback.format_exc()}")
    res.wall = time.perf_counter() - t0
    res.cpu = cpu_seconds() - cpu0
    if res.code not in (0, None):
        res.errors.append(f"cli.run exited with code {res.code}")
    if res.ok:
        try:
            errors, res.estimates = wl.check(out, wl.n_traj)
            res.errors += errors + [d for e in res.estimates for d in e.deviation()]
        except (OSError, KeyError, ValueError) as exc:
            res.errors.append(f"outputs unreadable: {exc!r}")
    for err in res.errors:
        print(f"perfbench: FAILED {wl.name} seed {seed} threads {threads}: {err}",
              file=sys.stderr)
    return res


def same_outputs(a: Path, b: Path) -> list[str]:
    """Byte comparison of two output directories, manifest.json excluded."""
    names_a = sorted(p.name for p in a.iterdir() if p.name != "manifest.json")
    names_b = sorted(p.name for p in b.iterdir() if p.name != "manifest.json")
    if names_a != names_b:
        return [f"output files differ: {names_a} vs {names_b}"]
    return [f"{n} differs between {a.name} and {b.name}" for n in names_a
            if not filecmp.cmp(a / n, b / n, shallow=False)]


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir())


class Tally:
    """Runs attempted and failed, and the estimates of one run per seed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.estimates = []

    def add(self, *outcomes: Outcome) -> None:
        """Count the runs of one repetition; the first one's estimates are pooled."""
        self.attempted += len(outcomes)
        self.failed += sum(not o.ok for o in outcomes)
        if outcomes[0].estimates:
            self.estimates.append(outcomes[0].estimates)

    def check_pooled(self, wl) -> None:
        """The mean of each estimate over the repetitions' seeds, as one more check."""
        import workloads

        if len(self.estimates) < 2:
            return
        errors = [d for e in workloads.pooled(self.estimates) for d in e.deviation()]
        for err in errors:
            print(f"perfbench: FAILED {wl.name} {err}", file=sys.stderr)
        self.attempted += 1
        self.failed += bool(errors)

    def compare(self, a: Outcome, b: Outcome, wl, seed: int) -> None:
        """Criterion 9 from outside: a mismatch fails run a (call before add)."""
        if not (a.ok and b.ok):
            return
        diffs = same_outputs(a.out, b.out)
        for d in diffs:
            print(f"perfbench: FAILED {wl.name} seed {seed} determinism: {d}", file=sys.stderr)
        a.errors += diffs


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def setup_seconds() -> float:
    """Wall time from a fresh interpreter to build_parser() returned."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1]) - t0


def end_to_end(wl, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    from grwlab import cli

    setup_seconds()  # writes the bytecode caches once, untimed
    setup = [setup_seconds() for _ in range(SETUP_REPEATS)]

    threads = nproc()
    par_rate, ser_rate, cpu_ms = [], [], []
    tally = Tally()
    start = None
    rep = 0
    # repetition 0 is checked but not timed: it fills numpy's FFT plan caches
    # and brings the cores to the clock rate they hold under this load
    while rep <= MIN_REPS or time.perf_counter() - start < seconds:
        if rep == 1:
            start = time.perf_counter()
        s = rep_seed(seed, rep)
        modes = [("par", threads), ("ser", 1)]
        if rep % 2:
            modes.reverse()  # neither side always runs on a warmer machine
        res = {mode: run_cli(cli.run, wl, s, t, WORK / f"{rep}-{mode}") for mode, t in modes}
        par, ser = res["par"], res["ser"]
        tally.compare(par, ser, wl, s)
        tally.add(ser, par)
        if par.ok and rep > 0:
            par_rate.append(wl.trajectories / par.wall)
            cpu_ms.append(1000.0 * par.cpu / wl.trajectories)
        if ser.ok and rep > 0:
            ser_rate.append(wl.trajectories / ser.wall)
        rep += 1
    tally.check_pooled(wl)

    samples = {
        "traj_per_s": par_rate,
        "traj_per_s.serial": ser_rate,
        "cpu_ms_per_traj": cpu_ms,
        "setup_s": setup,
    }
    metrics = {k: median(v) for k, v in samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, tally, samples


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

def per_layer(wl, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    from grwlab import cli
    from spans import TRAJ, Tracer

    threads = nproc()
    tally = Tally()
    traced: list[Tracer] = []
    walls_u, walls_t, map_par, overhead, reduce_ms, self_ms, io_ms, pools = ([] for _ in range(8))
    out_bytes = 0
    worker_rss_mb = 0.0
    start = time.perf_counter()
    rep = 0
    while rep < MIN_TRACED_REPS or time.perf_counter() - start < seconds:
        s = rep_seed(seed, rep)
        runs = {}
        # the parallel run goes first, so that its workers are forked before
        # this process holds any traced spans
        for mode, full, t in (("par", False, threads), ("ser", False, 1), ("traced", True, 1)):
            tracer = Tracer(full)
            tracer.install()
            try:
                run = tracer.wrap("cli.run", cli.run)
                runs[mode] = (run_cli(run, wl, s, t, WORK / f"{rep}-{mode}"), tracer)
            finally:
                tracer.restore()
            if tracer.missing and rep == 0:
                print(f"perfbench: not traced (absent): {', '.join(tracer.missing)}",
                      file=sys.stderr)
            if mode == "par" and rep == 0:
                # serial runs start no process, so this is repetition 0's pool
                worker_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        (ser, light), (tr, full), (par, ptr) = runs["ser"], runs["traced"], runs["par"]
        tally.compare(par, ser, wl, s)
        tally.compare(tr, ser, wl, s)  # tracing must not change the outputs
        tally.add(ser, tr, par)
        if ser.ok and tr.ok and par.ok:
            traced.append(full)
            walls_u.append(ser.wall)
            walls_t.append(tr.wall)
            map_par.append(ptr.total("ensemble.map"))
            overhead.append(1.0 - light.total("ensemble.map") / (threads * map_par[-1]))
            reduce_ms.append(1e3 * full.stat("experiments.experiment").self_time)
            self_ms.append(1e3 * full.stat("cli.run").self_time)
            io_ms.append(1e3 * full.total("cli.io"))
            pools.append(ptr.pools)
            if len(traced) == 1:
                out_bytes = output_bytes(tr.out)
        rep += 1
    tally.check_pooled(wl)
    if not traced:
        return {}, tally, {}

    # exact counts from the first repetition, whose seed and size are fixed
    first = traced[0]
    n = first.stat(TRAJ).count
    counts = first.traj_counts

    def durations_us(name):
        return [1e6 * d for t in traced for d in t.durations(name)]

    def share(prefix):
        return median([t.self_time(prefix) / w for t, w in zip(traced, walls_t)])

    traj_ms = [1e3 * d for t in traced for d in t.durations(TRAJ)]
    metrics = {
        "propagator.steps_per_traj": counts["propagator.step"] / n,
        "propagator.step_us": median(durations_us("propagator.step")),
        "propagator.share": share("propagator"),
        "fft.calls_per_traj": counts["fft"] / n,
        "fft.points_per_traj": first.traj_points / n,
        "fft.share": share("fft"),
        "collapse.hits_per_traj": counts["collapse.draw"] / n,
        "collapse.density_us": median(durations_us("collapse.density")),
        "collapse.draw_us": median(durations_us("collapse.draw")),
        "collapse.apply_us": median(durations_us("collapse.apply")),
        "collapse.share": share("collapse"),
        "qstate.observables_per_traj": counts["qstate.observables"] / n,
        "qstate.observables_us": median(durations_us("qstate.observables")),
        "qstate.overlaps_per_traj": counts["qstate.overlap"] / n,
        "qstate.overlap_us": median(durations_us("qstate.overlap")),
        "qstate.share": share("qstate"),
        "experiments.traj_ms.p50": median(traj_ms),
        "experiments.traj_ms.p99": quantile(traj_ms, 0.99),
        "experiments.traj_ms.samples": len(traj_ms),
        "experiments.traj_self_share": share(TRAJ),
        "experiments.screen_us": median(durations_us("experiments.screen")),
        "experiments.reduce_ms": median(reduce_ms),
        "ensemble.map_s": median(map_par),
        "ensemble.overhead_share": median(overhead),
        "ensemble.result_bytes_per_traj": first.result_bytes / n,
        "ensemble.pools_per_run": median(pools),
        "ensemble.worker_rss_mb": worker_rss_mb,
        "cli.self_ms": median(self_ms),
        "cli.io_ms": median(io_ms),
        "cli.output_bytes": out_bytes,
        "tracing.overhead": median(walls_t) / median(walls_u) - 1.0,
    }
    samples = {"traced_wall_s": walls_t, "untraced_wall_s": walls_u,
               "ensemble.map_s": map_par}
    return metrics, tally, samples


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_one(args) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    before = read_machine()
    try:
        units = metric_units("per_layer" if args.trace else "end_to_end")
        if args.trace:
            metrics, tally, samples = per_layer(wl, args.seed, args.seconds)
        else:
            metrics, tally, samples = end_to_end(wl, args.seed, args.seconds)
        metrics = metrics or dict.fromkeys(units, 0.0)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    machine = machine_report(before, read_machine())

    print(f"# perfbench {wl.name} seed {args.seed} trace {args.trace}: "
          f"{wl.trajectories} trajectories per run, threads {nproc()} and 1")
    print("# machine " + json.dumps(machine, sort_keys=True))
    for name, xs in samples.items():
        print(f"#   {name}: median {median(xs):.6g} of {len(xs)} samples, "
              f"IQR/median {rel_iqr(xs):.3f}")
    for name in units:
        print(f"#   {name} = {metrics[name]:.6g} {units[name]}")
    print(f"#   fail_frac = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} runs and pooled checks)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table of the metrics and fail_frac."""
    import workloads

    units = metric_units("per_layer" if args.trace else "end_to_end")
    rows = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return 1
        rows[name] = json.loads(lines[-1])
    names = list(rows)
    width = max(len(k) for k in units) + 2
    print("metric".ljust(width) + "unit".ljust(12) + "".join(n.rjust(13) for n in names))
    for key, unit in units.items():
        print(key.ljust(width) + unit.ljust(12)
              + "".join(f"{rows[n]['metrics'][key]['value']:13.5g}" for n in names))
    print("fail_frac".ljust(width) + "1".ljust(12)
          + "".join(f"{rows[n]['failed'] / rows[n]['attempted']:13.5g}" for n in names))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["born", "decohere", "heating", "visibility", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "grwlab" / "cli.py").is_file():
        print(f"perfbench: no grwlab sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
