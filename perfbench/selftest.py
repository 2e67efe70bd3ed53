"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, from the repository root, that
  * two traced runs of one seed give identical exact counts per trajectory
    (steps, hits, FFT calls and points, observables, overlaps, result
    bytes, pools) on every workload;
  * run.py exits non-zero without a result when the grwlab sources are absent.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SEED = 1

COUNTS = (
    "propagator.steps_per_traj",
    "fft.calls_per_traj",
    "fft.points_per_traj",
    "collapse.hits_per_traj",
    "qstate.observables_per_traj",
    "qstate.overlaps_per_traj",
    "ensemble.result_bytes_per_traj",
    "ensemble.pools_per_run",
)


def traced(workload: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def main() -> int:
    problems = []

    for name in workloads.WORKLOADS:
        results = []
        for _ in range(2):
            proc = traced(name)
            if proc.returncode != 0:
                problems.append(f"{name}: traced run exited {proc.returncode}:\n{proc.stderr}")
                break
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if len(results) < 2:
            continue
        a, b = ({k: r["metrics"][k]["value"] for k in COUNTS} for r in results)
        print(f"{name}: {a}")
        if a != b:
            problems.append(f"{name}: counts differ between two traced runs: {a} vs {b}")
        if not all(r["correct"] for r in results):
            problems.append(f"{name}: a traced run failed its checks")

    bare = HERE / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = traced("heating", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("run.py did not fail without the grwlab sources")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
