"""henonlab benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload family-scan --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (median
time from a fresh interpreter to ``henonlab.cli`` imported, over several
interpreters), ``wall_s`` (median wall time of one pass over the
workload's operations) and ``peak_rss_mb`` (peak resident memory of the
process that ran the passes).  With ``--trace 1`` it reports the per-layer
metrics of a traced pass instead.  Every operation's output is checked.
The last line of standard output is the result as one JSON object; a copy
with more detail goes to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0

IMPORT_PROBE = "import henonlab.cli, time; print(time.perf_counter())"


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict) -> list:
    """Fresh interpreters importing henonlab.cli.  CLOCK_MONOTONIC is shared
    across processes, so the child's clock reading when the import is done
    is comparable with the parent's reading before the spawn."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"importing henonlab.cli failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip()) - t0)
    return times


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "henonlab", "cli.py")):
        return fail("henonlab sources not found under src/; run from a full checkout")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = child_env()

    setup = []
    if args.trace == 0:
        try:
            setup = measure_setup(env)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            return fail(f"set-up measurement failed: {e}", 3)

    result_path = os.path.join(work, "worker.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--work", work, "--result", result_path]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(RUN_LIMIT_S - (time.perf_counter() - start), 1.0))
    except subprocess.TimeoutExpired:
        return fail("the workload did not finish in time", 3)
    if done.returncode != 0 or not os.path.isfile(result_path):
        return fail(f"worker exited with code {done.returncode}", 3)
    with open(result_path, encoding="utf-8") as fh:
        rep = json.load(fh)

    if args.trace == 0:
        metrics = {
            "wall_s": {"value": statistics.median(rep["pass_walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
        }
    else:
        metrics = rep["metrics"]
    for name, reason in sorted(rep["failures"].items()):
        print(f"perfbench: {name}: {reason}", file=sys.stderr)
    for name, reason in sorted(rep["expected_failures"].items()):
        print(f"perfbench: {name} (known fault, counted as failed): {reason}", file=sys.stderr)

    summary = {k: rep[k] for k in ("nproc", "threads", "python", "numpy", "scipy",
                                   "pass_walls", "op_walls", "checks_s", "failures",
                                   "expected_failures")}
    summary.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, setup_samples=setup)
    out = {"correct": rep["correct"], "attempted": rep["attempted"],
           "failed": rep["failed"], "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(out, run=summary), fh, indent=1, sort_keys=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
