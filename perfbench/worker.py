"""Runs one workload's passes in a fresh process and reports on them.

Started by run.py; not meant to be run by hand.  Untraced mode runs whole
passes until ``--seconds`` have gone by and records each pass's wall time
and the process's peak resident memory.  Traced mode runs one untraced
pass, then the same pass with the tracer installed, and reports the
per-layer metrics, the tracing overhead and whether the artifacts of the
two passes are byte-identical.  The operations' outputs are checked after
all timing is done.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# a pass that would end past this many seconds into the run is not started
PASS_DEADLINE_S = 140.0


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(ops: List[workloads.Op], out_root: str) -> Dict[str, object]:
    walls: Dict[str, float] = {}
    errors: Dict[str, str] = {}
    start = time.perf_counter()
    for op in ops:
        out = os.path.join(out_root, op.name)
        os.makedirs(out, exist_ok=True)
        t0 = time.perf_counter()
        try:
            res = op.call(out)
        except Exception:  # the op counts as failed; the run goes on
            res = None
            errors[op.name] = traceback.format_exc(limit=3)
        walls[op.name] = time.perf_counter() - t0
        if op.cli and res != 0 and op.name not in errors:
            errors[op.name] = f"exit code {res}"
        elif not op.cli and res is not None:
            with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
                json.dump(res, fh, sort_keys=True)
    return {"wall": time.perf_counter() - start, "op_walls": walls, "errors": errors}


def tree_bytes(root: str) -> Dict[str, bytes]:
    files = {}
    for dirpath, _, names in os.walk(root):
        for n in names:
            p = os.path.join(dirpath, n)
            with open(p, "rb") as fh:
                files[os.path.relpath(p, root)] = fh.read()
    return files


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import numpy
    import scipy

    import henonlab.cli  # noqa: F401  imported before any timing

    threads = len(os.sched_getaffinity(0))
    ops = workloads.build(args.workload, args.root, os.path.join(args.work, "configs"),
                          args.seed, threads)
    passes: List[Dict[str, object]] = []
    report: Dict[str, object] = {"threads": threads}
    t_run = time.perf_counter()

    if args.trace == 0:
        while True:
            passes.append(run_pass(ops, os.path.join(args.work, f"pass{len(passes)}")))
            elapsed = time.perf_counter() - t_run
            longest = max(p["wall"] for p in passes)
            if elapsed >= args.seconds or elapsed + longest > PASS_DEADLINE_S:
                break
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import spans

        passes.append(run_pass(ops, os.path.join(args.work, "pass0")))
        tr = spans.Tracer()
        installed = spans.install(tr)
        c0 = cpu_s()
        try:
            passes.append(run_pass(ops, os.path.join(args.work, "pass1")))
        finally:
            installed.undo()
        cpu = cpu_s() - c0
        metrics = spans.layer_metrics(tr)
        metrics["process.cpu_s"] = (cpu, "s")
        metrics["trace.overhead_s"] = (passes[1]["wall"] - passes[0]["wall"], "s")
        tr.save(os.path.join(args.work, "trace-spans.npz"))
        report["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}

    # checks: every pass must leave the same bytes, then each op is judged
    t_checks = time.perf_counter()
    failures: Dict[str, str] = {}
    first = tree_bytes(os.path.join(args.work, "pass0"))
    for k in range(1, len(passes)):
        later = os.path.join(args.work, f"pass{k}")
        if tree_bytes(later) != first:
            what = "with tracing on and off" if args.trace else "between passes"
            failures["artifacts"] = f"artifact bytes differ {what}"
        else:  # identical to pass0, which is kept
            shutil.rmtree(later)
    failed = 0
    expected_failures = {}
    for op in ops:
        reason = next((p["errors"][op.name] for p in passes if op.name in p["errors"]), None)
        if reason is None:
            try:
                op.check(os.path.join(args.work, "pass0", op.name))
            except workloads.checks.CheckFailed as e:
                reason = f"check failed: {e}"
            except Exception:  # a malformed artifact fails its op, not the run
                reason = "check raised: " + traceback.format_exc(limit=3)
        if reason is None:
            continue
        failed += len(passes)
        if op.expect_fail:
            expected_failures[op.name] = reason
        else:
            failures[op.name] = reason

    report.update(
        attempted=len(ops) * len(passes),
        failed=failed,
        correct=not failures,
        failures=failures,
        expected_failures=expected_failures,
        pass_walls=[p["wall"] for p in passes],
        op_walls=[p["op_walls"] for p in passes],
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        nproc=os.cpu_count(),
        checks_s=time.perf_counter() - t_checks,
    )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
