"""Benchmark driver: runs one workload (or all) of flowam's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in child
processes of its own with one BLAS thread.  Set-up is measured in five
fresh processes, one after another, from launch to the point where the
first timed unit would start.  The first four then run one call each, for
the peak RSS; the last goes on to the timed phase and the checks.  The last
line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones.  `--workload all` runs every workload in turn and prints
one result line per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pretrain", "tune-ode-am-T50", "tune-sde-am-T1", "eval-n2000")
SETUPS = 5
CHILD_TIMEOUT_S = 150
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}
UNITS = {
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "iter_ms_p50": "ms",
    "iter_ms_p10": "ms",
    "peak_rss_mb": "MB",
}


def unit(name):
    if name in UNITS:
        return UNITS[name]
    return "ms" if name.endswith("_ms") else "count"


class ChildFailed(RuntimeError):
    pass


def run_child(args, run_dir, setup_only):
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--run-dir", run_dir,
    ] + (["--setup-only"] if setup_only else [])
    launched = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=dict(os.environ, **THREAD_ENV), stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, text=True,
    )
    if proc.returncode != 0:
        raise ChildFailed(f"{args.workload} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_wall_s"] = out.pop("setup_done") - launched
    out["setup_s"] = out["setup_wall_s"] / out.pop("setup_slowdown")
    return out


def run_workload(args):
    scratch = os.path.join(ROOT, ".perfbench_run")
    os.makedirs(scratch, exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=scratch)
    try:
        setups = [] if args.trace else [
            run_child(args, run_dir, True) for _ in range(SETUPS - 1)
        ]
        out = run_child(args, run_dir, False)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run still uses it
            pass
    setups.append(out)
    metrics = out["metrics"]
    info = {"workload": args.workload, "host": out["host"]}
    if not args.trace:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in setups[:-1])
        info["wall"] = dict(out["wall"], setup_s=statistics.median(
            s["setup_wall_s"] for s in setups))
    print(json.dumps(info))
    return {
        "correct": out["failed"] == 0,
        "attempted": out["units"] + out["checks"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": value, "unit": unit(name)}
            for name, value in sorted(metrics.items())
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "flowam", "__init__.py")):
        print(f"error: no flowam sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_workload(argparse.Namespace(**dict(vars(args), workload=name)))
            if len(names) > 1:
                print(json.dumps({"workload": name, **result}))
    except (ChildFailed, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
