"""discwalk benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
NAME is ``walk_decide``, ``evaluate``, ``extract``, or ``all`` for the three
in turn.  With ``--trace 0`` the last line reports the end-to-end metrics,
with ``--trace 1`` the per-layer ones (see perfbench/README.md).

This process imports nothing heavy.  It pins the BLAS/OpenMP thread pools to
one thread and starts one worker process that drives the workload and checks
every output.  Around the worker it times SETUP_PROBES fresh processes from
start to first request ready, half before and half after, so that they see
the same stretch of host load; ``setup_s`` is their median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("walk_decide", "evaluate", "extract")
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 30
WORKER_SLACK_S = 60


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_worker(extra: list, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(WORKER)] + extra
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=worker_env())


def setup_seconds(workload: str, seed: int, count: int) -> list:
    """Start-to-ready wall time of ``count`` fresh worker processes."""
    times = []
    for _ in range(count):
        cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--setup-only"]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=worker_env()) as p:
            try:
                line = p.stdout.readline()
                t1 = time.perf_counter()
                _, err = p.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                p.kill()
                p.communicate()
                raise RuntimeError("set-up probe timed out")
        if line.strip() != "ready" or p.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {p.returncode}): {err.strip()[-2000:]}")
        times.append(t1 - t0)
    return times


def run_one(workload: str, seed: int, seconds: float, traced: int) -> dict:
    half = 0 if traced else SETUP_PROBES // 2
    probes = setup_seconds(workload, seed, half)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
    proc = run_worker(args, timeout=2 * seconds + WORKER_SLACK_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    probes += setup_seconds(workload, seed, half)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = doc.pop("metrics")
    if not traced:
        metrics["setup_s"] = (statistics.median(probes), "s")
        doc["setup_probes_s"] = probes
    doc["requests_failed/requests_attempted"] = f"{doc['failed']}/{doc['attempted']}"
    print(json.dumps(doc), flush=True)
    return {
        "correct": doc["incorrect"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (Path.cwd() / "src" / "discwalk" / "__init__.py").is_file():
        print("error: run from the root of a discwalk checkout (src/discwalk not found)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_one(name, args.seed, args.seconds, args.trace)
            print(json.dumps(dict(workload=name, **result) if args.workload == "all" else result), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
