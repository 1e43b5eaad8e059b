"""Re-measure the reference probes of ROADMAP item 1 with the benchmark's runner.

    python3 perfbench/probes.py

Each probe runs in this process, through ``discwalk.cli.main`` or the public
API as the workloads do, with the thread pools pinned and output files under
the benchmark's work directory.  Fast probes report the median of five runs;
the slow ones (over a second) run once.  Prints one JSON line per probe.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import statistics
import sys
from contextlib import redirect_stdout
from time import perf_counter

import numpy as np

from worker import WORK_ROOT, discwalk


def timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def cli(argv: list) -> None:
    with redirect_stdout(io.StringIO()):
        code = discwalk.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")


def main() -> int:
    workdir = WORK_ROOT / f"probes-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        out = lambda name: str(workdir / name)  # noqa: E731
        cli(["expand", "--builtin", "exponential", "--q", "3", "--mmax", "8", "--nmax", "8", "--out", out("t9.json")])
        cli(["expand", "--builtin", "exponential", "--q", "3", "--mmax", "32", "--nmax", "32", "--out", out("t33.json")])
        t33 = discwalk.CoefficientTable.load(out("t33.json"))
        rng = np.random.default_rng(0)
        z40k = np.sqrt(rng.random(40_000)) * np.exp(2j * np.pi * rng.random(40_000))
        horn = ["--builtin", "horn", "--q", "3", "--param", "t=0.1", "--param", "s=0.1", "--param", "b=2"]
        lauricella = ["--builtin", "lauricella", "--q", "3", "--param", "t=0.2", "--param", "s=0.1", "--param", "b=2"]
        probes = [
            ("plot-data --in 9x9 table --grid 201", 14.6,
             lambda: cli(["plot-data", "--in", out("t9.json"), "--grid", "201", "--out", out("p1.csv")])),
            ("gram --builtin lauricella --q 3 --points 40", 1.3,
             lambda: cli(["gram"] + lauricella + ["--points", "40"])),
            ("plot-data --builtin horn --q 3 --grid 101", 1.7,
             lambda: cli(["plot-data"] + horn + ["--grid", "101", "--out", out("p2.csv")])),
            ("expand horn q=3 16x16", 0.46,
             lambda: cli(["expand"] + horn + ["--mmax", "16", "--nmax", "16", "--out", out(f"e{perf_counter()}.json")])),
            ("family_coefficients(Exponential(q=2), 64, 64)", 0.020,
             lambda: discwalk.family_coefficients(discwalk.Exponential(q=2), 64, 64)),
            ("expand poisson q=3 64x64", 0.041,
             lambda: cli(["expand", "--builtin", "poisson", "--q", "3", "--param", "r=0.5", "--mmax", "64",
                          "--nmax", "64", "--out", out(f"e{perf_counter()}.json")])),
            ("synthesize 33x33 table at 40k points", 0.122, lambda: discwalk.synthesize(t33, z40k)),
        ]
        for name, roadmap_s, fn in probes:
            first = timed(fn)
            runs = [first] if first > 1.0 else [first] + [timed(fn) for _ in range(4)]
            print(json.dumps({"probe": name, "seconds": statistics.median(runs), "runs": len(runs),
                              "roadmap_seconds": roadmap_s}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
