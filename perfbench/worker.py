"""One benchmark process: set up a workload, drive it closed-loop, check every output.

Started by ``run.py`` with the thread variables pinned.  With ``--setup-only``
it prints ``ready`` once its inputs are written and exits (the set-up probe).
Otherwise it prints one JSON document with the run's metrics.

One client, one request in flight: each request starts when the previous one
and its output check have finished.  Only the request is timed; the check,
the removal of its output file and the trace bookkeeping are not.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import discwalk  # noqa: E402
import discwalk.cli  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import KINDS, WORKLOADS  # noqa: E402

#: host-speed samples per round, spread through it like the reference requests
HOST_SAMPLES_PER_ROUND = 8
#: settled time of ``host_kernel`` on the machine the baseline was taken on; it
#: sets the scale of the reported times and is the same for every commit
HOST_REF_MS = 1.6

WORK_ROOT = ROOT / ".perfbench_work"
SPAN_DIR = ROOT / ".perfbench_out"
REFUSAL_CODES = (2, 3)  # DiscWalkError / CapacityError: a one-line refusal, not a wrong answer


_HOST_DOC = json.dumps({"entries": [[m, n, 1.0 / (1 + m + n), 0.0] for m in range(24) for n in range(24)]})
_HOST_MATRIX = np.add.outer(np.arange(48.0), np.arange(48.0)) % 7.0 + 48.0 * np.eye(48)
_HOST_GRID = np.linspace(0.0, 1.0, 30000)


def host_kernel() -> float:
    """A fixed computation that uses nothing from the program: a JSON round
    trip of a table-shaped document, Python dict and set work, and small
    numpy work, in about equal parts, as the program's own requests mix them.

    Every kind of request slows by a different factor when the host is busy;
    these three kinds together track the program's requests more closely
    than any one of them alone (perfbench/README.md).
    """
    doc = json.loads(_HOST_DOC)
    size = len(json.dumps(doc))
    d = {}
    for m in range(48):
        for n in range(48):
            d[(m, n)] = (m - n) % 7 + 0.5 * m
    ranked = sorted(d.items(), key=lambda kv: kv[1])
    differences = {m - n for (m, n), v in ranked if v > 3.0}
    w = np.linalg.eigvalsh(_HOST_MATRIX)
    y = np.sin(_HOST_GRID) * np.exp(-_HOST_GRID) + np.cos(3.0 * _HOST_GRID)
    return size + len(differences) + float(w[0] + y.sum())


def host_sample() -> float:
    """Milliseconds of one ``host_kernel`` run, after an untimed one, so that
    what the previous request left in the caches does not count."""
    host_kernel()
    t0 = perf_counter()
    host_kernel()
    return (perf_counter() - t0) * 1e3


class Outcome:
    __slots__ = ("code", "stdout", "stderr", "value", "error")

    def __init__(self, code=0, stdout="", stderr="", value=None, error=None):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.value = value
        self.error = error


class Context:
    """What the checks need besides the request: the library and the set-up inputs."""

    def __init__(self, dw, tables):
        self.dw = dw
        self.tables = tables


def call_library(info: dict):
    """The README quick start: exact table, then the SPD verdict on the family's pattern."""
    spec = discwalk.make_family(info["family"], info["q"], info["params"])
    table = discwalk.family_coefficients(spec, info["D"], info["D"])
    verdict = discwalk.is_spd(table, info["q"], declared_set=discwalk.difference_pattern(spec))
    return table, verdict


class Runner:
    def __init__(self, workload, workdir: Path, prefix: str, recorder: spans.Recorder | None = None):
        self.workload = workload
        self.workdir = workdir
        self.prefix = prefix  # output files are <prefix><serial>.<ext>: a fresh name per request
        self.recorder = recorder
        self.ctx = Context(discwalk, workload.tables)
        self.serial = 0
        self.cells: dict[str, tuple[str, list]] = {}  # cell key -> (kind, latencies in ms)
        self.host_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.reasons: list[str] = []
        self.accuracy: dict = {}
        self.plot_rows: dict = {}

    def execute(self, req) -> tuple[float, Outcome, str | None]:
        """Run one request; returns (seconds, outcome, output path)."""
        self.serial += 1
        path = None
        argv = req.argv
        if req.out_ext:
            path = str(self.workdir / f"{self.prefix}{self.serial}.{req.out_ext}")
            argv = argv + ["--out", path]
        rec = self.recorder
        span = None
        if rec is not None:
            rec.request = self.serial
            rec.active = True
            span = rec.open(f"cli.{req.kind}" if argv else f"request.{req.kind}")
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            if argv is None:
                try:
                    outcome = Outcome(value=call_library(req.info))
                except discwalk.DiscWalkError as exc:
                    outcome = Outcome(code=2, stderr=str(exc))
            else:
                with redirect_stdout(out), redirect_stderr(err):
                    code = discwalk.cli.main(argv)
                outcome = Outcome(code, out.getvalue(), err.getvalue())
        except Exception as exc:  # a traceback is a wrong answer; keep the run going
            outcome = Outcome(code=-1, error=f"{type(exc).__name__}: {exc}")
        elapsed = perf_counter() - t0
        if rec is not None:
            rec.close(span)
            rec.active = False
        return elapsed, outcome, path

    def judge(self, req, outcome: Outcome, path) -> None:
        """Count a failure: a nonzero exit, a traceback or an output that fails its check."""
        if outcome.error is not None:
            ok, reason, facts, wrong = False, f"raised {outcome.error}", {}, True
        elif outcome.code != 0:
            wrong = outcome.code not in REFUSAL_CODES
            ok, reason, facts = False, f"exit {outcome.code}: {outcome.stderr.strip()[:200]}", {}
        else:
            ok, reason, facts = checks.run_check(req, outcome, path, self.ctx)
            wrong = not ok
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.incorrect += wrong
            if len(self.reasons) < 8:
                self.reasons.append(f"{' '.join(req.argv or [req.kind, str(req.info)])}: {reason}")
        rows = facts.pop("rows", None)
        if rows is not None:
            self.plot_rows[self.serial] = rows
        for name, value in facts.items():
            old = self.accuracy.get(name)
            self.accuracy[name] = value if old is None else checks.ACCURACY_FOLD[name](old, value)

    def run(self, req) -> float:
        elapsed, outcome, path = self.execute(req)
        self.judge(req, outcome, path)
        if path is not None and os.path.exists(path):
            os.remove(path)
        self.cells.setdefault(req.cell, (req.kind, []))[1].append(elapsed * 1e3)
        return elapsed

    def run_rounds(self, deadline=None, rounds=None, reference=None) -> tuple[int, float]:
        """Whole rounds until ``deadline`` has passed (or ``rounds`` are done),
        with the workload's reference requests interleaved and recorded on
        ``reference``, and host-speed samples recorded on ``host_ms``;
        returns (rounds, busy seconds of the workload's own requests)."""
        r = 0
        busy = 0.0
        refs = self.workload.reference_requests() if reference is not None else []
        while True:
            reqs = self.workload.round(r)
            # reference requests and host samples spread evenly through the round
            after = [[] for _ in reqs]
            for k, ref in enumerate(refs):
                after[k * len(reqs) // len(refs)].append(ref)
            sample_at = {k * len(reqs) // HOST_SAMPLES_PER_ROUND for k in range(HOST_SAMPLES_PER_ROUND)}
            for i, (req, extra) in enumerate(zip(reqs, after)):
                busy += self.run(req)
                for ref in extra:
                    reference.run(ref)
                if reference is not None and i in sample_at:
                    self.host_ms.append(host_sample())
            r += 1
            if (rounds is not None and r >= rounds) or (deadline is not None and perf_counter() >= deadline):
                return r, busy


def environment(workload, seed: int, workdir: Path) -> dict:
    cfg = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{cfg.get('name', '?')} {cfg.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workdir": str(workdir),
        "workdir_fs": filesystem_type(workdir),
        "discwalk": discwalk.__file__,
    }


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path``, from the longest matching mount point."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                if str(path).startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def settled(latencies: list) -> float:
    """A cell's settled latency: the lower quartile of its latencies over the run.

    On a shared host a neighbour's load slows requests in bursts, and how
    much of a run the bursts cover moves a median by 20-50%.  The lower
    quartile of one repeated request is far less affected, and a slower
    program still moves it in full.
    """
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=4, method="inclusive")[0]


def geometric_mean(values: list) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(runner: Runner, ref: Runner, peak_mb: float, scale: float) -> dict:
    """The metrics of an untraced run, every latency multiplied by ``scale``."""
    own = [scale * settled(lat) for _, lat in runner.cells.values()]
    m = {
        "requests_per_s": (1e3 * len(own) / sum(own), "1/s"),
        "latency_p90_ms": (statistics.quantiles(own, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    for kind in KINDS:
        values = [settled(lat) for k, lat in runner.cells.values() if k == kind]
        values = values or [settled(lat) for k, lat in ref.cells.values() if k == kind]
        m[f"{kind}_ms"] = (scale * geometric_mean(values), "ms")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if Path(discwalk.__file__).resolve().parents[1] != (ROOT / "src").resolve():
        print(f"error: imported discwalk from {discwalk.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=False)
    try:
        workload = WORKLOADS[args.workload](discwalk, args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        return drive(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def drive(workload, args, workdir: Path) -> int:
    env = environment(args.workload, args.seed, workdir)
    runner = Runner(workload, workdir, "r")
    start = perf_counter()
    doc = {"env": env}
    if not args.trace:
        ref = Runner(workload, workdir, "ref")
        rounds, _ = runner.run_rounds(deadline=start + args.seconds, reference=ref)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        host_ms = settled(runner.host_ms)
        doc["host"] = {"kernel_ms": host_ms, "samples": len(runner.host_ms), "scale": HOST_REF_MS / host_ms}
        doc["metrics"] = end_to_end(runner, ref, peak_mb, HOST_REF_MS / host_ms)
        doc["unscaled"] = {k: v for k, (v, _) in end_to_end(runner, ref, peak_mb, 1.0).items()}
        runners = (runner, ref)
    else:
        # same rounds twice: untraced for the overhead base, then traced
        rounds, busy = runner.run_rounds(deadline=start + args.seconds / 2.0)
        rec = spans.Recorder()
        traced = Runner(workload, workdir, "t", rec)
        rec.install()
        try:
            _, traced_busy = traced.run_rounds(rounds=rounds)
        finally:
            rec.uninstall()
        metrics = spans.layer_metrics(rec, traced.plot_rows, traced_busy / busy)
        for name in checks.ACCURACY_FOLD:
            values = [r.accuracy[name] for r in (runner, traced) if name in r.accuracy]
            metrics[name] = (checks.ACCURACY_FOLD[name](values) if values else 0.0, "abs")
        SPAN_DIR.mkdir(exist_ok=True)
        rec.write(SPAN_DIR / f"spans-{args.workload}.json.gz", {"workload": args.workload, "seed": args.seed})
        doc["metrics"] = metrics
        doc["missing"] = rec.missing
        runners = (runner, traced)
    doc["rounds"] = rounds
    doc["attempted"] = sum(r.attempted for r in runners)
    doc["failed"] = sum(r.failed for r in runners)
    doc["incorrect"] = sum(r.incorrect for r in runners)
    doc["reasons"] = [reason for r in runners for reason in r.reasons][:8]
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
